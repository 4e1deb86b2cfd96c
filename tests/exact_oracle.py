"""Generic exact arithmetic in ``QRoot2`` and ``ExactComplex``, as a test oracle.

The package decides exact orthogonality with integer kernels.  This module
spells out the same quantities with the generic field operations, term by
term as the formulas read:

* ``inner``: the Hermitian inner product summed in ``ExactComplex``;
* ``unit_dot``: the cosine of two integer M-vectors, d / sqrt(N) with d the
  integer dot and N the integer norm product, whose root is taken in
  Q(sqrt2); ``closed_form``: the Majorana closed form over six of them;
* ``apply``: a 3x3 matrix times a column, every entry multiplied in, zeros
  too: the recovery's basis change ``catalog.RECOVERY_ROTATION`` in full,
  and the turns below applied to rays and M-vectors.

It also holds the geometry behind the proof's two written-out diagram
automorphisms, ``kscolor.SIGMA`` and ``kscolor.TAU``:

* ``ROTATION_111``, the turn about the body diagonal, and ``X_AXIS_TURNS``,
  the three proper turns about the x-axis;
* ``key``: a ray scaled so its first nonzero component is 1; ``direction``:
  an integer M-vector's primitive direction, sign kept;
* ``induced_permutation``: the permutation of a catalog's entries that a
  turn induces, matching rays by ``key`` and M-pairs by their sorted
  directions.
"""

from __future__ import annotations

import math

from bks33.majorana import MPair, MVector
from bks33.rays import Ray
from bks33.scalar import ExactComplex, QRoot2

#: 120-degree turn about the (1, 1, 1) axis: x -> y -> z -> x.
ROTATION_111 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))

X_AXIS_TURNS: dict[int, tuple[tuple[int, int, int], ...]] = {
    90: ((1, 0, 0), (0, 0, -1), (0, 1, 0)),
    180: ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
    270: ((1, 0, 0), (0, 0, 1), (0, -1, 0)),
}


def inner(a: Ray, b: Ray) -> ExactComplex:
    total = ExactComplex(0)
    for x, y in zip(a.components, b.components):
        total = total + x.conjugate() * y
    return total


def key(ray: Ray) -> tuple[ExactComplex, ...]:
    lead = next(c for c in ray.components if c)
    return tuple(c / lead for c in ray.components)


def direction(v: MVector) -> tuple[int, int, int]:
    g = math.gcd(v.x, v.y, v.z)
    return (v.x // g, v.y // g, v.z // g)


def _entry_key(entry: Ray | MPair) -> tuple:
    if isinstance(entry, MPair):
        return tuple(sorted((direction(entry.first), direction(entry.second))))
    return key(entry)


def apply(m: tuple[tuple, ...], v: tuple) -> tuple:
    """The matrix m times the column v, every entry multiplied in, zeros too."""
    return tuple(v[0] * row[0] + v[1] * row[1] + v[2] * row[2] for row in m)


def _rotated(m: tuple[tuple[int, int, int], ...], entry: Ray | MPair) -> Ray | MPair:
    if isinstance(entry, MPair):
        return MPair(*(MVector(*apply(m, (v.x, v.y, v.z))) for v in (entry.first, entry.second)))
    return Ray(apply(m, entry.components))


def induced_permutation(m: tuple[tuple[int, int, int], ...],
                        catalog: list[Ray] | list[MPair]) -> dict[int, int]:
    """pi with m * catalog[i] naming catalog[pi(i)], 1-based.  KeyError where
    an image is not in the catalog; ValueError where two entries have one
    image, as in a catalog that names one ray twice."""
    index = {_entry_key(entry): j for j, entry in enumerate(catalog, start=1)}
    perm = {i: index[_entry_key(_rotated(m, entry))] for i, entry in enumerate(catalog, start=1)}
    if len(set(perm.values())) != len(perm):
        raise ValueError("the turn does not permute the catalog")
    return perm


def field_sqrt(n: int) -> QRoot2:
    """sqrt(n) for an int n of the form s^2 or 2*s^2; ValueError otherwise."""
    s = math.isqrt(n)
    if s * s == n:
        return QRoot2(s)
    s = math.isqrt(n // 2)
    if 2 * s * s == n:
        return QRoot2(0, s)
    raise ValueError(f"sqrt({n}) is not in Q(sqrt2)")


def unit_dot(u: MVector, v: MVector) -> QRoot2:
    return QRoot2(u.dot(v)) / field_sqrt(u.norm2 * v.norm2)


def closed_form(pa: MPair, pb: MPair) -> QRoot2:
    a1, a2, b1, b2 = pa.first, pa.second, pb.first, pb.second
    t11, t12 = unit_dot(a1, b1), unit_dot(a1, b2)
    t21, t22 = unit_dot(a2, b1), unit_dot(a2, b2)
    ta, tb = unit_dot(a1, a2), unit_dot(b1, b2)
    num = 2 * ((1 + t11) * (1 + t22) + (1 + t12) * (1 + t21)) - (1 - ta) * (1 - tb)
    return num / ((3 + ta) * (3 + tb))
