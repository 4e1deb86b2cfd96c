"""Majorana machinery for spin-1 states.

A spin-1 ray is labeled by an unordered pair of unit directions (its
M-vectors).  This module converts both ways between that labeling and
explicit spin-z components, and evaluates the closed-form squared overlap
of two rays directly from their M-vectors.

Conventions (fixed here, validated by the round-trip and catalog-recovery
tests rather than assumed):

* spinor of a direction with polar angles (theta, phi) is
  (cos(theta/2), e^{i phi} sin(theta/2)); the -z direction, where phi is
  undefined, uses phi = 0.
* a state (c+, c0, c-) has Majorana polynomial
  c+ * t^2 - sqrt(2) * c0 * t + c-, and a root t is the stereographic
  coordinate (projected from the -z pole) of the corresponding direction;
  c+ = 0 puts one root at infinity, i.e. at -z itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Union

from .rays import Ray, overlap2
from .scalar import DEFAULT_TOL, QRoot2, RealScalar

_SQRT2 = math.sqrt(2.0)

RealLike = Union[int, float]


class DegenerateStateError(ValueError):
    """Raised when a symmetrized spinor product collapses to the zero vector."""


@dataclass(frozen=True)
class MVector:
    """A nonzero direction in R^3, stored unnormalized.

    int components keep the vector on the exact path; any other component
    puts it on the floating path.
    """

    x: RealLike
    y: RealLike
    z: RealLike

    def __post_init__(self) -> None:
        if not (self.x or self.y or self.z):
            raise ValueError("an M-vector must be nonzero")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.x, int) and isinstance(self.y, int) and isinstance(self.z, int)

    @cached_property
    def norm2(self) -> RealLike:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def dot(self, other: MVector) -> RealLike:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def unit(self) -> tuple[float, float, float]:
        r = math.sqrt(float(self.norm2))
        return (float(self.x) / r, float(self.y) / r, float(self.z) / r)

    def key(self) -> tuple[int, int, int]:
        """Primitive integer direction; keeps the sign, since M-vectors are
        directions, not rays.  Exact vectors only."""
        if not self.is_exact:
            raise ValueError("only exact M-vectors have a canonical key")
        g = math.gcd(self.x, self.y, self.z)
        return (self.x // g, self.y // g, self.z // g)

    def rotated(self, m: tuple[tuple[int, int, int], ...]) -> MVector:
        """Image under a signed permutation matrix (an integer rotation)."""
        v = (self.x, self.y, self.z)
        return MVector(*(
            v[j] if row[j] > 0 else -v[j] for row in m for j in range(3) if row[j]
        ))


def unit_dot(a: MVector, b: MVector) -> RealScalar:
    """Dot product of the normalized directions; exact when both vectors are.

    The exact path requires the integer norm2(a) * norm2(b) to be of the
    form s^2 or 2*s^2, which holds for all catalog vectors.
    """
    if a.is_exact and b.is_exact:
        scale = QRoot2(a.norm2 * b.norm2).sqrt()
        return QRoot2(a.dot(b)) / scale
    ua, ub = a.unit(), b.unit()
    return ua[0] * ub[0] + ua[1] * ub[1] + ua[2] * ub[2]


@dataclass(frozen=True)
class MPair:
    """Pair of M-vectors labeling one spin-1 ray; the order carries no meaning,
    so compare with ``key()`` (exact) or ``mpairs_match`` (tolerance)."""

    first: MVector
    second: MVector

    @property
    def is_exact(self) -> bool:
        return self.first.is_exact and self.second.is_exact

    def key(self) -> tuple[tuple[int, int, int], ...]:
        """Sorted keys of the two M-vectors: an unordered, exact-only key."""
        return tuple(sorted((self.first.key(), self.second.key())))

    def rotated(self, m: tuple[tuple[int, int, int], ...]) -> MPair:
        return MPair(self.first.rotated(m), self.second.rotated(m))

    def orthogonal_to(self, other: MPair, tol: float = DEFAULT_TOL) -> bool:
        """Exact zero test of the closed form for exact pairs, else < tol^2."""
        value = overlap2_closed_form(self, other)
        if self.is_exact and other.is_exact:
            return value == 0
        return value < tol * tol


def spinor_from_direction(v: MVector) -> tuple[complex, complex]:
    """Spin-1/2 spinor (cos t/2, e^{i phi} sin t/2) for the direction of v."""
    x, y, z = v.unit()
    u = min(1.0, max(-1.0, z))
    ca = math.sqrt((1.0 + u) / 2.0)
    sa = math.sqrt((1.0 - u) / 2.0)
    rho = math.hypot(x, y)
    phase = complex(x / rho, y / rho) if rho > 0.0 else complex(1.0)
    return (complex(ca), phase * sa)


def state_from_mpair(p: MPair) -> Ray:
    """Symmetrized product of the two spinors, normalized, as a float ray.

    Components are (a1*a2, (a1*b2 + a2*b1)/sqrt2, b1*b2); the result does
    not depend on the pair ordering up to a global phase.
    """
    a1, b1 = spinor_from_direction(p.first)
    a2, b2 = spinor_from_direction(p.second)
    cp = a1 * a2
    c0 = (a1 * b2 + a2 * b1) / _SQRT2
    cm = b1 * b2
    norm = math.sqrt(abs(cp) ** 2 + abs(c0) ** 2 + abs(cm) ** 2)
    if norm < 1e-15:
        raise DegenerateStateError("symmetrized spinor product is zero")
    return Ray((cp / norm, c0 / norm, cm / norm))


def _roots(s: Ray) -> tuple[complex | None, complex | None]:
    """Roots of c+ t^2 - sqrt2 c0 t + c-; None encodes a root at infinity."""
    a, c0, c = (complex(x) for x in s.components)
    b = -_SQRT2 * c0
    if a == 0:
        if b == 0:
            return (None, None)
        return (-c / b, None)
    sq = cmath.sqrt(b * b - 4 * a * c)
    # pick the larger of b +- sq to avoid cancellation; recover the other
    # root from the product c/a
    if abs(b + sq) >= abs(b - sq):
        big = -(b + sq) / 2
    else:
        big = -(b - sq) / 2
    if big == 0:
        return (complex(0), complex(0))
    return (big / a, c / big)


def _direction(root: complex | None) -> MVector:
    """Inverse stereographic projection from the -z pole."""
    if root is None:
        return MVector(0.0, 0.0, -1.0)
    m2 = root.real * root.real + root.imag * root.imag
    d = 1.0 + m2
    return MVector(2.0 * root.real / d, 2.0 * root.imag / d, (1.0 - m2) / d)


def mpair_from_state(s: Ray) -> MPair:
    """M-vectors of an exact or float state: quadratic roots pulled back to the sphere."""
    r1, r2 = _roots(s)
    return MPair(_direction(r1), _direction(r2))


def overlap2_closed_form(pa: MPair, pb: MPair) -> RealScalar:
    """Squared overlap of two spin-1 rays directly from their M-vectors.

    With unit vectors a1, a2 labeling one ray and b1, b2 the other:

        2*[(1 + a1.b1)(1 + a2.b2) + (1 + a1.b2)(1 + a2.b1)]
          - (1 - a1.a2)(1 - b1.b2)
        ----------------------------------------------------
                  (3 + a1.a2)(3 + b1.b2)

    The denominator is at least 4 since every dot product is >= -1.  The
    result is exact when all four vectors are exact catalog vectors.
    """
    a1, a2 = pa.first, pa.second
    b1, b2 = pb.first, pb.second
    t11 = unit_dot(a1, b1)
    t12 = unit_dot(a1, b2)
    t21 = unit_dot(a2, b1)
    t22 = unit_dot(a2, b2)
    ta = unit_dot(a1, a2)
    tb = unit_dot(b1, b2)
    num = 2 * ((1 + t11) * (1 + t22) + (1 + t12) * (1 + t21)) - (1 - ta) * (1 - tb)
    den = (3 + ta) * (3 + tb)
    return num / den


def state_overlap2(sa: Ray, sb: Ray) -> float:
    """``overlap2``, kept under the name ``perfbench/bench_workloads.py`` calls."""
    return overlap2(sa, sb)


def mpairs_match(p: MPair, q: MPair, tol: float = 1e-7) -> bool:
    """Unordered match of two pairs, comparing unit vectors componentwise."""

    def close(u: MVector, v: MVector) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(u.unit(), v.unit()))

    return (close(p.first, q.first) and close(p.second, q.second)) or (
        close(p.first, q.second) and close(p.second, q.first)
    )


def random_mvector(rng: Random) -> MVector:
    """Uniform random direction (floating), for property and audit runs."""
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        r = math.hypot(*v)
        if r > 1e-3:
            return MVector(v[0] / r, v[1] / r, v[2] / r)
