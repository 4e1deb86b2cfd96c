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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from random import Random
from typing import Iterator, Sequence, Union

from .rays import Ray, overlap2
from .scalar import DEFAULT_TOL, QRoot2, RealScalar

_SQRT2 = math.sqrt(2.0)

RealLike = Union[int, float]


@dataclass(frozen=True)
class MVector:
    """A nonzero direction in R^3, stored unnormalized.

    int components keep the vector on the exact path; any other component
    puts it on the floating path.  ``is_exact`` is decided on construction.
    """

    x: RealLike
    y: RealLike
    z: RealLike
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.x or self.y or self.z):
            raise ValueError("an M-vector must be nonzero")
        object.__setattr__(self, "is_exact", isinstance(self.x, int)
                           and isinstance(self.y, int) and isinstance(self.z, int))

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


def _root(n: int) -> tuple[int, int]:
    """sqrt(n) as (u, v), meaning u + v*sqrt2, for an int n = s^2 or 2*s^2."""
    s = math.isqrt(n)
    if s * s == n:
        return s, 0
    s = math.isqrt(n // 2)
    if 2 * s * s == n:
        return 0, s
    raise ValueError(f"sqrt({n}) is not in Q(sqrt2): an M-vector norm product "
                     "must be of the form s^2 or 2*s^2")


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

    @classmethod
    def orthogonal_pairs(cls, pairs: Sequence[MPair]) -> list[tuple[int, int]]:
        """Every orthogonal pair (i, j), i < j, of 1-based positions in ``pairs``.

        Exact pairs: the numerator X of the closed form is tested for 0, in
        one loop over integers (``_closed_form_ints``).  Float pairs:
        ``overlap2_closed_form < DEFAULT_TOL**2``.  Pairs of both kinds raise
        ValueError, as does an exact norm product outside Q(sqrt2).
        """
        kinds = {p.is_exact for p in pairs}
        if len(kinds) > 1:
            raise ValueError("cannot compare an exact M-pair with a float M-pair")
        if False in kinds:
            tol2 = DEFAULT_TOL * DEFAULT_TOL
            return [
                (i, j) for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2)
                if overlap2_closed_form(a, b) < tol2
            ]
        return [(i, j) for i, j, x0, x1, _, _ in _closed_form_ints(pairs) if not (x0 or x1)]


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


def _closed_form_ints(pairs: Sequence[MPair]) -> Iterator[tuple[int, ...]]:
    """(i, j, X0, X1, Y0, Y1) for each i < j of 1-based positions in the
    exact ``pairs``: the closed form of pairs i and j is X / Y, with
    X = X0 + X1*sqrt2 and Y = Y0 + Y1*sqrt2 (see ``overlap2_closed_form``).

    Each pair is unpacked once, and the square root of each product of two
    of the distinct M-vector norms is taken once per call; ValueError for one
    outside Q(sqrt2).  Every such product is needed once there are two pairs.
    """
    norms = {v.norm2 for p in pairs for v in (p.first, p.second)}
    roots = {n * m: _root(n * m) for n, m in combinations_with_replacement(norms, 2)}
    rows = []
    for p in pairs:
        a, b = p.first, p.second
        wa, va = roots[a.norm2 * b.norm2]
        rows.append((a.x, a.y, a.z, b.x, b.y, b.z, a.norm2, b.norm2, a.dot(b), wa, va))
    for i, (x1, y1, z1, x2, y2, z2, n1, n2, da, wa, va) in enumerate(rows, start=1):
        for j in range(i, len(rows)):
            X1, Y1, Z1, X2, Y2, Z2, m1, m2, db, wb, vb = rows[j]
            d11, d12 = x1 * X1 + y1 * Y1 + z1 * Z1, x1 * X2 + y1 * Y2 + z1 * Z2
            d21, d22 = x2 * X1 + y2 * Y1 + z2 * Z1, x2 * X2 + y2 * Y2 + z2 * Z2
            # (wxy + vxy*sqrt2)^2 = |ax|^2 |by|^2, and t11 * R = d11 * (w22 + v22*sqrt2)
            w11, v11 = roots[n1 * m1]
            w12, v12 = roots[n1 * m2]
            w21, v21 = roots[n2 * m1]
            w22, v22 = roots[n2 * m2]
            r0, r1 = wa * wb + 2 * va * vb, wa * vb + va * wb
            # (t11 + t22 + t12 + t21) * R
            cross0 = d11 * w22 + d22 * w11 + d12 * w21 + d21 * w12
            cross1 = d11 * v22 + d22 * v11 + d12 * v21 + d21 * v12
            # (ta + tb) * R
            side0, side1 = da * wb + db * wa, da * vb + db * va
            yield (
                i, j + 1,
                3 * r0 + 2 * cross0 + side0 + 2 * (d11 * d22 + d12 * d21) - da * db,
                3 * r1 + 2 * cross1 + side1,
                9 * r0 + 3 * side0 + da * db, 9 * r1 + 3 * side1,
            )


def overlap2_closed_form(pa: MPair, pb: MPair) -> RealScalar:
    """Squared overlap of two spin-1 rays directly from their M-vectors.

    With unit vectors a1, a2 labeling one ray and b1, b2 the other:

        2*[(1 + a1.b1)(1 + a2.b2) + (1 + a1.b2)(1 + a2.b1)]
          - (1 - a1.a2)(1 - b1.b2)
        ----------------------------------------------------
                  (3 + a1.a2)(3 + b1.b2)

    The denominator is at least 4 since every dot product is >= -1.  The
    result is exact when both pairs are exact, a float when neither is; an
    exact pair against a float pair raises ValueError.  On float pairs each
    vector is normalized once and the dots are formed inline.

    On exact pairs, with integer dots d and norms n, each unit dot is
    d / sqrt(n_u * n_v), and numerator and denominator are multiplied by
    R = sqrt(|a1|^2 |a2|^2 |b1|^2 |b2|^2).  That leaves X / Y with X and Y
    in Z[sqrt2], built from ints and the square roots of the six norm
    products, which must each be of the form s^2 or 2*s^2 (ValueError
    otherwise); the pair is orthogonal iff X = 0.
    """
    exact = pa.is_exact
    if exact is not pb.is_exact:
        raise ValueError("cannot compare an exact M-pair with a float M-pair")
    if exact:
        _, _, num0, num1, den0, den1 = next(_closed_form_ints((pa, pb)))
        return QRoot2(num0, num1) / QRoot2(den0, den1)
    a1, a2 = pa.first, pa.second
    b1, b2 = pb.first, pb.second
    (x1, y1, z1), (x2, y2, z2) = a1.unit(), a2.unit()
    (u1, v1, w1), (u2, v2, w2) = b1.unit(), b2.unit()
    t11 = x1 * u1 + y1 * v1 + z1 * w1
    t12 = x1 * u2 + y1 * v2 + z1 * w2
    t21 = x2 * u1 + y2 * v1 + z2 * w1
    t22 = x2 * u2 + y2 * v2 + z2 * w2
    ta = x1 * x2 + y1 * y2 + z1 * z2
    tb = u1 * u2 + v1 * v2 + w1 * w2
    num = 2 * ((1 + t11) * (1 + t22) + (1 + t12) * (1 + t21)) - (1 - ta) * (1 - tb)
    den = (3 + ta) * (3 + tb)
    return num / den


def state_overlap2(sa: Ray, sb: Ray) -> float:
    """``rays.overlap2`` under a second name; ``perfbench/`` is its only caller."""
    return overlap2(sa, sb)


#: Largest per-component difference of unit vectors ``mpairs_match`` accepts.
MATCH_TOL = 1e-7


def mpairs_match(p: MPair, q: MPair) -> bool:
    """Unordered match of two pairs, unit vectors within ``MATCH_TOL`` componentwise."""

    def close(u: MVector, v: MVector) -> bool:
        return all(abs(a - b) <= MATCH_TOL for a, b in zip(u.unit(), v.unit()))

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
