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
from itertools import combinations
from random import Random
from typing import Iterator, Sequence, Union

from .rays import Ray, overlap2
from .scalar import DEFAULT_TOL, QRoot2, RealScalar, qroot2_sign

_SQRT2 = math.sqrt(2.0)

RealLike = Union[int, float]


@dataclass(frozen=True)
class MVector:
    """A nonzero direction in R^3, stored unnormalized.

    int components keep the vector on the exact path; any other component
    puts it on the floating path.  ``is_exact`` is decided on construction,
    as is a float vector's ``norm2``; an exact vector's ``norm2`` is
    computed on first use.
    """

    x: RealLike
    y: RealLike
    z: RealLike
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if not (x or y or z):
            raise ValueError("an M-vector must be nonzero")
        exact = isinstance(x, int) and isinstance(y, int) and isinstance(z, int)
        object.__setattr__(self, "is_exact", exact)
        if not exact:  # the cached_property's expression, without its lookup
            object.__setattr__(self, "norm2", x * x + y * y + z * z)

    @cached_property
    def norm2(self) -> RealLike:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def dot(self, other: MVector) -> RealLike:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def unit(self) -> tuple[float, float, float]:
        r = math.sqrt(float(self.norm2))
        return (float(self.x) / r, float(self.y) / r, float(self.z) / r)


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
    so compare with ``mpairs_match``."""

    first: MVector
    second: MVector

    @property
    def is_exact(self) -> bool:
        return self.first.is_exact and self.second.is_exact

    @classmethod
    def orthogonal_pairs(cls, pairs: Sequence[MPair]) -> list[tuple[int, int]]:
        """Every orthogonal pair (i, j), i < j, of 1-based positions in ``pairs``.

        Exact pairs: the numerator X of the closed form is tested for 0 on
        the vectors of ``_closed_form_rows``, its rational part X0 first and
        the sqrt2 part X1 only where X0 = 0; a loop of its own, since all
        four parts from ``_closed_form_ints`` cost half as much again.
        Float pairs: ``overlap2_closed_form < DEFAULT_TOL**2``.  Pairs of
        both kinds raise ValueError, as does an exact norm product outside
        Q(sqrt2).
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
        lefts, rights = _closed_form_rows(pairs)
        out = []
        for i, (x0, x1, _, _) in enumerate(lefts, start=1):
            (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14) = x0
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = x1
            for j, (r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13,
                    r14) in enumerate(rights[i:], start=i + 1):
                if not (a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4 + a5 * r5 + a6 * r6
                        + a7 * r7 + a8 * r8 + a9 * r9 + a10 * r10 + a11 * r11 + a12 * r12
                        + a13 * r13 + a14 * r14) and not (
                        b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3 + b4 * r4 + b5 * r5 + b6 * r6
                        + b7 * r7 + b8 * r8):
                    out.append((i, j))
        return out


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


def _closed_form_rows(
    pairs: Sequence[MPair],
) -> tuple[list[tuple[tuple[int, ...], ...]], list[tuple[int, ...]]]:
    """The left vectors (X0, X1, Y0, Y1) and the right vector of each exact
    pair, as int tuples in two lists: pairs i < j have X0 = X0_i . right_j,
    and so on (see ``_closed_form_ints``).

    With n0 the norm of ``pairs[0].first``, each M-vector u gets
    rho_u = sqrt(n_u * n0) in Z[sqrt2], taken once per distinct norm;
    ValueError for one outside Q(sqrt2).  All products n_u * n_v are of the
    form s^2 or 2*s^2 exactly when all n_u * n0 are.  A pair a = (a1, a2)
    has rho_a = rho_a1 * rho_a2 = w + v*sqrt2, d = a1.a2, the vector
    S = a1*rho_a2 + a2*rho_a1 = Sw + Sv*sqrt2 and Sym = a1 a2^T + a2 a1^T;
    its right vector is (w, v, d, Sw, Sv, diag Sym / 2, upper Sym), 15 ints,
    and its left vectors weigh those of another pair by 15, 9, 3 and 3 ints.
    """
    if not pairs:
        return [], []
    n0 = pairs[0].first.norm2
    roots = {n: _root(n * n0) for n in {v.norm2 for p in pairs for v in (p.first, p.second)}}
    k2, k4, m2, m4 = 2 * n0, 4 * n0, 2 * n0 * n0, 4 * n0 * n0
    lefts, rights = [], []
    for p in pairs:
        a, b = p.first, p.second
        (w1, v1), (w2, v2) = roots[a.norm2], roots[b.norm2]
        x1, y1, z1, x2, y2, z2 = a.x, a.y, a.z, b.x, b.y, b.z
        w, v, d = w1 * w2 + 2 * v1 * v2, w1 * v2 + v1 * w2, x1 * x2 + y1 * y2 + z1 * z2
        s0, s1, s2 = x1 * w2 + x2 * w1, y1 * w2 + y2 * w1, z1 * w2 + z2 * w1
        t0, t1, t2 = x1 * v2 + x2 * v1, y1 * v2 + y2 * v1, z1 * v2 + z2 * v1
        # Sym's diagonal halved, so its weight in Sym:Sym is 4, as the upper's is 2
        g0, g1, g2 = x1 * x2, y1 * y2, z1 * z2
        h0, h1, h2 = x1 * y2 + y1 * x2, x1 * z2 + z1 * x2, y1 * z2 + z1 * y2
        e = 3 * w + n0 * d
        lefts.append((
            (e, 6 * v, n0 * w - n0 * n0 * d, k2 * s0, k2 * s1, k2 * s2, k4 * t0, k4 * t1, k4 * t2,
             m4 * g0, m4 * g1, m4 * g2, m2 * h0, m2 * h1, m2 * h2),
            (3 * v, e, n0 * v, k2 * t0, k2 * t1, k2 * t2, k2 * s0, k2 * s1, k2 * s2),
            (3 * e, 18 * v, 3 * n0 * w + n0 * n0 * d),
            (9 * v, 3 * e, 3 * n0 * v),
        ))
        rights.append((w, v, d, s0, s1, s2, t0, t1, t2, g0, g1, g2, h0, h1, h2))
    return lefts, rights


def _closed_form_ints(pairs: Sequence[MPair]) -> Iterator[tuple[int, ...]]:
    """(i, j, X0, X1, Y0, Y1) for each i < j of 1-based positions in the
    exact ``pairs``: the closed form of pairs i and j is X / Y, with
    X = X0 + X1*sqrt2 and Y = Y0 + Y1*sqrt2 (see ``overlap2_closed_form``),
    each part one integer dot product of the vectors of ``_closed_form_rows``.

    X and Y are n0^2 times the closed form's numerator and denominator
    multiplied by R = sqrt(|a1|^2 |a2|^2 |b1|^2 |b2|^2), n0 the norm of
    ``pairs[0].first``, so with rho_a, d_a, S_a and Sym_a as there

        n0^2 X = 3 rho_a rho_b + n0 (d_a rho_b + d_b rho_a) - n0^2 d_a d_b
                 + 2 n0 S_a.S_b + n0^2 Sym_a:Sym_b
        n0^2 Y = 9 rho_a rho_b + 3 n0 (d_a rho_b + d_b rho_a) + n0^2 d_a d_b

    by two identities: (t11 + t22 + t12 + t21) R = S_a.S_b / n0 and
    2 (d11 d22 + d12 d21) = Sym_a:Sym_b.  The factor n0^2 > 0 changes
    neither the zero test, nor a sign, nor the quotient X / Y.
    """
    lefts, rights = _closed_form_rows(pairs)
    for i, (x0, x1, y0, y1) in enumerate(lefts, start=1):
        (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14) = x0
        (b0, b1, b2, b3, b4, b5, b6, b7, b8), (c0, c1, c2), (d0, d1, d2) = x1, y0, y1
        for j, (r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13,
                r14) in enumerate(rights[i:], start=i + 1):
            yield (
                i, j,
                a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4 + a5 * r5 + a6 * r6
                + a7 * r7 + a8 * r8 + a9 * r9 + a10 * r10 + a11 * r11 + a12 * r12
                + a13 * r13 + a14 * r14,
                b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3 + b4 * r4 + b5 * r5 + b6 * r6
                + b7 * r7 + b8 * r8,
                c0 * r0 + c1 * r1 + c2 * r2, d0 * r0 + d1 * r1 + d2 * r2,
            )


def catalog_sweep(pairs: Sequence[MPair]) -> tuple[list[tuple[int, int]], bool]:
    """The pairs (i, j), i < j, of the exact ``pairs`` whose closed-form
    overlap X / Y is zero, and whether it is positive on every other pair:
    one pass of ``_closed_form_ints``.  Zero iff X = 0; positive iff X and Y
    have the same nonzero sign."""
    zeros, positive = [], True
    for i, j, x0, x1, y0, y1 in _closed_form_ints(pairs):
        if not (x0 or x1):
            zeros.append((i, j))
        elif qroot2_sign(x0, x1) != qroot2_sign(y0, y1):
            positive = False
    return zeros, positive


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
    R = sqrt(|a1|^2 |a2|^2 |b1|^2 |b2|^2) and by n0^2, n0 = |a1|^2.  That
    leaves X / Y with X and Y in Z[sqrt2], each part one integer dot
    product (``_closed_form_ints``) by the identities
    (t11 + t22 + t12 + t21) R = S_a.S_b / n0, with S_a = a1 sqrt(n_a2 n0)
    + a2 sqrt(n_a1 n0), and 2 (d11 d22 + d12 d21) = Sym_a:Sym_b, with
    Sym_a = a1 a2^T + a2 a1^T.  Each norm product n_u * n_v must be of the
    form s^2 or 2*s^2 (ValueError otherwise); the pair is orthogonal iff
    X = 0, and the factor n0^2 > 0 leaves the quotient as it is.
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
