"""Projective rays in complex 3-space, generic over exact and float scalars."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .scalar import DEFAULT_TOL, ExactComplex, RealScalar, Scalar, abs2, integer_parts


@dataclass(frozen=True)
class Ray:
    """A nonzero vector in C^3, meaningful only up to complex rescaling.

    Components are stored verbatim (unnormalized); ``index`` is an optional
    1-based catalog label.  A ray is exact when all three components are
    ``ExactComplex`` and float when none is; a ray that mixes the two kinds
    is rejected.  ``is_exact`` is decided on construction, and ``norm2``
    and, for an exact ray, ``parts`` on first use, once per ray.
    """

    components: tuple[Scalar, Scalar, Scalar]
    index: int | None = field(default=None, compare=False)
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = self.components
        if len(c) != 3:
            raise ValueError("a ray needs exactly 3 components")
        if not (c[0] or c[1] or c[2]):
            raise ValueError("a ray must have a nonzero component")
        exact = isinstance(c[0], ExactComplex)
        if (isinstance(c[1], ExactComplex) is not exact
                or isinstance(c[2], ExactComplex) is not exact):
            raise ValueError("a ray's components must be all exact or all float")
        object.__setattr__(self, "is_exact", exact)

    @cached_property
    def norm2(self) -> RealScalar:
        """Squared norm <a|a>, exact for an exact ray."""
        c = self.components
        return abs2(c[0]) + abs2(c[1]) + abs2(c[2])

    @cached_property
    def parts(self) -> tuple[tuple[int, int, int, int], ...]:
        """Integer form of an exact ray: the (p, q, r, s) of each component
        (p + q*sqrt2) + i*(r + s*sqrt2), after one positive integer rescaling
        that clears every denominator."""
        if not self.is_exact:
            raise ValueError("only exact rays have an integer form and a canonical key")
        return integer_parts(self.components)

    def key(self) -> tuple[int, ...]:
        """Canonical projective form: the ray scaled so its first nonzero
        component is 1, written as the (p, q, r, s) of each component over
        one positive denominator: 13 ints with gcd 1.  Exact rays only.

        With that component lead and |lead|^2 = n0 + n1*sqrt2, every component
        is multiplied by conj(lead) * (n0 - n1*sqrt2), which turns lead into
        the positive integer n0^2 - 2*n1^2, the denominator.
        """
        parts = self.parts
        p, q, r, s = next(c for c in parts if any(c))
        n0, n1 = p * p + 2 * q * q + r * r + 2 * s * s, 2 * (p * q + r * s)
        # (a + b*sqrt2) + i*(c + d*sqrt2) = conj(lead) * (n0 - n1*sqrt2)
        a, b = p * n0 - 2 * q * n1, q * n0 - p * n1
        c, d = 2 * s * n1 - r * n0, r * n1 - s * n0
        out = []
        for x, y, u, v in parts:
            out += (
                x * a + 2 * y * b - u * c - 2 * v * d, x * b + y * a - u * d - v * c,
                x * c + 2 * y * d + u * a + 2 * v * b, x * d + y * c + u * b + v * a,
            )
        out.append(n0 * n0 - 2 * n1 * n1)
        g = math.gcd(*out)
        # from a list: a tuple grown from a generator is resized, and the
        # interpreter keeps up to 2,000 freed tuples of each size, ~0.3 MB here
        return tuple([n // g for n in out])

    def rotated(self, m: tuple[tuple[int, int, int], ...]) -> Ray:
        """Image under a signed permutation matrix (an integer rotation)."""
        v = self.components
        return Ray(tuple(
            v[j] if row[j] > 0 else -v[j] for row in m for j in range(3) if row[j]
        ))

    @classmethod
    def orthogonal_pairs(cls, rays: Sequence[Ray]) -> list[tuple[int, int]]:
        """Every orthogonal pair (i, j), i < j, of 1-based positions in ``rays``.

        Exact rays: one loop over their ``parts`` decides every pair, each of
        the four integer parts of <a|b> compared with 0, with no call and no
        scalar object per pair.  Float rays: ``is_orthogonal`` on each pair.
        Rays of both kinds raise ValueError.
        """
        kinds = {r.is_exact for r in rays}
        if len(kinds) > 1:
            raise ValueError("cannot compare an exact ray with a float ray")
        if True in kinds:
            n = len(rays)
            edges = []
            parts = [r.parts for r in rays]
            for i, ((p0, q0, r0, s0), (p1, q1, r1, s1), (p2, q2, r2, s2)) in enumerate(
                parts, start=1
            ):
                for j in range(i, n):
                    (P0, Q0, R0, S0), (P1, Q1, R1, S1), (P2, Q2, R2, S2) = parts[j]
                    # conj(p + q*sqrt2 + i*(r + s*sqrt2)) * (P + Q*sqrt2 + i*(R + S*sqrt2)),
                    # summed over the components, is re0 + re1*sqrt2 + i*(im0 + im1*sqrt2)
                    if (
                        p0 * P0 + r0 * R0 + p1 * P1 + r1 * R1 + p2 * P2 + r2 * R2  # re0
                        + 2 * (q0 * Q0 + s0 * S0 + q1 * Q1 + s1 * S1 + q2 * Q2 + s2 * S2) == 0
                        and p0 * Q0 + q0 * P0 + r0 * S0 + s0 * R0 + p1 * Q1 + q1 * P1  # re1
                        + r1 * S1 + s1 * R1 + p2 * Q2 + q2 * P2 + r2 * S2 + s2 * R2 == 0
                        and p0 * R0 - r0 * P0 + p1 * R1 - r1 * P1 + p2 * R2 - r2 * P2  # im0
                        + 2 * (q0 * S0 - s0 * Q0 + q1 * S1 - s1 * Q1 + q2 * S2 - s2 * Q2) == 0
                        and p0 * S0 + q0 * R0 - r0 * Q0 - s0 * P0 + p1 * S1 + q1 * R1  # im1
                        - r1 * Q1 - s1 * P1 + p2 * S2 + q2 * R2 - r2 * Q2 - s2 * P2 == 0
                    ):
                        edges.append((i, j + 1))
            return edges
        # float rays keep one ``is_orthogonal`` call per pair: ``perfbench/``
        # counts those calls as ``orthograph.pair_tests``, and its self-test
        # requires a nonzero count on the float workload
        return [
            (i, j) for (i, a), (j, b) in combinations(enumerate(rays, start=1), 2)
            if is_orthogonal(a, b)
        ]


def inner(a: Ray, b: Ray) -> Scalar:
    """Hermitian inner product, conjugate-linear in the FIRST argument.

    All quantities derived here depend only on magnitudes, so the side of
    conjugation is a pure convention; it is fixed once and documented.
    """
    x, y = a.components, b.components
    return (
        x[0].conjugate() * y[0]
        + x[1].conjugate() * y[1]
        + x[2].conjugate() * y[2]
    )


def overlap2(a: Ray, b: Ray) -> RealScalar:
    """Normalized squared overlap |<a|b>|^2 / (<a|a><b|b>) in [0, 1].

    Invariant under independent nonzero rescaling of either ray.  Exact
    when both rays are exact, a float when both are float; an exact ray
    against a float ray raises ValueError.
    """
    if a.is_exact is not b.is_exact:
        raise ValueError("cannot compare an exact ray with a float ray")
    return abs2(inner(a, b)) / (a.norm2 * b.norm2)


def is_orthogonal(a: Ray, b: Ray) -> bool:
    """Exact zero test of <a|b> for two exact rays: ``Ray.orthogonal_pairs``
    on the two.  For two float rays, ``overlap2(a, b) < DEFAULT_TOL**2`` with
    ``overlap2``'s arithmetic inlined: the same operations in the same order,
    so the same bits.  An exact ray against a float ray raises ValueError."""
    if a.is_exact is not b.is_exact:
        raise ValueError("cannot compare an exact ray with a float ray")
    if a.is_exact:
        return bool(Ray.orthogonal_pairs((a, b)))
    x, y = a.components, b.components
    z = x[0].conjugate() * y[0] + x[1].conjugate() * y[1] + x[2].conjugate() * y[2]
    return (z.real * z.real + z.imag * z.imag) / (a.norm2 * b.norm2) < DEFAULT_TOL * DEFAULT_TOL
