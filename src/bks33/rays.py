"""Projective rays in complex 3-space, generic over exact and float scalars."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .scalar import DEFAULT_TOL, ExactComplex, RealScalar, Scalar, abs2


@dataclass(frozen=True)
class Ray:
    """A nonzero vector in C^3, meaningful only up to complex rescaling.

    Components are stored verbatim (unnormalized); ``index`` is an optional
    1-based catalog label.  A ray is exact when all three components are
    ``ExactComplex`` and float when none is; a ray that mixes the two kinds
    is rejected.  ``is_exact`` is decided on construction and ``norm2``
    on first use, once per ray.
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

    def key(self) -> tuple[ExactComplex, ExactComplex, ExactComplex]:
        """Canonical projective form: the ray scaled so its first nonzero
        component is 1.  Exact rays only."""
        if not self.is_exact:
            raise ValueError("only exact rays have a canonical key")
        lead = next(c for c in self.components if c)
        return tuple(c / lead for c in self.components)

    def rotated(self, m: tuple[tuple[int, int, int], ...]) -> Ray:
        """Image under a signed permutation matrix (an integer rotation)."""
        v = self.components
        return Ray(tuple(
            v[j] if row[j] > 0 else -v[j] for row in m for j in range(3) if row[j]
        ))

    def orthogonal_to(self, other: Ray) -> bool:
        return is_orthogonal(self, other)


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
    """Exact zero test of <a|b> for two exact rays.  For two float rays,
    ``overlap2(a, b) < DEFAULT_TOL**2`` with ``overlap2``'s arithmetic
    inlined: the same operations in the same order, so the same bits.  An
    exact ray against a float ray raises ValueError."""
    if a.is_exact is not b.is_exact:
        raise ValueError("cannot compare an exact ray with a float ray")
    x, y = a.components, b.components
    z = x[0].conjugate() * y[0] + x[1].conjugate() * y[1] + x[2].conjugate() * y[2]
    if a.is_exact:
        return not z
    return (z.real * z.real + z.imag * z.imag) / (a.norm2 * b.norm2) < DEFAULT_TOL * DEFAULT_TOL
