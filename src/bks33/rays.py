"""Projective rays in complex 3-space, generic over exact and float scalars."""

from __future__ import annotations

from dataclasses import dataclass, field

from .scalar import DEFAULT_TOL, ExactComplex, RealScalar, Scalar, abs2


@dataclass(frozen=True)
class Ray:
    """A nonzero vector in C^3, meaningful only up to complex rescaling.

    Components are stored verbatim (unnormalized); ``index`` is an optional
    1-based catalog label.
    """

    components: tuple[Scalar, Scalar, Scalar]
    index: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.components) != 3:
            raise ValueError("a ray needs exactly 3 components")
        if not any(bool(c) for c in self.components):
            raise ValueError("a ray must have a nonzero component")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, ExactComplex) for c in self.components)

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

    def orthogonal_to(self, other: Ray, tol: float = DEFAULT_TOL) -> bool:
        return is_orthogonal(self, other, tol)


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


def norm2(a: Ray) -> RealScalar:
    return abs2(a.components[0]) + abs2(a.components[1]) + abs2(a.components[2])


def overlap2(a: Ray, b: Ray) -> RealScalar:
    """Normalized squared overlap |<a|b>|^2 / (<a|a><b|b>) in [0, 1].

    Invariant under independent nonzero rescaling of either ray; exact when
    both rays are exact.
    """
    return abs2(inner(a, b)) / (norm2(a) * norm2(b))


def is_orthogonal(a: Ray, b: Ray, tol: float = DEFAULT_TOL) -> bool:
    """Exact zero test for exact rays; overlap2 < tol^2 for float rays."""
    if a.is_exact and b.is_exact:
        return not inner(a, b)
    return overlap2(a, b) < tol * tol
