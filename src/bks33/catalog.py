"""The three 33-ray catalogs and the maps connecting them.

* the real set: 33 rays with components in {0, +-1, +-sqrt2}, transcribed
  verbatim (``+-2`` in the integer tables below encodes ``+-sqrt2``);
* the complex set: 33 spin-1 rays given by unordered pairs of M-vectors
  with components in {0, +-1};
* the three-phase family containing both, built from unit-modulus scalars
  a, b and c/sqrt2 plus the derived k = -a*conj(b)*c/conj(c).

Catalog functions return lists ordered by the 1-based index, which each
entry also carries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .majorana import MPair, MVector, mpair_from_state, SpinState
from .rays import Ray
from .scalar import ExactComplex, QRoot2, Scalar

_HALF_PI = math.pi / 2.0


class RayClass(Enum):
    """The four symmetry classes of the shared cubic geometry."""

    FACE_AXES = "face_axes"                     # 1-3
    EDGE_AXES = "edge_axes"                     # 4-9
    DOUBLED_EDGES = "doubled_edges"             # 10-21
    FACE_OPPOSITE_EDGES = "face_opposite_edges"  # 22-33


def class_of(index: int) -> RayClass:
    """Class of a catalog index; the classes partition 1..33 as 3/6/12/12."""
    if 1 <= index <= 3:
        return RayClass.FACE_AXES
    if 4 <= index <= 9:
        return RayClass.EDGE_AXES
    if 10 <= index <= 21:
        return RayClass.DOUBLED_EDGES
    if 22 <= index <= 33:
        return RayClass.FACE_OPPOSITE_EDGES
    raise ValueError(f"catalog index must be in 1..33, got {index}")


# Real catalog, one triple per index 1..33; +-2 encodes +-sqrt2.
_REAL_TABLE: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, -1, 0), (1, 1, 0),
    (2, -1, 1), (2, 1, 1), (2, -1, -1), (2, 1, -1),
    (-1, 2, 1), (1, 2, 1), (-1, 2, -1), (1, 2, -1),
    (1, 1, 2), (-1, 1, 2), (1, -1, 2), (-1, -1, 2),
    (1, 0, 2), (-1, 2, 0), (1, 2, 0), (-1, 0, 2), (0, 1, 2),
    (2, -1, 0), (2, 1, 0), (0, -1, 2), (0, 2, 1),
    (2, 0, 1), (2, 0, -1), (0, 2, -1),
)

# M-vector pairs, one per index 1..33; components are plain signs.
_MPAIR_TABLE: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] = (
    ((1, 0, 0), (-1, 0, 0)),
    ((0, 1, 0), (0, -1, 0)),
    ((0, 0, 1), (0, 0, -1)),
    ((0, 1, 1), (0, -1, -1)),
    ((0, 1, -1), (0, -1, 1)),
    ((1, 0, 1), (-1, 0, -1)),
    ((1, 0, -1), (-1, 0, 1)),
    ((1, 1, 0), (-1, -1, 0)),
    ((1, -1, 0), (-1, 1, 0)),
    ((0, 1, 1), (0, 1, 1)),
    ((0, 1, -1), (0, 1, -1)),
    ((0, -1, 1), (0, -1, 1)),
    ((0, -1, -1), (0, -1, -1)),
    ((1, 0, 1), (1, 0, 1)),
    ((1, 0, -1), (1, 0, -1)),
    ((-1, 0, 1), (-1, 0, 1)),
    ((-1, 0, -1), (-1, 0, -1)),
    ((1, 1, 0), (1, 1, 0)),
    ((1, -1, 0), (1, -1, 0)),
    ((-1, 1, 0), (-1, 1, 0)),
    ((-1, -1, 0), (-1, -1, 0)),
    ((0, 1, 1), (0, 1, -1)),
    ((0, 1, 1), (0, -1, 1)),
    ((0, -1, -1), (0, 1, -1)),
    ((0, -1, -1), (0, -1, 1)),
    ((1, 0, 1), (1, 0, -1)),
    ((1, 0, 1), (-1, 0, 1)),
    ((-1, 0, -1), (1, 0, -1)),
    ((-1, 0, -1), (-1, 0, 1)),
    ((1, 1, 0), (1, -1, 0)),
    ((1, 1, 0), (-1, 1, 0)),
    ((-1, -1, 0), (1, -1, 0)),
    ((-1, -1, 0), (-1, 1, 0)),
)


def _exact_entry(n: int) -> ExactComplex:
    if n in (2, -2):
        return ExactComplex(QRoot2(0, n // 2))
    return ExactComplex(n)


def peres_rays() -> list[Ray]:
    """The 33 real rays, with exact components."""
    return [
        Ray(tuple(_exact_entry(n) for n in row), index=i)
        for i, row in enumerate(_REAL_TABLE, start=1)
    ]


def penrose_mpairs() -> list[MPair]:
    """The 33 complex rays as unordered M-vector pairs (exact directions)."""
    pairs = []
    for first, second in _MPAIR_TABLE:
        pairs.append(MPair(MVector(*first), MVector(*second)))
    return pairs


@dataclass(frozen=True)
class FamilyParams:
    """Free phases of the three-parameter family.

    The family scalars are a = e^{i alpha}, b = e^{i beta} and
    c = sqrt2 * e^{i gamma}; their moduli are fixed at 1, 1, sqrt2.  Phases
    within 1e-12 of a multiple of pi/2 are evaluated exactly in Q(sqrt2, i).
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    @classmethod
    def peres_point(cls) -> FamilyParams:
        """Phases giving a = 1, b = 1, c = sqrt2: the real catalog."""
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def penrose_point(cls) -> FamilyParams:
        """Phases giving a = -i, b = -1, c = -sqrt2: the complex catalog."""
        return cls(-_HALF_PI, math.pi, math.pi)

    def scalars(self) -> tuple[Scalar, Scalar, Scalar]:
        """(a, b, c), exact when all three phases sit on quarter turns."""
        turns = [_quarter_turns(p) for p in (self.alpha, self.beta, self.gamma)]
        if all(t is not None for t in turns):
            i_pow = (ExactComplex.one(), ExactComplex.i(),
                     -ExactComplex.one(), -ExactComplex.i())
            a = i_pow[turns[0]]
            b = i_pow[turns[1]]
            c = ExactComplex.sqrt2() * i_pow[turns[2]]
            return a, b, c
        return (
            cmath.exp(1j * self.alpha),
            cmath.exp(1j * self.beta),
            math.sqrt(2.0) * cmath.exp(1j * self.gamma),
        )


def _quarter_turns(phase: float) -> int | None:
    m = phase / _HALF_PI
    r = round(m)
    if abs(m - r) < 1e-12:
        return r % 4
    return None


def family_k(a: Scalar, b: Scalar, c: Scalar) -> Scalar:
    """The derived unit-modulus scalar k = -a * conj(b) * c / conj(c)."""
    return -(a * b.conjugate() * c) / c.conjugate()


def _family_components(
    a: Scalar, b: Scalar, c: Scalar
) -> list[tuple[Scalar, Scalar, Scalar]]:
    one: Scalar
    zero: Scalar
    if isinstance(a, ExactComplex):
        one, zero = ExactComplex.one(), ExactComplex.zero()
    else:
        one, zero = complex(1.0), complex(0.0)
    k = family_k(a, b, c)
    astar, bstar, cstar, kstar = (
        a.conjugate(), b.conjugate(), c.conjugate(), k.conjugate(),
    )
    return [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (zero, one, a),
        (zero, astar, -one),
        (one, zero, b),
        (bstar, zero, -one),
        (one, k, zero),
        (kstar, -one, zero),
        (astar * cstar, -astar, one),
        (cstar, one, a),
        (-cstar, one, a),
        (astar * cstar, astar, -one),
        (-bstar, bstar * c, one),
        (one, c, b),
        (one, -c, b),
        (bstar, bstar * c, -one),
        (-kstar, one, b * cstar),
        (one, k, -(a * c)),
        (one, k, a * c),
        (kstar, -one, b * cstar),
        (one, zero, a * c),
        (one, -c, zero),
        (one, c, zero),
        (one, zero, -(a * c)),
        (zero, one, b * cstar),
        (-cstar, one, zero),
        (cstar, one, zero),
        (zero, one, -(b * cstar)),
        (zero, bstar * c, one),
        (astar * cstar, zero, one),
        (-(astar * cstar), zero, one),
        (zero, -(bstar * c), one),
    ]


def family_rays(params: FamilyParams) -> list[Ray]:
    """The 33 family rays at the given phases.

    Exact on quarter-turn phases (which covers both named special points),
    floating otherwise.
    """
    a, b, c = params.scalars()
    return [
        Ray(row, index=i)
        for i, row in enumerate(_family_components(a, b, c), start=1)
    ]


def _recovery_rotation() -> tuple[tuple[ExactComplex, ...], ...]:
    s = QRoot2(0, Fraction(1, 2))          # 1/sqrt2
    scaled_one = ExactComplex(s)
    zero = ExactComplex.zero()
    return (
        (scaled_one, scaled_one, zero),
        (zero, zero, ExactComplex(QRoot2.sqrt2() * s)),
        (-scaled_one, scaled_one, zero),
    )


#: Unitary change of basis applied to the family at the complex special
#: point before M-vector extraction.  The matrix with rows (1, 1, 0),
#: (0, 0, sqrt2), (-1, 1, 0) is sqrt2 times a unitary, so it is scaled by
#: 1/sqrt2 here; projective results are unaffected.
RECOVERY_ROTATION: tuple[tuple[ExactComplex, ...], ...] = _recovery_rotation()


def penrose_from_family() -> list[Ray]:
    """Family rays at the complex special point, in the M-extraction basis.

    Feeding these through Majorana root extraction reproduces the catalog
    M-vector pairs.
    """
    base = family_rays(FamilyParams.penrose_point())
    out = []
    for ray in base:
        v = ray.components
        rotated = tuple(
            row[0] * v[0] + row[1] * v[1] + row[2] * v[2]
            for row in RECOVERY_ROTATION
        )
        out.append(Ray(rotated, index=ray.index))
    return out


def recovered_penrose_mpairs() -> list[MPair]:
    """M-vector pairs extracted from the rotated family rays (floating)."""
    pairs = []
    for ray in penrose_from_family():
        c = [complex(comp) for comp in ray.components]
        pairs.append(mpair_from_state(SpinState(c[0], c[1], c[2])))
    return pairs
