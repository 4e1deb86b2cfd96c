"""The three 33-ray catalogs and the maps connecting them.

* the real set: 33 rays with components in {0, +-1, +-sqrt2}, transcribed
  verbatim (``+-2`` in the integer tables below encodes ``+-sqrt2``);
* the complex set: 33 spin-1 rays given by unordered pairs of M-vectors
  with components in {0, +-1};
* the three-phase family containing both.  Each family component is the
  matching real entry times a monomial in the unit phases e^{i alpha},
  e^{i beta} and e^{i gamma}, whose exponents are listed in
  ``_PHASE_TABLE``; at zero phases the family is the real set verbatim.

Catalog functions return lists ordered by the 1-based index, which each
entry also carries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .majorana import MPair, MVector, mpair_from_state
from .rays import Ray
from .scalar import ExactComplex, QRoot2

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

# Family phases, aligned with _REAL_TABLE: component j of ray i is the real
# entry times e^{i(x*alpha + y*beta + z*gamma)} for (x, y, z) =
# _PHASE_TABLE[i][j].  Zero entries carry (0, 0, 0).  Ray 8 is (1, k, 0) with
# k = -e^{i(alpha - beta + 2*gamma)}.
_PHASE_TABLE: tuple[tuple[tuple[int, int, int], ...], ...] = (
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    ((0, 0, 0), (-1, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 1, 0)),
    ((0, -1, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (1, -1, 2), (0, 0, 0)),
    ((-1, 1, -2), (0, 0, 0), (0, 0, 0)),
    ((-1, 0, -1), (-1, 0, 0), (0, 0, 0)),
    ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    ((-1, 0, -1), (-1, 0, 0), (0, 0, 0)),
    ((0, -1, 0), (0, -1, 1), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, -1, 0), (0, -1, 1), (0, 0, 0)),
    ((-1, 1, -2), (0, 0, 0), (0, 1, -1)),
    ((0, 0, 0), (1, -1, 2), (1, 0, 1)),
    ((0, 0, 0), (1, -1, 2), (1, 0, 1)),
    ((-1, 1, -2), (0, 0, 0), (0, 1, -1)),
    ((0, 0, 0), (0, 0, 0), (1, 0, 1)),
    ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (1, 0, 1)),
    ((0, 0, 0), (0, 0, 0), (0, 1, -1)),
    ((0, 0, -1), (0, 0, 0), (0, 0, 0)),
    ((0, 0, -1), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 1, -1)),
    ((0, 0, 0), (0, -1, 1), (0, 0, 0)),
    ((-1, 0, -1), (0, 0, 0), (0, 0, 0)),
    ((-1, 0, -1), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, -1, 1), (0, 0, 0)),
)

#: Each distinct exponent vector of _PHASE_TABLE with the factors of its
#: monomial: index j < 3 is unit phase j, index j + 3 its conjugate.
_MONOMIALS = {
    e: tuple(j if n > 0 else j + 3 for j, n in enumerate(e) for _ in range(abs(n)))
    for e in sorted({e for row in _PHASE_TABLE for e in row})
}
#: The 21 distinct (entry, exponents) pairs; each ray as three indices into them.
_TERMS = sorted({t for row, phases in zip(_REAL_TABLE, _PHASE_TABLE) for t in zip(row, phases)})
_RAY_TERMS = [tuple(map(_TERMS.index, zip(row, phases)))
              for row, phases in zip(_REAL_TABLE, _PHASE_TABLE)]

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


#: The value of each integer table entry; +-2 encodes +-sqrt2.
_EXACT_ENTRIES = {n: ExactComplex(QRoot2(0, n // 2) if n in (2, -2) else n) for n in range(-2, 3)}
_FLOAT_ENTRIES = {n: complex(value) for n, value in _EXACT_ENTRIES.items()}


def peres_rays() -> list[Ray]:
    """The 33 real rays, with exact components."""
    return [
        Ray(tuple(_EXACT_ENTRIES[n] for n in row), index=i)
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
    """Free phases (alpha, beta, gamma) of the three-phase family.

    ``family_rays`` multiplies each ``_REAL_TABLE`` entry by the monomial in
    e^{i alpha}, e^{i beta}, e^{i gamma} that ``_PHASE_TABLE`` lists for it.
    A phase is a quarter turn when its unit phase lies within
    (pi/2) * 1e-12 of 1, i, -1 or -i; when all three are, the family is
    evaluated exactly in Q(sqrt2, i).  Phases must be finite.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def peres_point(cls) -> FamilyParams:
        """Zero phases: the real catalog, entry for entry."""
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def penrose_point(cls) -> FamilyParams:
        """Phases (-pi/2, pi, pi): the complex catalog."""
        return cls(-_HALF_PI, math.pi, math.pi)


_I_POWERS = (ExactComplex.one(), ExactComplex.i(), -ExactComplex.one(), -ExactComplex.i())


def _quarter_turns(unit: complex) -> int | None:
    """t when the unit phase e^{i phi} lies within (pi/2) * 1e-12 of i**t, else
    None.  Not decided from phi / (pi/2), an integer for every phi beyond 2**52."""
    for t, power in enumerate((1, 1j, -1, -1j)):
        if abs(unit - power) < _HALF_PI * 1e-12:
            return t
    return None


def family_rays(params: FamilyParams) -> list[Ray]:
    """The 33 family rays at the given phases.

    Exact on quarter-turn phases (which covers both named special points),
    floating otherwise.
    """
    units = [cmath.exp(1j * p) for p in (params.alpha, params.beta, params.gamma)]
    turns = [_quarter_turns(u) for u in units]
    entries = _FLOAT_ENTRIES
    if None not in turns:
        units = [_I_POWERS[t] for t in turns]
        entries = _EXACT_ENTRIES
    # products of unit phases, never exp(alpha + gamma): a large alpha swamps gamma
    factors = units + [u.conjugate() for u in units]
    monomials = {}
    for exponents, indices in _MONOMIALS.items():
        m = entries[1]
        for j in indices:
            m = m * factors[j]
        monomials[exponents] = m
    terms = [entries[n] * monomials[e] for n, e in _TERMS]
    return [
        Ray((terms[j0], terms[j1], terms[j2]), index=i)
        for i, (j0, j1, j2) in enumerate(_RAY_TERMS, start=1)
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
    return [mpair_from_state(r) for r in penrose_from_family()]
