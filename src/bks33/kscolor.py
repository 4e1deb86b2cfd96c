"""Two-color (green/red) constraint engine for the 33-ray non-colorability proof.

A complete coloring is valid iff every triad holds exactly one green ray and
every dyad at most one.  Propagation applies two rules to a fixpoint:

  (i)  a green ray turns every triad-mate and dyad-partner red;
  (ii) a triad with two reds turns its remaining member green.

Rule (i) runs eagerly after every assignment; rule (ii) fires one triad at a
time in constraint order.  That makes traces deterministic and reproduces
the documented forcing chain step for step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Union

from .orthograph import (
    Catalog,
    IndexPermutation,
    OrthoGraph,
    ROTATION_111,
    RotationMatrix,
    X_AXIS_ROTATIONS,
    build_graph,
    decompose,
    induced_permutation,
    is_automorphism,
)


class Color(Enum):
    GREEN = "green"
    RED = "red"


Coloring = dict[int, Color]
Constraint = tuple[int, ...]


class ReplayDivergenceError(RuntimeError):
    """Raised when propagation fails to force the documented proof chain."""


class UncolorableDeletionError(RuntimeError):
    """Raised when a single-deletion instance admits no valid coloring."""


def _by_member(
    constraints: tuple[Constraint, ...], vertices: frozenset[int]
) -> dict[int, tuple[Constraint, ...]]:
    """The constraints through each vertex, in constraint order."""
    by: dict[int, list[Constraint]] = {v: [] for v in vertices}
    for c in constraints:
        for m in c:
            by[m].append(c)
    return {v: tuple(cs) for v, cs in by.items()}


@dataclass(frozen=True)
class ConstraintSet:
    """Exactly-one-green triads plus at-most-one-green pairs over a vertex set."""

    exactly_one: tuple[Constraint, ...]
    at_most_one: tuple[Constraint, ...]
    vertices: frozenset[int]

    @classmethod
    def from_graph(cls, g: OrthoGraph) -> ConstraintSet:
        d = decompose(g)
        return cls(d.triads, d.dyads, g.vertices)

    @cached_property
    def _exactly_one_by_member(self) -> dict[int, tuple[Constraint, ...]]:
        return _by_member(self.exactly_one, self.vertices)

    @cached_property
    def _at_most_one_by_member(self) -> dict[int, tuple[Constraint, ...]]:
        return _by_member(self.at_most_one, self.vertices)

    def triads_of(self, v: int) -> tuple[Constraint, ...]:
        return self._exactly_one_by_member.get(v, ())

    def pairs_of(self, v: int) -> tuple[Constraint, ...]:
        return self._at_most_one_by_member.get(v, ())


@dataclass(frozen=True)
class Contradiction:
    """Witness that a partial coloring violates the constraints."""

    kind: str  # "all_red" or "two_greens"
    constraint: Constraint


@dataclass(frozen=True)
class Forced:
    ray: int
    color: Color
    constraint: Constraint


@dataclass(frozen=True)
class Choice:
    greens: tuple[int, ...]
    why: str


Step = Union[Choice, Forced]


@dataclass(frozen=True)
class Propagation:
    """Fixpoint coloring, the forced steps that produced it, and any witness."""

    coloring: Coloring
    steps: tuple[Forced, ...]
    contradiction: Contradiction | None


def propagate(coloring: Mapping[int, Color], cs: ConstraintSet) -> Propagation:
    """Run both rules to a fixpoint from the given assignments.

    A conflict is reported as a witness, never raised: an all-red triad, or
    a triad/dyad holding two greens.
    """
    col: Coloring = dict(coloring)
    forced: list[Forced] = []
    queue: deque[int] = deque(sorted(col))
    contradiction: Contradiction | None = None

    def force(ray: int, color: Color, constraint: Constraint) -> None:
        nonlocal contradiction
        current = col.get(ray)
        if current is color:
            return
        if current is not None:
            # forcing red onto a green means the constraint holds two
            # greens; forcing green onto a red means the triad is all red
            kind = "two_greens" if color is Color.RED else "all_red"
            contradiction = Contradiction(kind, constraint)
            return
        col[ray] = color
        forced.append(Forced(ray, color, constraint))
        queue.append(ray)

    def drain() -> None:
        nonlocal contradiction
        while queue and contradiction is None:
            ray = queue.popleft()
            if col[ray] is Color.GREEN:
                for t in cs.triads_of(ray):
                    for m in t:
                        if m != ray:
                            force(m, Color.RED, t)
                        if contradiction:
                            return
                for p in cs.pairs_of(ray):
                    for m in p:
                        if m != ray:
                            force(m, Color.RED, p)
                        if contradiction:
                            return
            else:
                for t in cs.triads_of(ray):
                    if any(col.get(m) is Color.GREEN for m in t):
                        continue
                    if all(col.get(m) is Color.RED for m in t):
                        contradiction = Contradiction("all_red", t)
                        return

    while contradiction is None:
        drain()
        if contradiction is not None:
            break
        fired = False
        for t in cs.exactly_one:
            if any(col.get(m) is Color.GREEN for m in t):
                continue
            open_members = [m for m in t if m not in col]
            if len(open_members) == 1:
                force(open_members[0], Color.GREEN, t)
                fired = True
                break
        if not fired:
            break

    return Propagation(col, tuple(forced), contradiction)


@dataclass(frozen=True)
class SearchResult:
    coloring: Coloring | None
    nodes: int


def search(cs: ConstraintSet) -> SearchResult:
    """Complete backtracking search with propagation at every node.

    Branches on the green member of the open triad with the fewest
    undecided members; once every triad holds a green, the remaining rays
    are red.  Returns None only after the whole choice tree is exhausted.
    """
    nodes = 0

    def recurse(coloring: Coloring) -> Coloring | None:
        nonlocal nodes
        nodes += 1
        prop = propagate(coloring, cs)
        if prop.contradiction is not None:
            return None
        col = prop.coloring
        open_triads = [
            t for t in cs.exactly_one
            if not any(col.get(m) is Color.GREEN for m in t)
        ]
        if not open_triads:
            full = dict(col)
            for v in cs.vertices:
                full.setdefault(v, Color.RED)
            return full
        t = min(open_triads, key=lambda t: (sum(1 for m in t if m not in col), t))
        for m in t:
            if m not in col:
                found = recurse({**col, m: Color.GREEN})
                if found is not None:
                    return found
        return None

    return SearchResult(recurse({}), nodes)


def validate_coloring(coloring: Mapping[int, Color], cs: ConstraintSet) -> bool:
    """Check a coloring against nothing but the validity definition."""
    if set(coloring) != cs.vertices:
        return False
    for t in cs.exactly_one:
        if sum(1 for m in t if coloring[m] is Color.GREEN) != 1:
            return False
    for p in cs.at_most_one:
        if sum(1 for m in p if coloring[m] is Color.GREEN) > 1:
            return False
    return True


@dataclass(frozen=True)
class ProofTrace:
    """Ordered record of choices, forced colorings, and the final witness."""

    steps: tuple[Step, ...]
    contradiction: Contradiction | None

    @property
    def green_rays(self) -> frozenset[int]:
        greens: set[int] = set()
        for step in self.steps:
            if isinstance(step, Choice):
                greens.update(step.greens)
            elif step.color is Color.GREEN:
                greens.add(step.ray)
        return frozenset(greens)

    @property
    def choice_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, Choice))


# The documented seven-green proof: first choice and its forced reds,
# second choice, the forced greens, and the terminal all-red triad.
_PROOF_FIRST_GREEN = 1
_PROOF_FIRST_REDS = frozenset({2, 3, 4, 5, 26, 29, 30, 33})
_PROOF_SECOND_GREENS = (10, 11)
_PROOF_FORCED_GREENS = frozenset({6, 27, 28, 31})
_PROOF_CONTRADICTION: Constraint = (7, 15, 16)

#: Greens of the known valid coloring once ray 1 is deleted.
KNOWN_DELETE1_GREENS = frozenset({2, 4, 8, 12, 14, 16, 19, 23, 27})


def replay_proof(cs: ConstraintSet) -> ProofTrace:
    """Mechanically replay the two-choice, seven-green non-colorability proof.

    Choice one colors ray 1 green (any other first pick maps to it under the
    body-diagonal rotation); choice two colors the pair (10, 11) green (the
    x-axis rotations map the alternative pairs to it).  Everything else is
    forced.  Raises ReplayDivergenceError if propagation does not reproduce
    the documented chain.
    """
    steps: list[Step] = []

    steps.append(Choice((_PROOF_FIRST_GREEN,), "symmetry: rotation about the body diagonal"))
    first = propagate({_PROOF_FIRST_GREEN: Color.GREEN}, cs)
    if first.contradiction is not None:
        raise ReplayDivergenceError("first choice already contradictory")
    reds = {r for r, c in first.coloring.items() if c is Color.RED}
    greens = {r for r, c in first.coloring.items() if c is Color.GREEN}
    if reds != _PROOF_FIRST_REDS or greens != {_PROOF_FIRST_GREEN}:
        raise ReplayDivergenceError(
            f"first choice forced {sorted(reds)}, expected {sorted(_PROOF_FIRST_REDS)}"
        )
    steps.extend(first.steps)

    steps.append(Choice(_PROOF_SECOND_GREENS, "symmetry: quarter/half turns about the x-axis"))
    start = dict(first.coloring)
    for ray in _PROOF_SECOND_GREENS:
        start[ray] = Color.GREEN
    final = propagate(start, cs)
    steps.extend(final.steps)

    if final.contradiction is None:
        raise ReplayDivergenceError("documented choices did not reach a contradiction")
    if final.contradiction.kind != "all_red" or tuple(
        sorted(final.contradiction.constraint)
    ) != _PROOF_CONTRADICTION:
        raise ReplayDivergenceError(
            f"unexpected contradiction witness {final.contradiction}"
        )
    forced_greens = {s.ray for s in final.steps if s.color is Color.GREEN}
    if forced_greens != _PROOF_FORCED_GREENS:
        raise ReplayDivergenceError(
            f"forced greens {sorted(forced_greens)}, expected {sorted(_PROOF_FORCED_GREENS)}"
        )

    trace = ProofTrace(tuple(steps), final.contradiction)
    if trace.green_rays != {_PROOF_FIRST_GREEN, *_PROOF_SECOND_GREENS} | _PROOF_FORCED_GREENS:
        raise ReplayDivergenceError("green set diverges from the documented proof")
    return trace


#: Alternative second-choice pairs and the picked one they must map onto.
ALTERNATIVE_SECOND_PAIRS: tuple[frozenset[int], ...] = (
    frozenset({10, 12}), frozenset({13, 12}), frozenset({11, 13}),
)
_PICKED_SECOND_PAIR = frozenset({10, 11})


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of checking that the two proof choices lose no generality."""

    body_diagonal_is_automorphism: bool
    body_diagonal_cycles_first_triad: bool
    x_rotation_automorphisms: dict[int, bool]
    pair_rotations: dict[frozenset[int], int | None]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_symmetry_reduction(catalog: Catalog, g: OrthoGraph | None = None) -> SymmetryReport:
    """Check the symmetry claims behind the two-choice proof.

    Confirms that the body-diagonal rotation is a graph automorphism cycling
    rays 1 -> 2 -> 3 -> 1, and that each alternative second-choice pair maps
    onto (10, 11) under some x-axis rotation that fixes ray 1 and permutes
    the eight rays forced red by the first choice among themselves.
    """
    if g is None:
        g = build_graph(catalog)
    failures: list[str] = []

    perm111 = induced_permutation(ROTATION_111, catalog)
    body_auto = is_automorphism(perm111, g)
    if not body_auto:
        failures.append("body-diagonal permutation is not an automorphism")
    cycles = perm111[1] == 2 and perm111[2] == 3 and perm111[3] == 1
    if not cycles:
        failures.append("body-diagonal rotation does not cycle rays 1, 2, 3")

    red_set = g.neighbors(1)
    x_perms: dict[int, IndexPermutation] = {}
    x_autos: dict[int, bool] = {}
    for angle, rotation in X_AXIS_ROTATIONS.items():
        perm = induced_permutation(rotation, catalog)
        x_perms[angle] = perm
        x_autos[angle] = is_automorphism(perm, g)
        if not x_autos[angle]:
            failures.append(f"x-axis {angle} degree permutation is not an automorphism")

    pair_rotations: dict[frozenset[int], int | None] = {}
    for pair in ALTERNATIVE_SECOND_PAIRS:
        found: int | None = None
        for angle in sorted(x_perms):
            perm = x_perms[angle]
            if (
                perm[1] == 1
                and frozenset(perm[m] for m in pair) == _PICKED_SECOND_PAIR
                and frozenset(perm[r] for r in red_set) == red_set
            ):
                found = angle
                break
        pair_rotations[pair] = found
        if found is None:
            failures.append(f"no x-axis rotation maps {sorted(pair)} onto (10, 11)")

    return SymmetryReport(
        body_diagonal_is_automorphism=body_auto,
        body_diagonal_cycles_first_triad=cycles,
        x_rotation_automorphisms=x_autos,
        pair_rotations=pair_rotations,
        failures=tuple(failures),
    )


def criticality_audit(g: OrthoGraph) -> dict[int, Coloring]:
    """Search a valid coloring for every single-vertex deletion.

    Each deletion demotes the triads through the deleted ray to at-most-one
    pairs over the survivors, which is exactly what re-deriving constraints
    from the reduced graph produces.  Every returned coloring is re-checked
    by the independent validator; an uncolorable deletion raises.
    """
    results: dict[int, Coloring] = {}
    for v in sorted(g.vertices):
        reduced = ConstraintSet.from_graph(g.delete_vertex(v))
        coloring = search(reduced).coloring
        if coloring is None or not validate_coloring(coloring, reduced):
            raise UncolorableDeletionError(
                f"deleting ray {v} leaves no valid coloring"
            )
        results[v] = coloring
    return results


def coloring_from_greens(greens: Iterable[int], vertices: Iterable[int]) -> Coloring:
    """Complete coloring with the given greens and every other vertex red."""
    green_set = set(greens)
    return {
        v: Color.GREEN if v in green_set else Color.RED for v in vertices
    }
