"""Two-color (green/red) constraint engine for the 33-ray non-colorability proof.

A complete coloring is valid iff every triad holds exactly one green ray and
every dyad at most one.  Propagation applies two rules to a fixpoint:

  (i)  a green ray turns every triad-mate and dyad-partner red;
  (ii) a triad with two reds turns its remaining member green.

Rule (i) runs eagerly after every assignment; rule (ii) fires one triad at a
time in constraint order.  That makes traces deterministic and reproduces
the documented forcing chain step for step.

Inside the engine a partial coloring is two Python-int bitmasks, ``green``
and ``red``, bit v standing for ray v, and each constraint set compiles its
constraints to masks once.  ``propagate`` and ``search`` run the same
fixpoint on these masks, with the rules in the order above; colorings are
dicts only where they enter or leave.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Union

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


class _Compiled(NamedTuple):
    """The fixpoint's table: per vertex, its constraints (triads before
    pairs, in constraint order) with their other members, and its triads
    as (mask, triad); every triad as (mask, triad), in constraint order."""

    constraints_through: dict[int, tuple[tuple[Constraint, Constraint], ...]]
    triads_through: dict[int, tuple[tuple[int, Constraint], ...]]
    triads: tuple[tuple[int, Constraint], ...]


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
    def _compiled(self) -> _Compiled:
        # No tuple is built from a generator: CPython resizes those, and
        # once freed they pile up in its per-size tuple free lists.
        triads = tuple([(sum(1 << m for m in t), t) for t in self.exactly_one])
        constraints: dict[int, list] = {v: [] for v in self.vertices}
        through: dict[int, list] = {v: [] for v in self.vertices}
        for c in self.exactly_one + self.at_most_one:
            for i, v in enumerate(c):
                constraints[v].append((c, c[:i] + c[i + 1:]))
        for entry in triads:
            for v in entry[1]:
                through[v].append(entry)
        return _Compiled({v: tuple(cs) for v, cs in constraints.items()},
                         {v: tuple(ts) for v, ts in through.items()}, triads)


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


_Step = tuple[int, Color, Constraint | None]


def _fixpoint(
    table: _Compiled, green: int, red: int, queue: list[int], steps: list[_Step]
) -> tuple[int, int, tuple[str, Constraint] | None]:
    """Apply both rules to the masks; return them and any (kind, constraint).

    Rays in ``queue`` drain first in, first out: a green ray forces its
    mates red, member by member in constraint order; a red ray checks its
    triads for all red.  Then rule (ii) fires the first triad in constraint
    order with no green and one free member, and draining starts again.
    Forced steps are appended to ``steps``.
    """
    constraints_through, triads_through, triads = table
    while True:
        for ray in queue:  # appending while iterating: a FIFO queue
            if green >> ray & 1:
                for c, mates in constraints_through[ray]:
                    for m in mates:
                        bit = 1 << m
                        if green & bit:
                            return green, red, ("two_greens", c)
                        if not red & bit:
                            red |= bit
                            steps.append((m, Color.RED, c))
                            queue.append(m)
            else:
                for mask, t in triads_through[ray]:
                    if red & mask == mask:
                        return green, red, ("all_red", t)
        for mask, t in triads:
            if mask & green:
                continue
            free = mask & ~red
            if free and not free & (free - 1):
                ray = free.bit_length() - 1
                green |= free
                steps.append((ray, Color.GREEN, t))
                queue = [ray]
                break
        else:
            return green, red, None


def propagate(coloring: Mapping[int, Color], cs: ConstraintSet) -> Propagation:
    """Run both rules to a fixpoint from the given assignments.

    A conflict is reported as a witness, never raised: an all-red triad, or
    a triad/dyad holding two greens.
    """
    queue = sorted(r for r in coloring if r in cs.vertices)
    green = sum(1 << r for r in queue if coloring[r] is Color.GREEN)
    red = sum(1 << r for r in queue if coloring[r] is not Color.GREEN)
    steps: list[_Step] = []
    _, _, witness = _fixpoint(cs._compiled, green, red, queue, steps)
    col: Coloring = dict(coloring)
    for ray, color, _ in steps:
        col[ray] = color
    return Propagation(col, tuple([Forced(*step) for step in steps]),
                       None if witness is None else Contradiction(*witness))


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
    trail: list[_Step] = []
    found, nodes = _descend(cs._compiled, 0, 0, [], trail)
    if not found:
        return SearchResult(None, nodes)
    coloring: Coloring = {ray: color for ray, color, _ in trail}
    for v in cs.vertices:
        coloring.setdefault(v, Color.RED)
    return SearchResult(coloring, nodes)


def _descend(
    table: _Compiled, green: int, red: int, queue: list[int], trail: list[_Step]
) -> tuple[bool, int]:
    """Search below one node: whether a coloring was found, and the nodes.

    ``queue`` holds only the node's new green: the parent is a fixpoint,
    and unit propagation reaches the same fixpoint, or a conflict, in any
    order.  A coloring found is left on ``trail`` in assignment order.
    """
    green, red, witness = _fixpoint(table, green, red, queue, trail)
    if witness is not None:
        return False, 1
    done = green | red
    open_triads = [
        ((mask & ~done).bit_count(), t) for mask, t in table.triads if not mask & green
    ]
    if not open_triads:
        return True, 1
    nodes = 1
    mark = len(trail)
    for m in min(open_triads)[1]:
        if not done >> m & 1:
            trail.append((m, Color.GREEN, None))
            found, below = _descend(table, green | 1 << m, red, [m], trail)
            nodes += below
            if found:
                return True, nodes
            del trail[mark:]
    return False, nodes


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
