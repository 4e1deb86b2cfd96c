"""Two-color (green/red) constraint engine for the 33-ray non-colorability proof.

A complete coloring is valid iff every triad holds exactly one green ray and
every dyad at most one.  Propagation applies two rules to a fixpoint:

  (i)  a green ray turns every triad-mate and dyad-partner red;
  (ii) a triad with two reds turns its remaining member green.

Rule (i) runs eagerly after every assignment; rule (ii) fires one triad at a
time in constraint order.  That makes traces deterministic and reproduces
the documented forcing chain step for step.

Inside the engine a partial coloring is two Python-int bitmasks, ``green``
and ``red``, bit v standing for ray v.  ``propagate`` and ``search`` each
compile the constraint set's triads and dyads to masks and run the same
fixpoint on them, with the rules in the order above.  A partial
coloring is a dict only where it enters or leaves ``propagate``; a complete
coloring is its set of green rays, every other ray being red.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Union

from .orthograph import (
    Catalog,
    ConstraintSet,
    IndexPermutation,
    OrthoGraph,
    ROTATION_111,
    X_AXIS_ROTATIONS,
    decompose,
    induced_permutation,
    is_automorphism,
)


class Color(str, Enum):  # a str, so json writes "green" and "red"
    GREEN = "green"
    RED = "red"


Coloring = dict[int, Color]
Constraint = tuple[int, ...]


class _Compiled(NamedTuple):
    """The fixpoint's table: per vertex, its constraints (triads before
    dyads, in constraint order) with their other members, and its triads
    as (mask, triad); every triad as (mask, triad), in constraint order."""

    constraints_through: dict[int, list[tuple[Constraint, Constraint]]]
    triads_through: dict[int, list[tuple[int, Constraint]]]
    triads: tuple[tuple[int, Constraint], ...]


def _compile(cs: ConstraintSet) -> _Compiled:
    # Each triad a, b, c and dyad a, b is unpacked, its mates appended as
    # tuple displays to per-vertex lists that are kept as built: no tuple
    # comes from a slice, a copy or a generator, which CPython resizes
    # and, once freed, keeps in its per-size tuple free lists.
    constraints: dict[int, list] = {v: [] for v in cs.vertices}
    through: dict[int, list] = {v: [] for v in cs.vertices}
    triads = []
    for t in cs.triads:
        a, b, c = t
        entry = ((1 << a) + (1 << b) + (1 << c), t)
        triads.append(entry)
        constraints[a].append((t, (b, c)))
        constraints[b].append((t, (a, c)))
        constraints[c].append((t, (a, b)))
        through[a].append(entry)
        through[b].append(entry)
        through[c].append(entry)
    for p in cs.dyads:
        a, b = p
        constraints[a].append((p, (b,)))
        constraints[b].append((p, (a,)))
    return _Compiled(constraints, through, tuple(triads))


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

    A conflict is reported as a witness, not as an exception: an all-red
    triad, or a triad/dyad holding two greens.
    """
    queue = sorted(r for r in coloring if r in cs.vertices)
    green = sum(1 << r for r in queue if coloring[r] is Color.GREEN)
    red = sum(1 << r for r in queue if coloring[r] is not Color.GREEN)
    steps: list[_Step] = []
    _, _, witness = _fixpoint(_compile(cs), green, red, queue, steps)
    col: Coloring = dict(coloring)
    for ray, color, _ in steps:
        col[ray] = color
    return Propagation(col, tuple([Forced(*step) for step in steps]),
                       None if witness is None else Contradiction(*witness))


@dataclass(frozen=True)
class SearchResult:
    coloring: frozenset[int] | None  # the green rays
    nodes: int


def search(cs: ConstraintSet) -> SearchResult:
    """Complete backtracking search with propagation at every node.

    Branches on the green member of the open triad with the fewest
    undecided members; once every triad holds a green, the remaining rays
    are red.  Returns None only after the whole choice tree is exhausted.
    """
    trail: list[_Step] = []
    found, nodes = _descend(_compile(cs), 0, 0, [], trail)
    if not found:
        return SearchResult(None, nodes)
    greens = frozenset(ray for ray, color, _ in trail if color is Color.GREEN)
    return SearchResult(greens, nodes)


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


def validate_coloring(greens: frozenset[int], cs: ConstraintSet) -> bool:
    """Check the coloring with these green rays, every other vertex red,
    against nothing but the validity definition."""
    if not greens <= cs.vertices:
        return False
    for t in cs.triads:
        if sum(1 for m in t if m in greens) != 1:
            return False
    for p in cs.dyads:
        if sum(1 for m in p if m in greens) > 1:
            return False
    return True


@dataclass(frozen=True)
class ProofTrace:
    """Ordered record of choices, forced colorings, and the final witness;
    ``divergence`` names the first documented fact the replay did not
    reproduce, or is None."""

    steps: tuple[Step, ...]
    contradiction: Contradiction | None
    divergence: str | None

    @property
    def green_rays(self) -> frozenset[int]:
        greens: set[int] = set()
        for step in self.steps:
            if isinstance(step, Choice):
                greens.update(step.greens)
            elif step.color is Color.GREEN:
                greens.add(step.ray)
        return frozenset(greens)


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
    forced.  The trace stops at the first documented fact that propagation
    does not reproduce, and names it in ``divergence``.
    """
    steps: list[Step] = []

    steps.append(Choice((_PROOF_FIRST_GREEN,), "symmetry: rotation about the body diagonal"))
    first = propagate({_PROOF_FIRST_GREEN: Color.GREEN}, cs)
    steps.extend(first.steps)
    if first.contradiction is not None:
        return ProofTrace(tuple(steps), first.contradiction, "first choice already contradictory")
    forced = {step.ray: step.color for step in first.steps}
    if forced != dict.fromkeys(_PROOF_FIRST_REDS, Color.RED):
        return ProofTrace(tuple(steps), None, (
            f"first choice forced {sorted(forced)}, expected reds {sorted(_PROOF_FIRST_REDS)}"
        ))

    steps.append(Choice(_PROOF_SECOND_GREENS, "symmetry: quarter/half turns about the x-axis"))
    final = propagate({**first.coloring, **dict.fromkeys(_PROOF_SECOND_GREENS, Color.GREEN)}, cs)
    steps.extend(final.steps)

    witness = final.contradiction
    forced_greens = {step.ray for step in final.steps if step.color is Color.GREEN}
    divergence = None
    if witness is None:
        divergence = "documented choices did not reach a contradiction"
    elif witness.kind != "all_red" or tuple(sorted(witness.constraint)) != _PROOF_CONTRADICTION:
        divergence = f"unexpected contradiction witness {witness}"
    elif forced_greens != _PROOF_FORCED_GREENS:
        divergence = (
            f"forced greens {sorted(forced_greens)}, expected {sorted(_PROOF_FORCED_GREENS)}"
        )
    return ProofTrace(tuple(steps), witness, divergence)


#: Alternative second-choice pairs, each mapped onto _PROOF_SECOND_GREENS.
ALTERNATIVE_SECOND_PAIRS: tuple[frozenset[int], ...] = (
    frozenset({10, 12}), frozenset({13, 12}), frozenset({11, 13}),
)


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of checking that the two proof choices lose no generality."""

    pair_rotations: dict[frozenset[int], int | None]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_symmetry_reduction(catalog: Catalog, g: OrthoGraph) -> SymmetryReport:
    """Check the symmetry claims behind the two-choice proof on the
    catalog's graph ``g``.

    Confirms that the body-diagonal rotation is a graph automorphism cycling
    rays 1 -> 2 -> 3 -> 1, and that each alternative second-choice pair maps
    onto (10, 11) under some x-axis rotation that fixes ray 1 and permutes
    the eight rays forced red by the first choice among themselves.
    """
    failures: list[str] = []

    perm111 = induced_permutation(ROTATION_111, catalog)
    if not is_automorphism(perm111, g):
        failures.append("body-diagonal permutation is not an automorphism")
    if not (perm111[1] == 2 and perm111[2] == 3 and perm111[3] == 1):
        failures.append("body-diagonal rotation does not cycle rays 1, 2, 3")

    first, second = _PROOF_FIRST_GREEN, frozenset(_PROOF_SECOND_GREENS)
    red_set = g.neighbors(first)
    x_perms: dict[int, IndexPermutation] = {}
    for angle, rotation in X_AXIS_ROTATIONS.items():
        x_perms[angle] = perm = induced_permutation(rotation, catalog)
        if not is_automorphism(perm, g):
            failures.append(f"x-axis {angle} degree permutation is not an automorphism")

    pair_rotations: dict[frozenset[int], int | None] = {}
    for pair in ALTERNATIVE_SECOND_PAIRS:
        found: int | None = None
        for angle in sorted(x_perms):
            perm = x_perms[angle]
            if (
                perm[first] == first
                and frozenset(perm[m] for m in pair) == second
                and frozenset(perm[r] for r in red_set) == red_set
            ):
                found = angle
                break
        pair_rotations[pair] = found
        if found is None:
            failures.append(f"no x-axis rotation maps {sorted(pair)} onto {_PROOF_SECOND_GREENS}")

    return SymmetryReport(pair_rotations, tuple(failures))


def coloring_without(g: OrthoGraph, ray: int) -> frozenset[int] | None:
    """Search a valid coloring of ``g`` with ``ray`` deleted.

    The deletion demotes the triads through ``ray`` to dyads over the
    survivors, which is exactly what re-deriving constraints from
    the reduced graph produces.  Returns the green rays of the coloring
    found, re-checked by the independent validator, or None where no
    coloring is found or the validator rejects it.
    """
    reduced = decompose(g.delete_vertex(ray))
    greens = search(reduced).coloring
    return greens if greens is not None and validate_coloring(greens, reduced) else None


def criticality_audit(g: OrthoGraph) -> dict[int, frozenset[int] | None]:
    """``coloring_without`` for every single-vertex deletion, by ray."""
    return {v: coloring_without(g, v) for v in sorted(g.vertices)}
