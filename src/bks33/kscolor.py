"""Two-color (green/red) constraint engine for the 33-ray non-colorability proof.

A complete coloring is valid iff every triad holds exactly one green ray and
every dyad at most one.  Propagation applies two rules to a fixpoint:

  (i)  a green ray turns every triad-mate and dyad-partner red;
  (ii) a triad with two reds turns its remaining member green.

Both engines close in one order, in ``_close``: rule (i) from each new
green, then rule (ii) on the first triad, in constraint order, with no green
and at most one free member; with no free member that triad is the conflict.
The scan that fires nothing also picks ``search``'s branch triad.

Inside the engine a partial coloring is two Python-int bitmasks, ``green``
and ``red``, bit v standing for ray v.  ``search`` decides on mate masks
alone.  ``propagate`` explains: its start greens force their mates red, then
it records each green ``_close`` fired and the reds that green forces, and
the all-red triad ``_close`` met.  Outside the engine a partial coloring is
its set of green rays and its set of red rays, as ``propagate`` takes and
returns them; a complete coloring is its set of green rays, every other ray
being red.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Union

from .orthograph import (
    CATALOG_SIZE,
    Catalog,
    ConstraintSet,
    IndexPermutation,
    OrthoGraph,
    decompose,
    is_automorphism,
)


class Color(str, Enum):  # a str, so json writes "green" and "red"
    GREEN = "green"
    RED = "red"


Constraint = tuple[int, ...]


class _Compiled(NamedTuple):
    """Indexed by vertex, the mask of its triad-mates and dyad-partners;
    every triad as (mask, triad), in constraint order."""

    mates: list[int]
    triads: tuple[tuple[int, Constraint], ...]


def _compile(cs: ConstraintSet) -> _Compiled:
    mates = [0] * (max(cs.vertices, default=0) + 1)
    triads = []
    for t in cs.triads:
        a, b, c = t
        bit_a, bit_b, bit_c = 1 << a, 1 << b, 1 << c
        triads.append((bit_a | bit_b | bit_c, t))
        mates[a] |= bit_b | bit_c
        mates[b] |= bit_a | bit_c
        mates[c] |= bit_a | bit_b
    for a, b in cs.dyads:
        mates[a] |= 1 << b
        mates[b] |= 1 << a
    return _Compiled(mates, tuple(triads))


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
    """Fixpoint green and red rays, the forced steps that produced them, and
    any witness."""

    greens: frozenset[int]
    reds: frozenset[int]
    steps: tuple[Forced, ...]
    contradiction: Contradiction | None


def _walk(constraints: tuple[Constraint, ...], ray: int, green: int, red: int,
          steps: list[Forced]) -> tuple[int, Constraint | None]:
    """Rule (i) from the green ``ray``: each mate not yet red, in constraint
    order, is recorded in ``steps`` and added to the red mask.  Returns that
    mask and the first constraint found holding a second green, or None."""
    for c in constraints:
        if ray in c:
            for m in c:
                if m != ray and not red >> m & 1:
                    if green >> m & 1:
                        return red, c
                    red |= 1 << m
                    steps.append(Forced(m, Color.RED, c))
    return red, None


def propagate(greens: Iterable[int], reds: Iterable[int], cs: ConstraintSet) -> Propagation:
    """Run both rules to a fixpoint from the given green and red rays.

    A conflict is reported as a witness, not as an exception: an all-red
    triad, or a triad/dyad holding two greens.  A start ray outside
    ``cs.vertices``, or given both colors, raises ``ValueError``.  Steps
    after the start greens' reds follow ``_close``, the closure of ``search``.
    """
    start_greens, start_reds = frozenset(greens), frozenset(reds)
    if outside := (start_greens | start_reds) - cs.vertices:
        raise ValueError(f"rays not in the diagram: {sorted(outside)}")
    if both := start_greens & start_reds:
        raise ValueError(f"rays given both colors: {sorted(both)}")
    constraints, table = cs.triads + cs.dyads, _compile(cs)
    green, red = sum(1 << r for r in start_greens), sum(1 << r for r in start_reds)
    steps: list[Forced] = []
    witness = None
    for ray in sorted(start_greens):
        red, clash = _walk(constraints, ray, green, red, steps)
        if clash is not None:  # only start greens can share a constraint
            witness = Contradiction("two_greens", clash)
            break
    else:
        green, _, fired, conflict, _ = _close(table, green, red, 0)
        for ray, t in fired:
            steps.append(Forced(ray, Color.GREEN, t))
            red, _ = _walk(constraints, ray, green, red, steps)
        if conflict is not None:
            witness = Contradiction("all_red", conflict)
    return Propagation(frozenset(v for v in cs.vertices if green >> v & 1),
                       frozenset(v for v in cs.vertices if red >> v & 1),
                       tuple(steps), witness)


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
    green, nodes = _descend(_compile(cs), 0, 0, 0)
    greens = None if green is None else frozenset(v for v in cs.vertices if green >> v & 1)
    return SearchResult(greens, nodes)


def _close(table: _Compiled, green: int, red: int, reds: int) -> tuple[
    int, int, list[tuple[int, Constraint]], Constraint | None, Constraint | None
]:
    """Both rules to a fixpoint from new greens whose mates are ``reds``: the
    green and red masks, each green rule (ii) fired with its triad, the
    all-red triad met, or None, and the branch triad, or None.  No mate is
    green: a new green is never red, and every green's mates are red already.

    The scan that finds no triad to fire also picks the branch triad, the
    least (free count, triad) among the triads with no green; it is None at
    a conflict or once every triad holds a green."""
    fired: list[tuple[int, Constraint]] = []
    while True:
        red |= reds
        branch, fewest = None, 4  # 4: more than any triad's free count
        for mask, t in table.triads:
            if not mask & green:
                free = mask & ~red
                if not free & (free - 1):
                    if not free:
                        return green, red, fired, t, None
                    green |= free
                    ray = free.bit_length() - 1
                    fired.append((ray, t))
                    reds = table.mates[ray]
                    break
                count = free.bit_count()
                if count < fewest or count == fewest and t < branch:
                    branch, fewest = t, count
        else:
            return green, red, fired, None, branch


def _descend(table: _Compiled, green: int, red: int, reds: int) -> tuple[int | None, int]:
    """Search below one node: the green mask of a coloring found, or None,
    and the nodes.  ``reds`` are the mates of the node's new green alone, as
    the parent is a fixpoint and the order of propagation does not matter.
    One call of ``_close`` closes the node and picks its branch triad."""
    green, red, _, conflict, branch = _close(table, green, red, reds)
    if conflict is not None:
        return None, 1
    if branch is None:
        return green, 1
    done = green | red
    nodes = 1
    for m in branch:
        if not done >> m & 1:
            found, below = _descend(table, green | 1 << m, red, table.mates[m])
            nodes += below
            if found is not None:
                return found, nodes
    return None, nodes


def validate_coloring(greens: frozenset[int], cs: ConstraintSet) -> bool:
    """Check the coloring with these green rays, every other vertex red,
    against nothing but the validity definition."""
    if not greens <= cs.vertices:
        return False
    for t in cs.triads:
        if len(greens.intersection(t)) != 1:
            return False
    for a, b in cs.dyads:
        if a in greens and b in greens:
            return False
    return True


@dataclass(frozen=True)
class ProofTrace:
    """Ordered record of choices and forced colorings, the green rays they
    reached, and the final witness; ``divergence`` names the first
    documented fact the replay did not reproduce, or is None."""

    steps: tuple[Step, ...]
    green_rays: frozenset[int]
    contradiction: Contradiction | None
    divergence: str | None


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

    Choice one colors ray 1 green (a power of SIGMA maps any other green of
    triad (1, 2, 3) onto it); choice two colors the pair (10, 11) green
    (powers of TAU fix ray 1 and map the alternative pairs onto it).
    Everything else is forced; ``symmetry_reduction`` checks both
    automorphisms on the diagram.  The trace stops at the first documented
    fact that propagation does not reproduce, and names it in ``divergence``.
    """
    steps: list[Step] = []

    steps.append(Choice((_PROOF_FIRST_GREEN,),
                        "symmetry: a power of sigma moves the green of triad (1, 2, 3) onto ray 1"))
    first = propagate((_PROOF_FIRST_GREEN,), (), cs)
    steps.extend(first.steps)
    if first.contradiction is not None:
        return ProofTrace(tuple(steps), first.greens, first.contradiction,
                          "first choice already contradictory")
    if first.greens != {_PROOF_FIRST_GREEN} or first.reds != _PROOF_FIRST_REDS:
        return ProofTrace(tuple(steps), first.greens, None, (
            f"first choice forced greens {sorted(first.greens - {_PROOF_FIRST_GREEN})} and reds "
            f"{sorted(first.reds)}, expected reds {sorted(_PROOF_FIRST_REDS)}"
        ))

    steps.append(Choice(_PROOF_SECOND_GREENS,
                        "symmetry: powers of tau fix ray 1 and map the other pairs onto (10, 11)"))
    final = propagate(first.greens | set(_PROOF_SECOND_GREENS), first.reds, cs)
    steps.extend(final.steps)

    witness = final.contradiction
    forced_greens = final.greens - first.greens - set(_PROOF_SECOND_GREENS)
    divergence = None
    if witness is None:
        divergence = "documented choices did not reach a contradiction"
    elif witness.kind != "all_red" or tuple(sorted(witness.constraint)) != _PROOF_CONTRADICTION:
        divergence = f"unexpected contradiction witness {witness}"
    elif forced_greens != _PROOF_FORCED_GREENS:
        divergence = (
            f"forced greens {sorted(forced_greens)}, expected {sorted(_PROOF_FORCED_GREENS)}"
        )
    return ProofTrace(tuple(steps), final.greens, witness, divergence)


#: Alternative second-choice pairs, each mapped onto _PROOF_SECOND_GREENS.
ALTERNATIVE_SECOND_PAIRS: tuple[frozenset[int], ...] = (
    frozenset({10, 12}), frozenset({11, 13}), frozenset({12, 13}),
)

# Two automorphisms of the shared diagram, in cycle notation.  On
# ``peres_rays()`` they are what the turn about the body diagonal and the
# quarter turn about the x-axis induce; the proof needs only that they
# preserve the diagram, since a coloring sees nothing else.
SIGMA = ("(1 2 3)(4 6 9)(5 7 8)(10 17 19)(11 15 18)(12 16 21)(13 14 20)"
         "(22 28 30)(23 29 32)(24 26 31)(25 27 33)")
TAU = ("(2 3)(4 5)(6 8 7 9)(10 12 13 11)(14 21 15 20)(16 19 17 18)"
       "(22 23 25 24)(26 33)(27 32 28 31)(29 30)")


def from_cycles(cycles: str) -> IndexPermutation:
    """The permutation of rays 1..33 written in cycle notation."""
    perm = {v: v for v in range(1, CATALOG_SIZE + 1)}
    for cycle in cycles[1:-1].split(")("):
        rays = [int(r) for r in cycle.split()]
        perm.update(zip(rays, rays[1:] + rays[:1]))
    return perm


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of checking that the two proof choices lose no generality;
    ``pair_automorphisms`` names, for each alternative pair, the power of
    TAU that maps it onto (10, 11), or None."""

    pair_automorphisms: dict[frozenset[int], str | None]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def symmetry_reduction(g: OrthoGraph) -> SymmetryReport:
    """Check the symmetry claims behind the two-choice proof on the diagram ``g``.

    SIGMA must be an automorphism cycling rays 1 -> 2 -> 3 -> 1, so that a
    power of it moves any green of triad (1, 2, 3) onto ray 1.  Each
    alternative second-choice pair must map onto (10, 11) under the first of
    TAU, TAU^2 and TAU^3 that is an automorphism fixing ray 1, so that it
    permutes ray 1's forced reds.
    """
    failures: list[str] = []
    sigma = from_cycles(SIGMA)
    if not is_automorphism(sigma, g):
        failures.append("sigma is not an automorphism")
    if not (sigma[1] == 2 and sigma[2] == 3 and sigma[3] == 1):
        failures.append("sigma does not cycle rays 1, 2, 3")

    first, second = _PROOF_FIRST_GREEN, frozenset(_PROOF_SECOND_GREENS)
    tau = from_cycles(TAU)
    power = {v: v for v in tau}
    automorphisms: dict[str, IndexPermutation] = {}
    for name in ("tau", "tau^2", "tau^3"):
        power = {v: tau[w] for v, w in power.items()}
        if is_automorphism(power, g):
            automorphisms[name] = power
        else:
            failures.append(f"{name} is not an automorphism")

    pair_automorphisms: dict[frozenset[int], str | None] = dict.fromkeys(ALTERNATIVE_SECOND_PAIRS)
    for pair in ALTERNATIVE_SECOND_PAIRS:
        for name, perm in automorphisms.items():
            if perm[first] == first and frozenset(perm[m] for m in pair) == second:
                pair_automorphisms[pair] = name
                break
        else:
            failures.append(f"no power of tau maps {sorted(pair)} onto {_PROOF_SECOND_GREENS}")

    return SymmetryReport(pair_automorphisms, tuple(failures))


def verify_symmetry_reduction(catalog: Catalog, g: OrthoGraph) -> SymmetryReport:
    """``symmetry_reduction(g)``; ``perfbench/`` is its only caller."""
    return symmetry_reduction(g)


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
