import gc
import hashlib
import json
from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from automorphism_oracle import automorphisms
from exact_oracle import ROTATION_111, X_AXIS_TURNS, induced_permutation

from bks33.catalog import FamilyParams, class_of, family_rays, penrose_mpairs, peres_rays
from bks33.kscolor import (
    ALTERNATIVE_SECOND_PAIRS,
    SIGMA,
    TAU,
    Choice,
    Color,
    ConstraintSet,
    Contradiction,
    Forced,
    KNOWN_DELETE1_GREENS,
    criticality_audit,
    from_cycles,
    propagate,
    replay_proof,
    search,
    symmetry_reduction,
    validate_coloring,
    verify_symmetry_reduction,
)
from bks33 import kscolor, orthograph
from bks33.orthograph import (
    OrthoGraph, build_graph, decompose, is_automorphism, reference_decomposition,
    reference_graph,
)

FULL = decompose(reference_graph())


def two_disjoint_copies() -> OrthoGraph:
    """The diagram on rays 1..33 and again on 34..66: every single deletion
    leaves one whole copy, so none is colorable."""
    g = reference_graph()
    shifted = {(u + 33, v + 33) for u, v in g.edges}
    return OrthoGraph(frozenset(range(1, 67)), g.edges | shifted)


def test_propagate_first_choice():
    result = propagate({1}, (), FULL)
    assert result.contradiction is None
    assert result.greens == {1}
    assert result.reds == {2, 3, 4, 5, 26, 33, 29, 30}


def test_propagate_empty_coloring_is_a_fixpoint():
    result = propagate((), (), FULL)
    assert result.contradiction is None
    assert result.greens == result.reds == frozenset()
    assert result.steps == ()


@pytest.mark.parametrize("greens, reds, cs, message", [
    ({34}, (), FULL, r"not in the diagram: \[34\]"),
    ((), {34}, FULL, r"not in the diagram: \[34\]"),
    ({1, 10}, {10}, FULL, r"both colors: \[10\]"),
    ({1}, (), decompose(reference_graph().delete_vertex(1)), r"not in the diagram: \[1\]"),
])
def test_propagate_rejects_rays_outside_the_diagram_or_of_both_colors(greens, reds, cs, message):
    with pytest.raises(ValueError, match=message):
        propagate(greens, reds, cs)


def test_propagate_documented_choices_reach_the_all_red_triad():
    result = propagate({1, 10, 11}, (), FULL)
    assert result.contradiction is not None
    assert result.contradiction.kind == "all_red"
    assert tuple(sorted(result.contradiction.constraint)) == (7, 15, 16)
    assert result.greens == {1, 10, 11, 31, 27, 28, 6}


def test_propagate_drains_greens_before_the_triad_scan():
    # (3, 24, 27) starts all red and (9, 19, 20) holds both start greens.
    # The greens drain before any triad is scanned, so the second witness
    # is found, after 9 forces its mates 8 and 19 red.
    result = propagate({9, 20}, {3, 24, 27}, FULL)
    assert result.contradiction == Contradiction("two_greens", (9, 19, 20))
    assert result.steps == (
        Forced(8, Color.RED, (3, 8, 9)), Forced(19, Color.RED, (9, 19, 20)),
    )


def test_propagate_two_greens_witness():
    # 10 and 24 share a dyad
    result = propagate({10, 24}, (), FULL)
    assert result.contradiction is not None
    assert result.contradiction.kind == "two_greens"
    assert set(result.contradiction.constraint) == {10, 24}


def test_propagate_fires_the_first_triad_in_constraint_order():
    # propagate closes as search does: rule (ii) fires the first triad, in
    # constraint order, with no green and at most one free member, so 18, 26
    # and 22 turn green before (9, 19, 20) is all red
    result = propagate({10, 15}, (), FULL)
    assert result.contradiction == Contradiction("all_red", (9, 19, 20))
    assert [s.ray for s in result.steps if s.color is Color.GREEN] == [3, 5, 30, 6, 31, 18, 26, 22]


def test_forced_steps_are_entailed_by_their_cited_constraint():
    # every single and pair green start, and the documented choices
    vertices = sorted(FULL.vertices)
    starts = [(v,) for v in vertices] + list(combinations(vertices, 2)) + [(1, 10, 11)]
    for greens in starts:
        result = propagate(greens, (), FULL)
        known: dict[int, Color] = dict.fromkeys(greens, Color.GREEN)
        for step in result.steps:
            members = set(step.constraint)
            assert step.ray in members and step.ray not in known, (greens, step)
            others = members - {step.ray}
            if step.color is Color.RED:
                # some earlier-known green in the same constraint forces red
                assert any(known.get(m) is Color.GREEN for m in others), (greens, step)
            else:
                # an exactly-one triple with both others red forces green
                assert step.constraint in FULL.triads, (greens, step)
                assert all(known.get(m) is Color.RED for m in others), (greens, step)
            known[step.ray] = step.color
        assert {v for v, c in known.items() if c is Color.GREEN} == result.greens, greens
        assert {v for v, c in known.items() if c is Color.RED} == result.reds, greens


def test_replay_trace_contents():
    trace = replay_proof(FULL)
    assert trace.green_rays == {1, 10, 11, 31, 27, 28, 6}
    assert len(trace.green_rays) == 7
    assert trace.contradiction is not None
    assert trace.contradiction.kind == "all_red"
    assert tuple(sorted(trace.contradiction.constraint)) == (7, 15, 16)
    assert trace.divergence is None
    choices = [s for s in trace.steps if isinstance(s, Choice)]
    assert [c.greens for c in choices] == [(1,), (10, 11)]
    forced_greens = [
        s.ray for s in trace.steps
        if isinstance(s, Forced) and s.color is Color.GREEN
    ]
    assert set(forced_greens) == {31, 27, 28, 6}


# The diagram with one constraint added, the divergence the replay names
# and the greens it reaches.
REPLAY_DIVERGENCES = [
    (ConstraintSet(FULL.triads + ((2, 4, 26),), FULL.dyads, FULL.vertices),
     "first choice already contradictory", {1}),
    (ConstraintSet(FULL.triads, FULL.dyads + ((1, 10),), FULL.vertices),
     "first choice forced greens [13, 28, 32] and reds [2, 3, 4, 5, 10, 14, 16, "
     "18, 20, 22, 23, 26, 29, 30, 33], expected reds [2, 3, 4, 5, 26, 29, 30, 33]",
     {1, 13, 28, 32}),
    (ConstraintSet(FULL.triads, FULL.dyads + ((10, 11),), FULL.vertices),
     "unexpected contradiction witness "
     "Contradiction(kind='two_greens', constraint=(10, 11))",
     {1, 10, 11}),
    (ConstraintSet(((12, 13, 34),) + FULL.triads, FULL.dyads, FULL.vertices | {34}),
     "forced greens [6, 27, 28, 31, 34], expected [6, 27, 28, 31]",
     {1, 6, 10, 11, 27, 28, 31, 34}),
]


@pytest.mark.parametrize("cs, divergence, greens", REPLAY_DIVERGENCES)
def test_replay_names_each_divergence(cs, divergence, greens):
    trace = replay_proof(cs)
    assert trace.divergence == divergence
    assert trace.green_rays == greens


@pytest.mark.parametrize("cs", [FULL] + [cs for cs, _, _ in REPLAY_DIVERGENCES])
def test_replay_green_rays_are_the_chosen_and_forced_greens(cs):
    trace = replay_proof(cs)
    derived = set()
    for step in trace.steps:
        if isinstance(step, Choice):
            derived.update(step.greens)
        elif step.color is Color.GREEN:
            derived.add(step.ray)
    assert trace.green_rays == derived


def test_search_full_instance_is_unsat():
    result = search(FULL)
    assert result.coloring is None
    assert result.nodes > 1
    # deterministic node count on identical instances
    assert search(FULL).nodes == result.nodes


def test_replay_and_search_agree():
    trace = replay_proof(FULL)
    assert trace.contradiction is not None
    assert search(FULL).coloring is None


def test_constraint_set_is_the_decomposition():
    assert ConstraintSet is orthograph.ConstraintSet
    assert FULL == reference_decomposition()


def test_single_triad_instance():
    cs = ConstraintSet(
        triads=((1, 2, 3),), dyads=(), vertices=frozenset({1, 2, 3})
    )
    coloring = search(cs).coloring
    assert coloring is not None
    assert validate_coloring(coloring, cs)
    assert len(coloring) == 1


def test_delete_one_instance_is_colorable():
    reduced = decompose(reference_graph().delete_vertex(1))
    coloring = search(reduced).coloring
    assert coloring is not None
    assert validate_coloring(coloring, reduced)


def test_known_delete1_coloring_validates():
    reduced = decompose(reference_graph().delete_vertex(1))
    assert validate_coloring(KNOWN_DELETE1_GREENS, reduced)


def test_validate_coloring_rejects_bad_colorings():
    cs = ConstraintSet(
        triads=((1, 2, 3),),
        dyads=((3, 4),),
        vertices=frozenset({1, 2, 3, 4}),
    )
    all_red = frozenset()
    assert not validate_coloring(all_red, cs)
    two_greens = frozenset({1, 2})
    assert not validate_coloring(two_greens, cs)
    dyad_violation = frozenset({3, 4})
    assert not validate_coloring(dyad_violation, cs)
    green_outside_vertices = frozenset({1, 5})
    assert not validate_coloring(green_outside_vertices, cs)
    good = frozenset({1})
    assert validate_coloring(good, cs)


def satisfies_definition(greens, cs: ConstraintSet) -> bool:
    """Every green a vertex, exactly one green per triad, at most one per dyad."""
    return (
        all(v in cs.vertices for v in greens)
        and all(sum(m in greens for m in t) == 1 for t in cs.triads)
        and all(sum(m in greens for m in d) <= 1 for d in cs.dyads)
    )


#: The diagram and its single deletions, each with the coloring search finds.
DIAGRAMS = [
    (cs, search(cs).coloring)
    for cs in [FULL] + [decompose(reference_graph().delete_vertex(v)) for v in range(1, 34)]
]


@st.composite
def diagrams_and_greens(draw):
    """A diagram or one of its single deletions, and a set of greens: any
    set of rays, or, with up to three rays flipped, the coloring search
    finds or one green in each triad a random order of the triads leaves
    room for, blind to the dyads.  Rays 0, 34, 35 and a deleted ray lie
    outside the diagram."""
    cs, coloring = draw(st.sampled_from(DIAGRAMS))
    rays = st.integers(0, 35)
    kind = draw(st.sampled_from(["any", "coloring", "triads"]))
    if kind == "any":
        return cs, draw(st.frozensets(rays))
    base = set(coloring or ())
    if kind == "triads":
        base = set()
        for t in draw(st.permutations(cs.triads)):
            room = [m for m in t if all(base.isdisjoint(u) for u in cs.triads if m in u)]
            if room:
                base.add(draw(st.sampled_from(room)))
    return cs, frozenset(base) ^ draw(st.frozensets(rays, max_size=3))


@given(diagrams_and_greens())
def test_validate_coloring_agrees_with_the_definition(drawn):
    cs, greens = drawn
    assert validate_coloring(greens, cs) == satisfies_definition(greens, cs)


def test_criticality_audit_all_deletions():
    graph = reference_graph()
    audit = criticality_audit(graph)
    assert sorted(audit) == list(range(1, 34))
    for deleted, greens in audit.items():
        reduced = decompose(graph.delete_vertex(deleted))
        assert greens is not None
        assert validate_coloring(greens, reduced)


def test_criticality_audit_maps_uncolorable_deletions_to_none():
    assert criticality_audit(two_disjoint_copies()) == dict.fromkeys(range(1, 67))


def test_deletion_demotes_triads_through_the_ray_to_pairs():
    # The claim in coloring_without's docstring, for every single deletion:
    # the triads through v lose v and join the dyads as at-most-one pairs.
    graph = reference_graph()
    for v in sorted(graph.vertices):
        demoted = [tuple(m for m in t if m != v) for t in FULL.triads if v in t]
        kept_pairs = [p for p in FULL.dyads if v not in p]
        rederived = decompose(graph.delete_vertex(v))
        assert rederived.triads == tuple(t for t in FULL.triads if v not in t)
        assert rederived.dyads == tuple(sorted(kept_pairs + demoted))
        assert rederived.vertices == FULL.vertices - {v}


def brute_force_satisfiable(cs: ConstraintSet) -> bool:
    vs = sorted(cs.vertices)
    pos = {v: i for i, v in enumerate(vs)}
    triads = [sum(1 << pos[m] for m in t) for t in cs.triads]
    pairs = [sum(1 << pos[m] for m in p) for p in cs.dyads]
    for mask in range(1 << len(vs)):
        if all((mask & t).bit_count() == 1 for t in triads) and all(
            (mask & p).bit_count() <= 1 for p in pairs
        ):
            return True
    return False


def induced_constraints(g: OrthoGraph, keep: set[int]) -> ConstraintSet:
    sub = OrthoGraph(
        frozenset(keep),
        frozenset(e for e in g.edges if set(e) <= keep),
    )
    return decompose(sub)


def test_search_agrees_with_brute_force_on_subinstances():
    g = reference_graph()
    rng = Random(2024)
    vertices = sorted(g.vertices)
    for _ in range(6):
        keep = set(rng.sample(vertices, rng.randint(8, 16)))
        cs = induced_constraints(g, keep)
        assert (search(cs).coloring is not None) == brute_force_satisfiable(cs)


def test_search_agrees_with_brute_force_on_synthetic_instances():
    rng = Random(99)
    for _ in range(12):
        n = rng.randint(5, 12)
        vs = list(range(1, n + 1))
        triads = tuple(
            tuple(sorted(rng.sample(vs, 3))) for _ in range(rng.randint(1, 6))
        )
        pairs = tuple(
            tuple(sorted(rng.sample(vs, 2))) for _ in range(rng.randint(0, 6))
        )
        cs = ConstraintSet(triads, pairs, frozenset(vs))
        found = search(cs).coloring
        assert (found is not None) == brute_force_satisfiable(cs)
        if found is not None:
            assert validate_coloring(found, cs)


def tau_powers() -> dict[str, dict[int, int]]:
    tau = from_cycles(TAU)
    square = {v: tau[tau[v]] for v in tau}
    return {"tau": tau, "tau^2": square, "tau^3": {v: tau[square[v]] for v in tau}}


def test_symmetry_reduction_per_catalog():
    for catalog in (peres_rays(), penrose_mpairs()):
        report = symmetry_reduction(build_graph(catalog))
        assert report.passed, report.failures
        assert set(report.pair_automorphisms) == set(ALTERNATIVE_SECOND_PAIRS)
        assert None not in report.pair_automorphisms.values()


def test_symmetry_reduction_holds_on_a_generic_family_member():
    # the check reads the diagram alone, so a float member passes too
    report = symmetry_reduction(build_graph(family_rays(FamilyParams(0.7, 0.2, 1.1))))
    assert report.passed, report.failures
    assert verify_symmetry_reduction(peres_rays(), reference_graph()) == symmetry_reduction(
        reference_graph()
    )


def test_symmetry_reduction_pair_angles_on_real_catalog():
    report = symmetry_reduction(reference_graph())
    assert report.pair_automorphisms == {
        frozenset({10, 12}): "tau^3", frozenset({12, 13}): "tau^2", frozenset({11, 13}): "tau",
    }
    # on the real catalog tau^k is the turn by k quarter turns about the x-axis
    for k, (name, perm) in enumerate(tau_powers().items(), start=1):
        assert induced_permutation(X_AXIS_TURNS[90 * k], peres_rays()) == perm, name


def test_written_automorphisms_are_the_turns_on_the_real_catalog():
    assert induced_permutation(ROTATION_111, peres_rays()) == from_cycles(SIGMA)
    assert induced_permutation(X_AXIS_TURNS[90], peres_rays()) == from_cycles(TAU)


def test_turns_on_the_complex_catalog_agree_with_them_where_the_proof_looks():
    # sigma on rays 1, 2, 3 (the first choice), tau on ray 1 and 10-13 (the
    # second); elsewhere the complex catalog's turns permute other rays
    sigma, tau = from_cycles(SIGMA), from_cycles(TAU)
    turn = induced_permutation(ROTATION_111, penrose_mpairs())
    quarter = induced_permutation(X_AXIS_TURNS[90], penrose_mpairs())
    assert {v for v in turn if turn[v] == sigma[v]} == {1, 2, 3, 4, 5, 26, 29, 30, 33}
    assert {v for v in quarter if quarter[v] == tau[v]} == {
        1, 2, 3, 4, 5, 10, 11, 12, 13, 22, 23, 24, 25, 27, 28, 31, 32,
    }


def test_automorphism_group_of_the_diagram():
    g = reference_graph()
    group = list(automorphisms(g))
    assert len(group) == 48
    assert len({tuple(sorted(a.items())) for a in group}) == 48
    assert all(is_automorphism(a, g) for a in group)
    # the orbits are the four ray classes
    for v in g.vertices:
        assert {class_of(a[v]) for a in group} == {class_of(v)}
        assert len({a[v] for a in group}) == sum(class_of(u) == class_of(v) for u in g.vertices)
    stabilizer = [a for a in group if a[1] == 1]
    assert len(stabilizer) == 16
    for pair in ({10, 12}, {12, 13}, {11, 13}):
        assert any({a[m] for m in pair} == {10, 11} for a in stabilizer), pair
    # sigma and tau lie in Aut(G) and generate a subgroup of order 24
    generators = [from_cycles(SIGMA), from_cycles(TAU)]
    keys = {tuple(sorted(a.items())) for a in group}
    assert all(tuple(sorted(p.items())) in keys for p in generators)
    identity = {v: v for v in g.vertices}
    generated, frontier = {tuple(sorted(identity.items()))}, [identity]
    while frontier:
        p = frontier.pop()
        for q in generators:
            product = {v: q[p[v]] for v in p}
            key = tuple(sorted(product.items()))
            if key not in generated:
                generated.add(key)
                frontier.append(product)
    assert len(generated) == 24


def test_alternative_pairs_are_listed_in_sorted_pair_order():
    assert [sorted(p) for p in ALTERNATIVE_SECOND_PAIRS] == sorted(
        sorted(p) for p in ALTERNATIVE_SECOND_PAIRS
    )


def test_symmetry_reduction_fails_on_a_broken_graph():
    graph = reference_graph()
    one_three = OrthoGraph(graph.vertices, graph.edges - {(1, 3)})
    # Edge (2, 6) breaks all three powers of tau, so no pair may name one.
    two_six = OrthoGraph(graph.vertices, graph.edges - {(2, 6)})
    report = symmetry_reduction(one_three)
    assert report.passed is False
    assert report.failures == (
        "sigma is not an automorphism",
        "tau is not an automorphism",
        "tau^3 is not an automorphism",
        "no power of tau maps [10, 12] onto (10, 11)",
        "no power of tau maps [11, 13] onto (10, 11)",
    )
    assert report.pair_automorphisms == {
        frozenset({10, 12}): None, frozenset({12, 13}): "tau^2", frozenset({11, 13}): None,
    }

    report = symmetry_reduction(two_six)
    assert report.passed is False
    assert report.failures == (
        "sigma is not an automorphism",
        "tau is not an automorphism",
        "tau^2 is not an automorphism",
        "tau^3 is not an automorphism",
        "no power of tau maps [10, 12] onto (10, 11)",
        "no power of tau maps [11, 13] onto (10, 11)",
        "no power of tau maps [12, 13] onto (10, 11)",
    )
    assert report.pair_automorphisms == dict.fromkeys(ALTERNATIVE_SECOND_PAIRS)


@pytest.mark.parametrize("catalog", [peres_rays(), penrose_mpairs()], ids=["peres", "penrose"])
def test_symmetry_reduction_names_automorphisms_only(catalog):
    graph = build_graph(catalog)
    powers = tau_powers()
    for edge in sorted(graph.edges):
        broken = OrthoGraph(graph.vertices, graph.edges - {edge})
        report = symmetry_reduction(broken)
        assert report.passed is False, edge
        assert "sigma is not an automorphism" in report.failures, edge
        for name in report.pair_automorphisms.values():
            if name is not None:
                assert is_automorphism(powers[name], broken), (edge, name)


def test_search_tree_is_pinned():
    graph = reference_graph()
    assert search(FULL).nodes == 34
    assert [
        search(decompose(graph.delete_vertex(v))).nodes
        for v in range(1, 34)
    ] == [8, 6, 6, 5, 5, 4, 4, 8, 8, 5, 5, 5, 5, 10, 5, 5, 10, 8, 8, 8, 8,
          7, 5, 5, 7, 18, 5, 5, 18, 18, 7, 7, 18]
    total = 0
    digest = hashlib.sha256()
    for u, v in combinations(range(1, 34), 2):
        result = search(
            decompose(graph.delete_vertex(u).delete_vertex(v))
        )
        total += result.nodes
        greens = sorted(result.coloring)
        digest.update(json.dumps([u, v, result.nodes, greens]).encode())
    assert total == 3291
    assert digest.hexdigest() == (
        "f3c9ff593e2e613897ad559533a9507f6af57de23aa7edfc1bf81d46ec83b074"
    )


def relabelings(count: int, seed: int) -> list[ConstraintSet]:
    """The diagram's constraints under ``count`` seeded relabelings of its rays."""
    graph = reference_graph()
    vertices = sorted(graph.vertices)
    rng = Random(seed)
    out = []
    for _ in range(count):
        images = list(vertices)
        rng.shuffle(images)
        label = dict(zip(vertices, images))
        out.append(decompose(OrthoGraph(graph.vertices, frozenset(
            tuple(sorted((label[u], label[v]))) for u, v in graph.edges
        ))))
    return out


def test_relabeled_search_trees_are_pinned():
    """The search tree depends on the ray labels: 64 seeded relabelings of
    the diagram take between 18 and 46 nodes, every one UNSAT."""
    total = 0
    digest = hashlib.sha256()
    for i, cs in enumerate(relabelings(64, 1)):
        result = search(cs)
        total += result.nodes
        greens = None if result.coloring is None else sorted(result.coloring)
        digest.update(json.dumps([i, result.nodes, greens]).encode())
    assert total == 1806
    assert digest.hexdigest() == (
        "2fd3309d44fe59508df1028fa822d72bc3f4b426f56f286c553ee5d664146dba"
    )


def reference_search(cs: ConstraintSet):
    """search with its branch triad picked by a second scan of the triads,
    the least (free count, triad) among those with no green, as ``min``
    orders them: the green rays found, or None, and the nodes."""
    table = kscolor._compile(cs)

    def descend(green, red, reds):
        green, red, _, conflict, _ = kscolor._close(table, green, red, reds)
        if conflict is not None:
            return None, 1
        done = green | red
        open_triads = [
            ((mask & ~done).bit_count(), t) for mask, t in table.triads if not mask & green
        ]
        if not open_triads:
            return green, 1
        nodes = 1
        for m in min(open_triads)[1]:
            if not done >> m & 1:
                found, below = descend(green | 1 << m, red, table.mates[m])
                nodes += below
                if found is not None:
                    return found, nodes
        return None, nodes

    green, nodes = descend(0, 0, 0)
    return (None if green is None else frozenset(v for v in cs.vertices if green >> v & 1)), nodes


def shuffled(cs: ConstraintSet, rng: Random) -> ConstraintSet:
    """``cs`` with its triads, and the members of each, in a random order."""
    triads = [tuple(rng.sample(t, 3)) for t in cs.triads]
    rng.shuffle(triads)
    return ConstraintSet(tuple(triads), cs.dyads, cs.vertices)


def test_search_branches_on_the_least_open_triad():
    # _close picks the branch triad in its last scan; a second scan, taking
    # min over (free count, triad), must give the same trees and colorings
    graph = reference_graph()
    instances = [FULL] + [decompose(graph.delete_vertex(v)) for v in range(1, 34)]
    instances += [
        decompose(graph.delete_vertex(u).delete_vertex(v))
        for u, v in combinations(range(1, 34), 2)
    ]
    instances += relabelings(64, 1)
    # triads out of sorted order, so the tie-break between equal free
    # counts must compare the triads themselves
    rng = Random(7)
    unsorted = [shuffled(cs, rng) for cs in instances[:34] for _ in range(4)]
    assert any(list(cs.triads) != sorted(cs.triads) for cs in unsorted)
    for cs in instances + unsorted:
        result = search(cs)
        assert (result.coloring, result.nodes) == reference_search(cs), cs


def test_search_leaves_no_reference_cycle():
    instances = [
        decompose(reference_graph()),
        decompose(reference_graph().delete_vertex(1)),
    ]
    gc.collect()
    gc.disable()
    try:
        assert search(instances[0]).coloring is None
        assert search(instances[1]).coloring is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def closure_oracle(greens, reds, cs: ConstraintSet):
    """Rules (i) and (ii) to a fixpoint on sets from the given greens and
    reds, in no particular order.

    Returns the green and red sets, or None when some constraint holds two
    greens or some triad is all red.
    """
    green, red = set(greens), set(reds)
    constraints = [set(c) for c in cs.triads + cs.dyads]
    triads = [set(t) for t in cs.triads]
    changed = True
    while changed:
        changed = False
        for c in constraints:
            on = c & green
            if len(on) > 1:
                return None
            if on and not c - on <= red:
                red |= c - on
                changed = True
        for t in triads:
            free = t - red
            if not t & green and len(free) <= 1:
                if not free:
                    return None
                green |= free
                changed = True
    return green, red


def test_propagate_agrees_with_closure_oracle():
    graph = reference_graph()
    instances = [FULL] + [
        decompose(graph.delete_vertex(v)) for v in range(1, 34)
    ]
    for seed, cs in enumerate(instances):
        vertices = sorted(cs.vertices)
        starts = [((v,), ()) for v in vertices]
        starts += [(pair, ()) for pair in combinations(vertices, 2)]
        rng = Random(seed)
        for _ in range(300):  # starts that assign reds too
            rays = rng.sample(vertices, rng.randint(1, 6))
            cut = rng.randint(0, min(2, len(rays) - 1))
            starts.append((rays[:cut], rays[cut:]))
        for greens, reds in starts:
            result = propagate(greens, reds, cs)
            expected = closure_oracle(greens, reds, cs)
            if expected is None:
                assert result.contradiction is not None, (greens, reds)
            else:
                assert result.contradiction is None, (greens, reds)
                assert (result.greens, result.reds) == expected


def search_closure(greens, cs: ConstraintSet):
    """search's mask closure, the greens chosen one at a time as search
    chooses them; the green and red sets, or None at a conflict."""
    table = kscolor._compile(cs)
    green = red = 0
    for v in greens:
        if red >> v & 1:  # search chooses no red ray: two greens in a constraint
            return None
        green, red, _, conflict, _ = kscolor._close(table, green | 1 << v, red, table.mates[v])
        if conflict is not None:
            return None
    return ({m for m in cs.vertices if green >> m & 1},
            {m for m in cs.vertices if red >> m & 1})


def test_search_closure_agrees_with_closure_oracle():
    # on the diagram and its 33 single deletions, from every single green
    # (rule (i) alone) and every pair of greens (rule (ii) and conflicts)
    graph = reference_graph()
    for cs in [FULL] + [decompose(graph.delete_vertex(v)) for v in range(1, 34)]:
        vertices = sorted(cs.vertices)
        starts = [(v,) for v in vertices] + list(combinations(vertices, 2))
        for greens in starts:
            assert search_closure(greens, cs) == closure_oracle(greens, (), cs), greens
