import gc
import hashlib
import json
from itertools import combinations
from random import Random

import pytest

from bks33.catalog import penrose_mpairs, peres_rays
from bks33.kscolor import (
    ALTERNATIVE_SECOND_PAIRS,
    Choice,
    Color,
    ConstraintSet,
    Forced,
    KNOWN_DELETE1_GREENS,
    coloring_from_greens,
    criticality_audit,
    propagate,
    replay_proof,
    search,
    validate_coloring,
    verify_symmetry_reduction,
)
from bks33.orthograph import OrthoGraph, reference_graph

FULL = ConstraintSet.from_graph(reference_graph())


def greens_of(coloring):
    return {r for r, c in coloring.items() if c is Color.GREEN}


def reds_of(coloring):
    return {r for r, c in coloring.items() if c is Color.RED}


def test_propagate_first_choice():
    result = propagate({1: Color.GREEN}, FULL)
    assert result.contradiction is None
    assert greens_of(result.coloring) == {1}
    assert reds_of(result.coloring) == {2, 3, 4, 5, 26, 33, 29, 30}


def test_propagate_empty_coloring_is_a_fixpoint():
    result = propagate({}, FULL)
    assert result.contradiction is None
    assert result.coloring == {}
    assert result.steps == ()


def test_propagate_documented_choices_reach_the_all_red_triad():
    result = propagate(
        {1: Color.GREEN, 10: Color.GREEN, 11: Color.GREEN}, FULL
    )
    assert result.contradiction is not None
    assert result.contradiction.kind == "all_red"
    assert tuple(sorted(result.contradiction.constraint)) == (7, 15, 16)
    assert greens_of(result.coloring) == {1, 10, 11, 31, 27, 28, 6}


def test_propagate_two_greens_witness():
    # 10 and 24 share a dyad
    result = propagate({10: Color.GREEN, 24: Color.GREEN}, FULL)
    assert result.contradiction is not None
    assert result.contradiction.kind == "two_greens"
    assert set(result.contradiction.constraint) == {10, 24}


def test_forced_steps_are_entailed_by_their_cited_constraint():
    result = propagate(
        {1: Color.GREEN, 10: Color.GREEN, 11: Color.GREEN}, FULL
    )
    known: dict[int, Color] = {1: Color.GREEN, 10: Color.GREEN, 11: Color.GREEN}
    for step in result.steps:
        members = set(step.constraint)
        assert step.ray in members
        others = members - {step.ray}
        if step.color is Color.RED:
            # some earlier-known green in the same constraint forces red
            assert any(known.get(m) is Color.GREEN for m in others)
        else:
            # an exactly-one triple with both others red forces green
            assert step.constraint in FULL.exactly_one
            assert all(known.get(m) is Color.RED for m in others)
        known[step.ray] = step.color


def test_replay_trace_contents():
    trace = replay_proof(FULL)
    assert trace.choice_count == 2
    assert trace.green_rays == {1, 10, 11, 31, 27, 28, 6}
    assert len(trace.green_rays) == 7
    assert trace.contradiction is not None
    assert trace.contradiction.kind == "all_red"
    assert tuple(sorted(trace.contradiction.constraint)) == (7, 15, 16)
    choices = [s for s in trace.steps if isinstance(s, Choice)]
    assert choices[0].greens == (1,)
    assert choices[1].greens == (10, 11)
    forced_greens = [
        s.ray for s in trace.steps
        if isinstance(s, Forced) and s.color is Color.GREEN
    ]
    assert set(forced_greens) == {31, 27, 28, 6}


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


def test_single_triad_instance():
    cs = ConstraintSet(
        exactly_one=((1, 2, 3),), at_most_one=(), vertices=frozenset({1, 2, 3})
    )
    coloring = search(cs).coloring
    assert coloring is not None
    assert validate_coloring(coloring, cs)
    assert len(greens_of(coloring)) == 1


def test_delete_one_instance_is_colorable():
    reduced = ConstraintSet.from_graph(reference_graph().delete_vertex(1))
    coloring = search(reduced).coloring
    assert coloring is not None
    assert validate_coloring(coloring, reduced)


def test_known_delete1_coloring_validates():
    reduced = ConstraintSet.from_graph(reference_graph().delete_vertex(1))
    known = coloring_from_greens(KNOWN_DELETE1_GREENS, reduced.vertices)
    assert validate_coloring(known, reduced)


def test_validate_coloring_rejects_bad_colorings():
    cs = ConstraintSet(
        exactly_one=((1, 2, 3),),
        at_most_one=((3, 4),),
        vertices=frozenset({1, 2, 3, 4}),
    )
    all_red = coloring_from_greens([], cs.vertices)
    assert not validate_coloring(all_red, cs)
    two_greens = coloring_from_greens([1, 2], cs.vertices)
    assert not validate_coloring(two_greens, cs)
    dyad_violation = coloring_from_greens([3, 4], cs.vertices)
    assert not validate_coloring(dyad_violation, cs)
    incomplete = {1: Color.GREEN}
    assert not validate_coloring(incomplete, cs)
    good = coloring_from_greens([1], cs.vertices)
    assert validate_coloring(good, cs)


def test_criticality_audit_all_deletions():
    graph = reference_graph()
    audit = criticality_audit(graph)
    assert sorted(audit) == list(range(1, 34))
    for deleted, coloring in audit.items():
        reduced = ConstraintSet.from_graph(graph.delete_vertex(deleted))
        assert validate_coloring(coloring, reduced)


def test_deletion_demotes_triads_through_the_ray_to_pairs():
    # The claim in criticality_audit's docstring, for every single deletion:
    # the triads through v lose v and join the dyads as at-most-one pairs.
    graph = reference_graph()
    for v in sorted(graph.vertices):
        demoted = [tuple(m for m in t if m != v) for t in FULL.exactly_one if v in t]
        kept_pairs = [p for p in FULL.at_most_one if v not in p]
        rederived = ConstraintSet.from_graph(graph.delete_vertex(v))
        assert rederived.exactly_one == tuple(t for t in FULL.exactly_one if v not in t)
        assert rederived.at_most_one == tuple(sorted(kept_pairs + demoted))
        assert rederived.vertices == FULL.vertices - {v}


def brute_force_satisfiable(cs: ConstraintSet) -> bool:
    vs = sorted(cs.vertices)
    pos = {v: i for i, v in enumerate(vs)}
    triads = [sum(1 << pos[m] for m in t) for t in cs.exactly_one]
    pairs = [sum(1 << pos[m] for m in p) for p in cs.at_most_one]
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
    return ConstraintSet.from_graph(sub)


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


def test_symmetry_reduction_per_catalog():
    for catalog in (peres_rays(), penrose_mpairs()):
        report = verify_symmetry_reduction(catalog)
        assert report.passed, report.failures
        assert report.body_diagonal_is_automorphism
        assert report.body_diagonal_cycles_first_triad
        assert all(report.x_rotation_automorphisms.values())
        assert set(report.pair_rotations) == set(ALTERNATIVE_SECOND_PAIRS)
        assert None not in report.pair_rotations.values()


def test_symmetry_reduction_pair_angles_on_real_catalog():
    report = verify_symmetry_reduction(peres_rays())
    assert report.pair_rotations[frozenset({10, 12})] == 270
    assert report.pair_rotations[frozenset({13, 12})] == 180
    assert report.pair_rotations[frozenset({11, 13})] == 90


def test_search_tree_is_pinned():
    graph = reference_graph()
    assert search(FULL).nodes == 34
    assert [
        search(ConstraintSet.from_graph(graph.delete_vertex(v))).nodes
        for v in range(1, 34)
    ] == [8, 6, 6, 5, 5, 4, 4, 8, 8, 5, 5, 5, 5, 10, 5, 5, 10, 8, 8, 8, 8,
          7, 5, 5, 7, 18, 5, 5, 18, 18, 7, 7, 18]
    total = 0
    digest = hashlib.sha256()
    for u, v in combinations(range(1, 34), 2):
        result = search(
            ConstraintSet.from_graph(graph.delete_vertex(u).delete_vertex(v))
        )
        total += result.nodes
        greens = sorted(greens_of(result.coloring))
        digest.update(json.dumps([u, v, result.nodes, greens]).encode())
    assert total == 3291
    assert digest.hexdigest() == (
        "f3c9ff593e2e613897ad559533a9507f6af57de23aa7edfc1bf81d46ec83b074"
    )


def test_search_leaves_no_reference_cycle():
    instances = [
        ConstraintSet.from_graph(reference_graph()),
        ConstraintSet.from_graph(reference_graph().delete_vertex(1)),
    ]
    gc.collect()
    gc.disable()
    try:
        assert search(instances[0]).coloring is None
        assert search(instances[1]).coloring is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def closure_oracle(greens, cs: ConstraintSet):
    """Rules (i) and (ii) to a fixpoint on sets, in no particular order.

    Returns the green and red sets, or None when some constraint holds two
    greens or some triad is all red.
    """
    green, red = set(greens), set()
    constraints = [set(c) for c in cs.exactly_one + cs.at_most_one]
    triads = [set(t) for t in cs.exactly_one]
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
        ConstraintSet.from_graph(graph.delete_vertex(v)) for v in range(1, 34)
    ]
    for cs in instances:
        vertices = sorted(cs.vertices)
        starts = [(v,) for v in vertices] + list(combinations(vertices, 2))
        for start in starts:
            result = propagate({v: Color.GREEN for v in start}, cs)
            expected = closure_oracle(start, cs)
            if expected is None:
                assert result.contradiction is not None, start
            else:
                assert result.contradiction is None, start
                assert (greens_of(result.coloring), reds_of(result.coloring)) == expected
