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
