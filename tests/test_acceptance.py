"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

from dimacs_oracle import clause_satisfied, dpll, parse_dimacs

from bks33 import cli
from bks33.catalog import (
    FamilyParams,
    class_of,
    family_rays,
    penrose_mpairs,
    peres_rays,
    recovered_penrose_mpairs,
)
from bks33.kscolor import (
    Color,
    ConstraintSet,
    KNOWN_DELETE1_GREENS,
    coloring_from_greens,
    criticality_audit,
    replay_proof,
    search,
    validate_coloring,
    verify_symmetry_reduction,
)
from bks33.majorana import (
    MPair,
    MVector,
    mpair_from_state,
    mpairs_match,
    overlap2_closed_form,
    random_mvector,
    state_from_mpair,
    state_overlap2,
)
from bks33.orthograph import (
    ROTATION_111,
    X_AXIS_ROTATIONS,
    build_graph,
    decompose,
    induced_permutation,
    is_automorphism,
    reference_decomposition,
    reference_graph,
)
from bks33.rays import Ray, overlap2
from bks33.scalar import ExactComplex, QRoot2


def check(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


# Double-entry transcriptions: the expected tables are written out again
# here so an accidental edit of either copy is caught.  +-2 encodes +-sqrt2.
EXPECTED_REAL = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, -1, 0), (1, 1, 0),
    (2, -1, 1), (2, 1, 1), (2, -1, -1), (2, 1, -1),
    (-1, 2, 1), (1, 2, 1), (-1, 2, -1), (1, 2, -1),
    (1, 1, 2), (-1, 1, 2), (1, -1, 2), (-1, -1, 2),
    (1, 0, 2), (-1, 2, 0), (1, 2, 0), (-1, 0, 2), (0, 1, 2),
    (2, -1, 0), (2, 1, 0), (0, -1, 2), (0, 2, 1),
    (2, 0, 1), (2, 0, -1), (0, 2, -1),
]

EXPECTED_MPAIRS = [
    ((1, 0, 0), (-1, 0, 0)), ((0, 1, 0), (0, -1, 0)), ((0, 0, 1), (0, 0, -1)),
    ((0, 1, 1), (0, -1, -1)), ((0, 1, -1), (0, -1, 1)), ((1, 0, 1), (-1, 0, -1)),
    ((1, 0, -1), (-1, 0, 1)), ((1, 1, 0), (-1, -1, 0)), ((1, -1, 0), (-1, 1, 0)),
    ((0, 1, 1), (0, 1, 1)), ((0, 1, -1), (0, 1, -1)), ((0, -1, 1), (0, -1, 1)),
    ((0, -1, -1), (0, -1, -1)), ((1, 0, 1), (1, 0, 1)), ((1, 0, -1), (1, 0, -1)),
    ((-1, 0, 1), (-1, 0, 1)), ((-1, 0, -1), (-1, 0, -1)), ((1, 1, 0), (1, 1, 0)),
    ((1, -1, 0), (1, -1, 0)), ((-1, 1, 0), (-1, 1, 0)), ((-1, -1, 0), (-1, -1, 0)),
    ((0, 1, 1), (0, 1, -1)), ((0, 1, 1), (0, -1, 1)), ((0, -1, -1), (0, 1, -1)),
    ((0, -1, -1), (0, -1, 1)), ((1, 0, 1), (1, 0, -1)), ((1, 0, 1), (-1, 0, 1)),
    ((-1, 0, -1), (1, 0, -1)), ((-1, 0, -1), (-1, 0, 1)), ((1, 1, 0), (1, -1, 0)),
    ((1, 1, 0), (-1, 1, 0)), ((-1, -1, 0), (1, -1, 0)), ((-1, -1, 0), (-1, 1, 0)),
]


def scalar_for(n: int) -> ExactComplex:
    return ExactComplex(QRoot2(0, n // 2)) if n in (2, -2) else ExactComplex(n)


def test_criterion_1_catalog_fidelity():
    rays = peres_rays()
    rays_ok = len(rays) == 33 and all(
        ray.components == tuple(scalar_for(n) for n in expected)
        for ray, expected in zip(rays, EXPECTED_REAL)
    )
    pairs = penrose_mpairs()
    pairs_ok = len(pairs) == 33 and all(
        pair.first == MVector(*exp_first) and pair.second == MVector(*exp_second)
        for pair, (exp_first, exp_second) in zip(pairs, EXPECTED_MPAIRS)
    )
    sizes: dict = {}
    for i in range(1, 34):
        sizes[class_of(i)] = sizes.get(class_of(i), 0) + 1
    classes_ok = sorted(sizes.values()) == [3, 6, 12, 12]
    check(1, "catalog fidelity (exact transcriptions, class sizes 3/6/12/12)",
          rays_ok and pairs_ok and classes_ok)


def test_criterion_2_diagram_identity():
    reference = reference_decomposition()
    reference_edges = reference.edges()

    real_graph = build_graph(peres_rays())
    complex_graph = build_graph(penrose_mpairs())
    graphs_ok = real_graph.edges == complex_graph.edges == reference_edges

    real_decomposition = decompose(real_graph)
    counts_ok = (
        len(real_decomposition.triads) == 16
        and len(real_decomposition.dyads) == 24
        and set(real_decomposition.triads) == set(reference.triads)
        and set(real_decomposition.dyads) == set(reference.dyads)
    )

    rng = Random(cli.DEFAULT_SEED)
    family_ok = True
    margins_ok = True
    for _ in range(100):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        rays = family_rays(params)
        edges = set()
        for (i, a), (j, b) in combinations(enumerate(rays, start=1), 2):
            value = overlap2(a, b)
            if value < 1e-18:
                edges.add((i, j))
            elif value <= 1e-9:
                margins_ok = False
        family_ok = family_ok and edges == set(reference_edges)

    check(2, "diagram identity across all three catalogs (100 family samples)",
          graphs_ok and counts_ok and family_ok and margins_ok)


def test_criterion_3_non_colorability():
    cs = ConstraintSet.from_graph(reference_graph())
    result = search(cs)
    trace = replay_proof(cs)
    replay_ok = (
        trace.contradiction is not None
        and trace.contradiction.kind == "all_red"
        and tuple(sorted(trace.contradiction.constraint)) == (7, 15, 16)
        and trace.choice_count == 2
        and len(trace.green_rays) == 7
    )
    check(3, "non-colorability (exhaustive UNSAT + two-choice replay agree)",
          result.coloring is None and replay_ok)


def test_criterion_4_symmetry_verification():
    # The shared numbering aligns the two orthogonality graphs, not the two
    # geometries, so the catalogs need not induce elementwise-identical
    # permutations (see test_catalog_geometries_induce_different_permutations).
    # What both proofs share is the symmetry reduction itself: each catalog's
    # rotations are automorphisms, and both realise the two "without loss of
    # generality" choices by the same turns.
    real_catalog = peres_rays()
    pair_catalog = penrose_mpairs()
    graph = reference_graph()

    rotations = [ROTATION_111] + [X_AXIS_ROTATIONS[a] for a in (90, 180, 270)]
    autos_ok = True
    same_half_turn = False
    for rotation in rotations:
        real_perm = induced_permutation(rotation, real_catalog)
        pair_perm = induced_permutation(rotation, pair_catalog)
        autos_ok = autos_ok and is_automorphism(real_perm, graph)
        autos_ok = autos_ok and is_automorphism(pair_perm, graph)
        if rotation is X_AXIS_ROTATIONS[180]:
            same_half_turn = real_perm == pair_perm

    report = verify_symmetry_reduction(real_catalog, graph)
    pair_report = verify_symmetry_reduction(pair_catalog, graph)
    mapping_ok = report.passed and pair_report.passed

    same_turns = report.pair_rotations == pair_report.pair_rotations
    both_cycle = (
        report.body_diagonal_cycles_first_triad
        and pair_report.body_diagonal_cycles_first_triad
    )
    check(
        4,
        "symmetry verification (automorphisms, alternative pairs map onto "
        "(10,11) by the same x-axis turn in both catalogs, body diagonal "
        "cycles rays 1,2,3 in both, identical 180-degree permutations)",
        autos_ok and mapping_ok and same_turns and both_cycle and same_half_turn,
        detail=f"automorphisms={autos_ok} mapping={mapping_ok} "
        f"same_turns={same_turns} both_cycle={both_cycle} "
        f"same_half_turn={same_half_turn}",
    )


def test_criterion_5_criticality():
    graph = reference_graph()
    audit = criticality_audit(graph)
    all_ok = len(audit) == 33
    for deleted, coloring in audit.items():
        reduced = ConstraintSet.from_graph(graph.delete_vertex(deleted))
        all_ok = all_ok and validate_coloring(coloring, reduced)
    reduced_1 = ConstraintSet.from_graph(graph.delete_vertex(1))
    known = coloring_from_greens(KNOWN_DELETE1_GREENS, reduced_1.vertices)
    check(5, "criticality (33/33 deletions colorable, known ray-1 coloring valid)",
          all_ok and validate_coloring(known, reduced_1))


def test_criterion_6_inequivalence_witnesses():
    real_value = overlap2(peres_rays()[8], peres_rays()[13])
    pairs = penrose_mpairs()
    complex_value = overlap2_closed_form(pairs[8], pairs[13])
    quoted_real_magnitude = QRoot2(2, -1) / 4            # (2 - sqrt2)/4
    quoted_complex_square = QRoot2(Fraction(6, 16))      # (sqrt6/4)^2
    check(
        6,
        "inequivalence witnesses (9-14 overlaps (2-sqrt2)/4 vs sqrt6/4, exact)",
        real_value == quoted_real_magnitude * quoted_real_magnitude
        and complex_value == quoted_complex_square
        and real_value != complex_value,
    )


def test_criterion_7_majorana_consistency():
    rng = Random(cli.DEFAULT_SEED)
    max_dev = 0.0
    for _ in range(1000):
        pa = MPair(random_mvector(rng), random_mvector(rng))
        pb = MPair(random_mvector(rng), random_mvector(rng))
        closed = overlap2_closed_form(pa, pb)
        explicit = state_overlap2(state_from_mpair(pa), state_from_mpair(pb))
        max_dev = max(max_dev, abs(closed - explicit))

    worst_roundtrip = 0.0
    for _ in range(1000):
        state = Ray((
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
        ))
        back = state_from_mpair(mpair_from_state(state))
        worst_roundtrip = max(worst_roundtrip, 1.0 - state_overlap2(state, back))

    check(7, "Majorana consistency (closed form within 1e-10, roundtrip within 1e-8)",
          max_dev < 1e-10 and worst_roundtrip < 1e-8,
          detail=f"max_dev={max_dev:.3g}, worst_roundtrip={worst_roundtrip:.3g}")


def test_criterion_8_penrose_recovery():
    recovered = recovered_penrose_mpairs()
    expected = penrose_mpairs()
    matched = sum(
        1 for got, want in zip(recovered, expected)
        if mpairs_match(got, want, tol=1e-7)
    )
    check(8, "recovery of all 33 M-pairs through the rotated family (1e-7)",
          len(recovered) == 33 and matched == 33,
          detail=f"matched={matched}")


def test_criterion_9_cnf_export(tmp_path):
    full_path = tmp_path / "full.cnf"
    assert cli.main(["export-cnf", "--out", str(full_path)]) == 0
    n_vars, clauses = parse_dimacs(full_path.read_text())
    counts_ok = n_vars == 33 and len(clauses) == 88
    unsat_ok = dpll(clauses) is None

    del1_path = tmp_path / "del1.cnf"
    assert cli.main(["export-cnf", "--out", str(del1_path), "--delete", "1"]) == 0
    _, del1_clauses = parse_dimacs(del1_path.read_text())
    audit = criticality_audit(reference_graph())
    model = {ray: color is Color.GREEN for ray, color in audit[1].items()}
    model[1] = False
    sat_ok = all(clause_satisfied(c, model) for c in del1_clauses)

    check(9, "CNF export (33 vars / 88 clauses, UNSAT; delete-1 SAT)",
          counts_ok and unsat_ok and sat_ok)
