import math
from collections import Counter
from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from exact_oracle import ROTATION_111, X_AXIS_TURNS, direction, induced_permutation

from bks33.catalog import FamilyParams, family_rays, penrose_mpairs, peres_rays
from bks33.orthograph import (
    AmbiguousDecompositionError,
    ConstraintSet,
    OrthoGraph,
    build_graph,
    decompose,
    is_automorphism,
    reference_decomposition,
    reference_graph,
)
from bks33.majorana import MPair, MVector
from bks33.rays import Ray
from bks33.scalar import DEFAULT_TOL, ExactComplex, QRoot2

ROTATIONS = (ROTATION_111, *X_AXIS_TURNS.values())


def test_real_graph_has_72_edges_and_reference_decomposition():
    g = build_graph(peres_rays())
    assert g.edge_count == 72
    d = decompose(g)
    assert len(d.triads) == 16
    assert len(d.dyads) == 24
    # whole values: triads and dyads in order, and the vertex set
    assert d == reference_decomposition()
    assert d == ConstraintSet.from_graph(g)
    assert d.vertices == frozenset(range(1, 34))
    assert (1, 2, 3) in d.triads
    assert (10, 24) in d.dyads


def test_reference_table_is_duplicate_free_and_covers_72_edges():
    ref = reference_decomposition()
    assert (3, 24, 27) in ref.triads
    assert (21, 31) in ref.dyads
    edges = ref.edges()
    assert len(edges) == 72 == 3 * len(ref.triads) + len(ref.dyads)


def test_three_catalogs_share_one_graph():
    g_real = build_graph(peres_rays())
    g_complex = build_graph(penrose_mpairs())
    assert g_real == g_complex == reference_graph()
    rng = Random(1234)
    for _ in range(5):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        g_family = build_graph(family_rays(params))
        assert g_family.edges == g_real.edges


def test_nonedges_stay_far_from_zero_in_floating_runs():
    # Bounds from the measured margins: over 500 random phases the largest
    # edge overlap was 2.5e-31 and the smallest non-edge overlap 0.0143068,
    # just above (3 - 2 sqrt2)/12 = 0.0142977, the smallest non-edge value
    # the family takes over all phases.
    from bks33.rays import overlap2

    nonedge_floor = (3 - 2 * math.sqrt(2)) / 12 * (1 - 1e-9)
    # the float orthogonality cutoff must fall inside the measured gap
    assert 1e-28 < DEFAULT_TOL ** 2 < nonedge_floor
    rng = Random(77)
    reference = reference_graph()
    for _ in range(200):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        rays = family_rays(params)
        for i in range(1, 34):
            for j in range(i + 1, 34):
                value = overlap2(rays[i - 1], rays[j - 1])
                if (i, j) in reference.edges:
                    assert value < 1e-28
                else:
                    assert value >= nonedge_floor


def test_decompose_rejects_edge_in_two_triangles():
    k4 = OrthoGraph(
        frozenset({1, 2, 3, 4}),
        frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}),
    )
    with pytest.raises(AmbiguousDecompositionError, match=r"edge \(1, 2\)"):
        decompose(k4)


def brute_force_triangles(g: OrthoGraph) -> list[tuple[int, int, int]]:
    e = g.edges
    return [
        (a, b, c) for a, b, c in combinations(sorted(g.vertices), 3)
        if (a, b) in e and (a, c) in e and (b, c) in e
    ]


def assert_decomposition_matches_oracle(g: OrthoGraph) -> None:
    """Triads are the brute-force triangles and dyads the edges in none,
    unless some edge lies in two triangles: then decompose names one."""
    triangles = brute_force_triangles(g)
    in_triangles = Counter(e for a, b, c in triangles for e in ((a, b), (a, c), (b, c)))
    shared = [e for e, n in in_triangles.items() if n > 1]
    if shared:
        with pytest.raises(AmbiguousDecompositionError) as exc:
            decompose(g)
        assert any(f"edge {e} " in str(exc.value) for e in shared)
        return
    d = decompose(g)
    assert d.triads == tuple(triangles)
    assert d.dyads == tuple(e for e in sorted(g.edges) if e not in in_triangles)
    assert d.vertices == g.vertices


def relabeled(g: OrthoGraph, rng: Random) -> OrthoGraph:
    labels = sorted(g.vertices)
    images = labels[:]
    rng.shuffle(images)
    perm = dict(zip(labels, images))
    return OrthoGraph(
        frozenset(images),
        frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges),
    )


def test_decomposition_matches_brute_force_on_the_diagram_and_its_deletions():
    g = reference_graph()
    assert_decomposition_matches_oracle(g)
    assert len(decompose(g).triads) == 16
    for u in range(1, 34):
        reduced = g.delete_vertex(u)
        assert_decomposition_matches_oracle(reduced)
        for v in range(u + 1, 34):
            assert_decomposition_matches_oracle(reduced.delete_vertex(v))


def test_decomposition_matches_brute_force_on_relabeled_diagrams():
    rng = Random(64)
    for _ in range(64):
        assert_decomposition_matches_oracle(relabeled(reference_graph(), rng))


@st.composite
def small_graphs(draw) -> OrthoGraph:
    vertices = sorted(draw(st.sets(st.integers(0, 40), max_size=12)))
    pairs = list(combinations(vertices, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return OrthoGraph(frozenset(vertices), frozenset(edges))


@given(small_graphs())
def test_decomposition_matches_brute_force_on_small_graphs(g):
    assert_decomposition_matches_oracle(g)


def test_build_graph_requires_33_entries():
    with pytest.raises(ValueError):
        build_graph(peres_rays()[:10])


def test_build_graph_rejects_a_catalog_of_exact_and_float_entries():
    rays = peres_rays()
    rays[4] = Ray(tuple(map(complex, rays[4].components)))
    with pytest.raises(ValueError, match="exact ray with a float ray"):
        build_graph(rays)
    pairs = penrose_mpairs()
    pairs[4] = MPair(MVector(0.0, 0.0, 1.0), pairs[4].second)
    with pytest.raises(ValueError, match="exact M-pair with a float M-pair"):
        build_graph(pairs)


def test_build_graph_rejects_an_mpair_norm_product_outside_the_field():
    # norm 3 against the catalog's norms 1 and 2: sqrt(3) and sqrt(6) are not in Q(sqrt2)
    pairs = penrose_mpairs()
    pairs[32] = MPair(MVector(1, 1, 1), pairs[32].second)
    with pytest.raises(ValueError, match="not in Q\\(sqrt2\\)"):
        build_graph(pairs)


def test_induced_permutation_body_diagonal():
    perm = induced_permutation(ROTATION_111, peres_rays())
    assert perm[1] == 2 and perm[2] == 3 and perm[3] == 1
    pairs_perm = induced_permutation(ROTATION_111, penrose_mpairs())
    assert pairs_perm[1] == 2 and pairs_perm[2] == 3 and pairs_perm[3] == 1


def test_induced_permutations_are_automorphisms():
    g = reference_graph()
    for catalog in (peres_rays(), penrose_mpairs()):
        assert is_automorphism(induced_permutation(ROTATION_111, catalog), g)
        for rotation in X_AXIS_TURNS.values():
            assert is_automorphism(induced_permutation(rotation, catalog), g)


def test_x180_fixes_ray_1_and_matches_across_catalogs():
    rot = X_AXIS_TURNS[180]
    real_perm = induced_permutation(rot, peres_rays())
    assert real_perm[1] == 1
    assert induced_permutation(rot, penrose_mpairs()) == real_perm


def test_catalog_geometries_induce_different_permutations():
    # The shared numbering aligns the two orthogonality graphs, not the
    # underlying geometry: ray 6 lies along (1,0,1) and rotates onto ray 9
    # = (1,1,0), while M-pair 6 = {+-(1,0,1)} rotates onto pair 8 =
    # {+-(1,1,0)}.  Both permutations are automorphisms of the same graph.
    real_perm = induced_permutation(ROTATION_111, peres_rays())
    pair_perm = induced_permutation(ROTATION_111, penrose_mpairs())
    assert real_perm[6] == 9
    assert pair_perm[6] == 8
    assert real_perm != pair_perm


def test_permutation_composition_and_inverse_stay_automorphisms():
    g = reference_graph()
    p = induced_permutation(ROTATION_111, peres_rays())
    q = induced_permutation(X_AXIS_TURNS[90], peres_rays())
    composed = {i: p[q[i]] for i in q}
    inverse = {v: k for k, v in p.items()}
    assert is_automorphism(composed, g)
    assert is_automorphism(inverse, g)
    identity = {i: i for i in g.vertices}
    assert is_automorphism(identity, g)


def test_plain_transposition_is_not_an_automorphism():
    g = reference_graph()
    swap = {i: i for i in g.vertices}
    swap[1], swap[2] = 2, 1
    assert not is_automorphism(swap, g)


def test_not_closed_rotation_raises():
    # the oracle fails loudly where a turn leaves the catalog
    broken = peres_rays()
    broken[1] = Ray(tuple(ExactComplex(v) for v in (1, 1, 1)), index=2)
    with pytest.raises(KeyError):
        induced_permutation(ROTATION_111, broken)


def test_duplicated_entry_raises():
    # ... and where two entries name one ray, so the images repeat
    rays = peres_rays()
    with pytest.raises(ValueError, match="does not permute"):
        induced_permutation(ROTATION_111, rays + [rays[0]])
    pairs = penrose_mpairs()
    with pytest.raises(ValueError, match="does not permute"):
        induced_permutation(ROTATION_111, pairs + [MPair(pairs[21].second, pairs[21].first)])


def rescaled_catalogs() -> tuple[list[Ray], list[MPair]]:
    """Both catalogs with every entry rescaled, M-pairs also swapped."""
    # nonzero elements of Z[sqrt2, i]: 1+sqrt2, i, 2-i
    factors = (ExactComplex(QRoot2(1, 1)), ExactComplex(0, 1), ExactComplex(2, -1))
    scaled_rays = [
        Ray(tuple(factors[i % 3] * c for c in r.components))
        for i, r in enumerate(peres_rays())
    ]

    def scaled(v: MVector, k: int) -> MVector:
        return MVector(k * v.x, k * v.y, k * v.z)

    scaled_pairs = [
        MPair(scaled(p.second, i % 4 + 1), scaled(p.first, i % 5 + 2))
        for i, p in enumerate(penrose_mpairs())
    ]
    return scaled_rays, scaled_pairs


def test_permutations_ignore_entry_rescaling():
    rays, pairs = peres_rays(), penrose_mpairs()
    scaled_rays, scaled_pairs = rescaled_catalogs()
    for rotation in ROTATIONS:
        assert induced_permutation(rotation, scaled_rays) == induced_permutation(rotation, rays)
        assert induced_permutation(rotation, scaled_pairs) == induced_permutation(rotation, pairs)


def test_mvector_keys_keep_sign_and_drop_scale():
    # the oracle matches M-pairs by these directions: a vector and its
    # negative are different directions, a vector and its multiple are not
    assert direction(MVector(0, -2, -2)) == direction(MVector(0, -1, -1)) == (0, -1, -1)
    assert direction(MVector(0, -2, -2)) != direction(MVector(0, 1, 1))


def test_x_axis_turns_are_powers_of_the_quarter_turn():
    for catalog in (peres_rays(), penrose_mpairs(), *rescaled_catalogs()):
        quarter = induced_permutation(X_AXIS_TURNS[90], catalog)
        square = {i: quarter[quarter[i]] for i in quarter}
        cube = {i: quarter[square[i]] for i in quarter}
        assert induced_permutation(X_AXIS_TURNS[180], catalog) == square
        assert induced_permutation(X_AXIS_TURNS[270], catalog) == cube
        assert {i: quarter[cube[i]] for i in quarter} == {i: i for i in quarter}


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def apply(m, v):
    return tuple(sum(p * q for p, q in zip(row, v)) for row in m)


def det(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_rotation_constants_are_proper_turns():
    quarter = X_AXIS_TURNS[90]
    for m in (ROTATION_111, quarter):
        assert det(m) == 1
        assert matmul(m, tuple(zip(*m))) == IDENTITY  # orthonormal rows
    x, y, z = IDENTITY
    square = matmul(ROTATION_111, ROTATION_111)
    assert IDENTITY not in (ROTATION_111, square)
    assert matmul(square, ROTATION_111) == IDENTITY
    assert [apply(ROTATION_111, v) for v in (x, y, z)] == [y, z, x]
    powers = [quarter]
    for _ in range(3):
        powers.append(matmul(powers[-1], quarter))
    assert IDENTITY not in powers[:3] and powers[3] == IDENTITY
    assert apply(quarter, x) == x
    # the half and three-quarter turns are the quarter turn's powers
    assert powers[:3] == [X_AXIS_TURNS[90], X_AXIS_TURNS[180], X_AXIS_TURNS[270]]


def test_delete_vertex():
    reduced = reference_graph().delete_vertex(1)
    assert 1 not in reduced.vertices
    assert reduced.edge_count == 72 - 8
    with pytest.raises(ValueError, match="not in graph"):
        reduced.delete_vertex(1)
