import math
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exact_oracle as oracle
from bks33.catalog import penrose_from_family, penrose_mpairs
from bks33 import majorana
from bks33.majorana import (
    MPair,
    MVector,
    catalog_sweep,
    mpair_from_state,
    mpairs_match,
    overlap2_closed_form,
    random_mvector,
    spinor_from_direction,
    state_from_mpair,
    state_overlap2,
)
from bks33.orthograph import reference_decomposition
from bks33.rays import Ray, overlap2
from bks33.scalar import QRoot2

PLUS_Z = MVector(0, 0, 1)
MINUS_Z = MVector(0, 0, -1)
PLUS_X = MVector(1, 0, 0)


def assert_state_close(s: Ray, expected, tol=1e-12):
    got = s.components
    # align global phase on the largest expected component
    pivot = max(range(3), key=lambda i: abs(expected[i]))
    phase = expected[pivot] / got[pivot]
    assert abs(abs(phase) - 1) < tol
    for g, e in zip(got, expected):
        assert abs(g * phase - e) < tol


def test_spinor_anchors():
    up = spinor_from_direction(PLUS_Z)
    assert up[0] == pytest.approx(1) and up[1] == pytest.approx(0)
    down = spinor_from_direction(MINUS_Z)
    # azimuth is undefined at -z; the convention pins it to zero
    assert down[0] == pytest.approx(0) and down[1] == pytest.approx(1)
    side = spinor_from_direction(PLUS_X)
    assert side[0].real == pytest.approx(1 / math.sqrt(2))
    assert side[1] == pytest.approx(complex(1 / math.sqrt(2)))


def test_state_anchors():
    assert_state_close(state_from_mpair(MPair(PLUS_Z, PLUS_Z)), (1, 0, 0))
    assert_state_close(state_from_mpair(MPair(PLUS_Z, MINUS_Z)), (0, 1, 0))
    assert_state_close(state_from_mpair(MPair(MINUS_Z, MINUS_Z)), (0, 0, 1))


def units_match(p: MPair, q: MPair, tol: float = 1e-12) -> bool:
    """Unordered match of the unit vectors of two pairs, componentwise within tol."""

    def close(u: MVector, v: MVector) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(u.unit(), v.unit()))

    return (close(p.first, q.first) and close(p.second, q.second)) or (
        close(p.first, q.second) and close(p.second, q.first)
    )


def test_root_extraction_anchors():
    assert units_match(mpair_from_state(Ray((1, 0, 0))), MPair(PLUS_Z, PLUS_Z))
    assert units_match(mpair_from_state(Ray((0, 0, 1))), MPair(MINUS_Z, MINUS_Z))
    assert units_match(mpair_from_state(Ray((0, 1, 0))), MPair(PLUS_Z, MINUS_Z))


def test_exact_state_extracts_like_its_complex_copy():
    # an exact ray reads complex() of each component, as the complex copy
    # of the ray holds them, so both give the same pair to the last bit
    for ray in penrose_from_family():
        assert ray.is_exact
        copy = Ray(tuple(complex(c) for c in ray.components))
        assert mpair_from_state(ray) == mpair_from_state(copy)


def test_doubled_pair_state_matches_catalog_orthogonalities():
    pairs = penrose_mpairs()
    state_10 = state_from_mpair(pairs[9])
    for other in (4, 13, 24, 25):
        state_other = state_from_mpair(pairs[other - 1])
        assert overlap2(state_10, state_other) == pytest.approx(0, abs=1e-20)


def test_closed_form_same_pair_is_one():
    pairs = penrose_mpairs()
    for p in pairs:
        assert overlap2_closed_form(p, p) == 1
    rng = Random(5)
    for _ in range(20):
        p = MPair(random_mvector(rng), random_mvector(rng))
        assert overlap2_closed_form(p, p) == pytest.approx(1, abs=1e-12)


def test_closed_form_catalog_values():
    pairs = penrose_mpairs()
    assert overlap2_closed_form(pairs[0], pairs[1]) == 0
    assert overlap2_closed_form(pairs[8], pairs[13]) == QRoot2(3) / 8


def test_closed_form_catalog_sweep_zero_pattern():
    pairs = penrose_mpairs()
    reference = reference_decomposition().edges()
    zeros = set()
    for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2):
        value = overlap2_closed_form(a, b)
        assert isinstance(value, QRoot2)
        if value == 0:
            zeros.add((i, j))
        else:
            assert value.sign() > 0
    assert zeros == set(reference)
    assert len(zeros) == 72
    # the one-pass sweep of the CLI gives the same verdicts
    assert catalog_sweep(pairs) == (sorted(zeros), True)


def test_catalog_sweep_flags_a_pair_that_is_not_positive(monkeypatch):
    # Y >= 4R > 0 on real pairs, so stand-in rows (i, j, X0, X1, Y0, Y1) reach
    # the other branches: X = 0, X = 3 with Y = -4, and X, Y both positive
    rows = [(1, 2, 0, 0, 1, 0), (1, 3, 3, 0, -4, 0), (2, 3, 1, 1, 2, 1)]
    monkeypatch.setattr(majorana, "_closed_form_ints", lambda pairs: iter(rows))
    assert catalog_sweep([]) == ([(1, 2)], False)
    monkeypatch.setattr(majorana, "_closed_form_ints", lambda pairs: iter(rows[::2]))
    assert catalog_sweep([]) == ([(1, 2)], True)


#: Integer directions by norm class: within a class every norm product, after
#: rescaling, is s^2 or 2*s^2; across the classes none is.
NORM_CLASSES = {
    norms: [v for v in product(range(-2, 3), repeat=3) if sum(c * c for c in v) in norms]
    for norms in ((1, 2), (3, 6))
}


def class_mvectors(norms):
    return st.builds(lambda v, sign, k: MVector(*(sign * k * c for c in v)),
                     st.sampled_from(NORM_CLASSES[norms]), st.sampled_from((-1, 1)),
                     st.integers(1, 7))


def class_catalogs(norms):
    pair = st.builds(MPair, class_mvectors(norms), class_mvectors(norms))
    return st.lists(pair, min_size=2, max_size=6)


@given(st.sampled_from(sorted(NORM_CLASSES)).flatmap(class_catalogs))
def test_integer_kernels_match_the_generic_closed_form(pairs):
    values = {(i, j): oracle.closed_form(a, b)
              for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2)}
    zeros = [ij for ij, value in values.items() if value == 0]
    assert MPair.orthogonal_pairs(pairs) == zeros
    assert catalog_sweep(pairs) == (zeros, all(value > 0 for value in values.values() if value))
    for (i, j), value in values.items():
        assert overlap2_closed_form(pairs[i - 1], pairs[j - 1]) == value


@given(class_catalogs((1, 2)), class_mvectors((3, 6)), class_mvectors((1, 2)), st.data())
def test_integer_kernels_reject_a_catalog_mixing_norm_classes(pairs, u, v, data):
    # |u|^2 |v|^2 is 3, 6 or 12 times a square, so sqrt of it is not in Q(sqrt2)
    mixed = list(pairs)
    mixed.insert(data.draw(st.integers(0, len(pairs))), MPair(u, v))
    for kernel in (MPair.orthogonal_pairs, catalog_sweep):
        with pytest.raises(ValueError):
            kernel(mixed)


def test_integer_kernels_take_an_empty_catalog():
    assert MPair.orthogonal_pairs([]) == []
    assert catalog_sweep([]) == ([], True)


def test_closed_form_cross_validates_against_states():
    rng = Random(42)
    max_dev = 0.0
    for _ in range(1000):
        pa = MPair(random_mvector(rng), random_mvector(rng))
        pb = MPair(random_mvector(rng), random_mvector(rng))
        closed = overlap2_closed_form(pa, pb)
        explicit = overlap2(state_from_mpair(pa), state_from_mpair(pb))
        max_dev = max(max_dev, abs(closed - explicit))
    assert max_dev < 1e-10


def test_roundtrip_random_states():
    rng = Random(42)
    worst = 0.0
    for _ in range(1000):
        comps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
        if all(abs(c) < 1e-6 for c in comps):
            continue
        state = Ray(tuple(comps))
        back = state_from_mpair(mpair_from_state(state))
        worst = max(worst, 1.0 - overlap2(state, back))
    assert worst < 1e-8
    # the second name, kept for perfbench/, is the same function
    assert state_overlap2(state, back) == overlap2(state, back)


def test_pair_order_invariance():
    rng = Random(7)
    for _ in range(50):
        a1, a2 = random_mvector(rng), random_mvector(rng)
        b1, b2 = random_mvector(rng), random_mvector(rng)
        base = overlap2_closed_form(MPair(a1, a2), MPair(b1, b2))
        assert overlap2_closed_form(MPair(a2, a1), MPair(b1, b2)) == pytest.approx(base)
        assert overlap2_closed_form(MPair(a1, a2), MPair(b2, b1)) == pytest.approx(base)


def float_unit_dot(u: MVector, v: MVector) -> float:
    """Dot product of the unit() directions, summed x, y, z in order."""
    x, y = u.unit(), v.unit()
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def test_denominator_positivity():
    rng = Random(11)
    for _ in range(200):
        ta = float_unit_dot(random_mvector(rng), random_mvector(rng))
        tb = float_unit_dot(random_mvector(rng), random_mvector(rng))
        assert (3 + ta) * (3 + tb) >= 4 - 1e-9
    pairs = penrose_mpairs()
    for p in pairs:
        ta = oracle.unit_dot(p.first, p.second)
        assert ((3 + ta) * (3 + ta)).sign() > 0
        assert (3 + ta) * (3 + ta) >= 4
        # the kernel's X/Y carries the same denominator, times a positive root
        assert overlap2_closed_form(p, p) == 1
    for p, q in combinations(pairs, 2):
        value = overlap2_closed_form(p, q)
        assert value.sign() >= 0 and (1 - value).sign() >= 0


def test_unit_dot_exact_path():
    # a doubled pair (u, u) against (v, v) has overlap2 ((1 + t) / 2)^2 for
    # the unit dot t of u and v; here t is 0, 0, sqrt2/2 and -1
    for u, v, t in (
        (MVector(0, 1, 1), MVector(0, 1, -1), QRoot2(0)),
        (MVector(1, 0, 0), MVector(0, 1, 1), QRoot2(0)),
        (MVector(1, 1, 0), MVector(1, 0, 0), QRoot2(0, 1) / 2),
        (MVector(1, 1, 0), MVector(-1, -1, 0), QRoot2(-1)),
    ):
        assert overlap2_closed_form(MPair(u, u), MPair(v, v)) == ((1 + t) / 2) * ((1 + t) / 2)


def test_int_components_stay_exact_ints():
    v, w = MVector(2, -3, 0), MVector(0, 4, 5)
    assert all(type(c) is int for c in (v.x, v.y, v.z, v.norm2, v.dot(w)))
    assert v.is_exact and w.is_exact
    assert not MVector(2.0, -3, 0).is_exact


def test_float_mvector_norm2_is_set_on_construction():
    # an exact vector's norm waits for first use; both are x*x + y*y + z*z
    rng = Random(11)
    vectors = [v for p in penrose_mpairs() for v in (p.first, p.second)]
    vectors += [random_mvector(rng) for _ in range(200)]
    vectors += [MVector(rng.randint(-9, 9), rng.uniform(-9, 9), 1) for _ in range(50)]
    vectors += [mpair_from_state(state_from_mpair(MPair(PLUS_X, PLUS_Z))).first]
    assert any(v.is_exact for v in vectors) and not all(v.is_exact for v in vectors)
    for v in vectors:
        assert ("norm2" in vars(v)) is not v.is_exact
        # repr tells int from float and pins every bit of a float
        assert repr(v.norm2) == repr(v.x * v.x + v.y * v.y + v.z * v.z)


# unit directions with norm2 1 and 2, the two norms of the catalog
BASE_DIRECTIONS = ((1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 1, -1), (-1, 0, 1))


@pytest.mark.parametrize("k", range(1, 8))
def test_unit_dot_exact_for_scaled_norms(k):
    # norms k^2 * {1, 2} against norms j^2 * {1, 2}: every unit dot has a norm
    # product s^2 or 2*s^2, and the closed form does not see the scale
    pairs = list(combinations(BASE_DIRECTIONS, 2)) + [(u, u) for u in BASE_DIRECTIONS]
    for u1, u2 in pairs:
        for v1, v2 in pairs:
            base = overlap2_closed_form(MPair(MVector(*u1), MVector(*u2)),
                                        MPair(MVector(*v1), MVector(*v2)))
            approx = overlap2_closed_form(MPair(MVector(*map(float, u1)), MVector(*map(float, u2))),
                                          MPair(MVector(*map(float, v1)), MVector(*map(float, v2))))
            assert float(base) == pytest.approx(approx, abs=1e-15)
            for j in range(1, 8):
                scaled = overlap2_closed_form(
                    MPair(MVector(*(k * a for a in u1)), MVector(*(j * a for a in u2))),
                    MPair(MVector(*(j * b for b in v1)), MVector(*(k * b for b in v2))),
                )
                assert isinstance(scaled, QRoot2) and scaled == base


def test_integer_rescaled_catalog_keeps_zero_pattern_and_witness():
    # the positive integer factors the exact-catalogs benchmark draws from
    factors = (1, 2, 3, 4, 5, 7)

    def scaled(v: MVector, k: int) -> MVector:
        return MVector(k * v.x, k * v.y, k * v.z)

    pairs = [
        MPair(scaled(p.first, factors[i % 6]), scaled(p.second, factors[(5 * i + 2) % 6]))
        for i, p in enumerate(penrose_mpairs())
    ]
    zeros = {
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2)
        if overlap2_closed_form(a, b) == 0
    }
    assert zeros == set(reference_decomposition().edges())
    assert overlap2_closed_form(pairs[8], pairs[13]).canonical_str() == "3/8"


def test_unit_dot_outside_field_raises():
    # norm product 3 * 1 is neither s^2 nor 2*s^2
    diagonal, axis = MVector(1, 1, 1), MVector(1, 0, 0)
    with pytest.raises(ValueError):
        overlap2_closed_form(MPair(diagonal, axis), MPair(axis, axis))
    with pytest.raises(ValueError):
        overlap2_closed_form(MPair(axis, axis), MPair(diagonal, diagonal))
    # norm products 3 * 3: pairs of norm-3 vectors stay in the field
    other = MVector(1, -1, 1)
    value = overlap2_closed_form(MPair(diagonal, other), MPair(other, MVector(-1, 1, 1)))
    assert value == oracle.closed_form(MPair(diagonal, other), MPair(other, MVector(-1, 1, 1)))
    assert overlap2_closed_form(MPair(diagonal, other), MPair(other, diagonal)) == 1


@pytest.mark.parametrize("a, b", [
    (MVector(1.0, 1.0, 1.0), MVector(1, 0, 0)),
    (MVector(1, 0, 0), MVector(0.0, 1.0, 1.0)),
    (MVector(0.6, 0.8, 0.0), MVector(0.0, 0.6, 0.8)),
])
def test_unit_dot_rejects_float_mvectors(a, b):
    exact = penrose_mpairs()[9]
    for pa, pb in ((MPair(a, b), exact), (exact, MPair(b, a))):
        with pytest.raises(ValueError, match="exact M-pair with a float M-pair"):
            overlap2_closed_form(pa, pb)


def test_mpair_unordered_equality_and_match():
    p = MPair(PLUS_Z, PLUS_X)
    q = MPair(PLUS_X, PLUS_Z)
    assert mpairs_match(p, q)
    assert not mpairs_match(p, MPair(PLUS_Z, MINUS_Z))
    # scale-insensitive: match compares unit vectors
    assert mpairs_match(MPair(MVector(0, 2, 2), MVector(1, 0, 0)),
                        MPair(MVector(1, 0, 0), MVector(0.0, 0.7071067811865475, 0.7071067811865475)))


def test_zero_mvector_rejected():
    with pytest.raises(ValueError):
        MVector(0, 0, 0)


def test_exact_and_float_pairs_are_not_compared():
    exact = penrose_mpairs()[0]
    approx = MPair(MVector(0.0, 0.0, 1.0), MVector(1.0, 0.0, 0.0))
    for a, b in ((exact, approx), (approx, exact)):
        with pytest.raises(ValueError, match="exact M-pair with a float M-pair"):
            overlap2_closed_form(a, b)
        with pytest.raises(ValueError, match="exact M-pair with a float M-pair"):
            MPair.orthogonal_pairs([a, b])


def test_pair_with_one_float_vector_is_a_float_pair():
    half = MPair(MVector(0, 0, 1), MVector(1.0, 0.0, 0.0))
    assert not half.is_exact
    same = MPair(MVector(0.0, 0.0, 1.0), MVector(1.0, 0.0, 0.0))
    for other in (same, half):
        value = overlap2_closed_form(half, other)
        assert type(value) is float and value == pytest.approx(1.0)
    x_axis = MPair(MVector(1.0, 0.0, 0.0), MVector(-1, 0, 0))
    y_axis = MPair(MVector(0.0, 1.0, 0.0), MVector(0, -1, 0))
    assert overlap2_closed_form(x_axis, y_axis) == 0
    assert MPair.orthogonal_pairs([half, same, x_axis, y_axis]) == [(3, 4)]


def unit_dot_formula(pa, pb):
    """The closed form spelled out over unit() dots."""
    dot = float_unit_dot
    a1, a2, b1, b2 = pa.first, pa.second, pb.first, pb.second
    t11, t12, t21, t22 = dot(a1, b1), dot(a1, b2), dot(a2, b1), dot(a2, b2)
    ta, tb = dot(a1, a2), dot(b1, b2)
    num = 2 * ((1 + t11) * (1 + t22) + (1 + t12) * (1 + t21)) - (1 - ta) * (1 - tb)
    return num / ((3 + ta) * (3 + tb))


def test_float_closed_form_is_bit_identical_to_the_unit_dot_formula():
    rng = Random(200)
    for _ in range(200):
        pa = MPair(random_mvector(rng), random_mvector(rng))
        pb = MPair(random_mvector(rng), random_mvector(rng))
        assert overlap2_closed_form(pa, pb).hex() == unit_dot_formula(pa, pb).hex()
