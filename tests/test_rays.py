import math
from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bks33.rays
import exact_oracle as oracle
from bks33.catalog import FamilyParams, family_rays, peres_rays
from bks33.orthograph import build_graph
from bks33.rays import Ray, inner, is_orthogonal, overlap2
from bks33.scalar import DEFAULT_TOL, ExactComplex, QRoot2, abs2


def exact_ray(*entries):
    return Ray(tuple(ExactComplex(e) for e in entries))


def test_inner_basis_examples():
    assert not inner(exact_ray(1, 0, 0), exact_ray(0, 1, 0))
    assert inner(exact_ray(1, 0, 0), exact_ray(1, 0, 0)) == ExactComplex(1)


def test_inner_9_14_expands_to_sqrt2_minus_one():
    rays = peres_rays()
    assert inner(rays[8], rays[13]) == ExactComplex(QRoot2(-1, 1))


def test_overlap2_9_14_squares_the_quoted_magnitude():
    rays = peres_rays()
    magnitude = QRoot2(2, -1) / 4
    assert overlap2(rays[8], rays[13]) == magnitude * magnitude
    assert magnitude * magnitude == QRoot2(6, -4) / 16


def test_overlap2_orthogonal_and_self():
    rays = peres_rays()
    assert overlap2(rays[0], rays[3]) == 0
    for ray in rays[:5]:
        assert overlap2(ray, ray) == 1


def test_is_orthogonal_examples():
    rays = peres_rays()
    assert is_orthogonal(rays[0], rays[1])
    assert not is_orthogonal(rays[8], rays[13])
    assert is_orthogonal(rays[9], rays[23])


def test_key_equality_is_projective_equality():
    # the oracle's key, by which the geometric tests match rays
    key = oracle.key(exact_ray(1, 1, 0))
    assert oracle.key(exact_ray(-1, -1, 0)) == key
    i = ExactComplex(0, 1)
    assert oracle.key(Ray((i, i, ExactComplex(0)))) == key
    assert oracle.key(exact_ray(1, -1, 0)) != key


def test_zero_ray_rejected():
    with pytest.raises(ValueError):
        exact_ray(0, 0, 0)
    with pytest.raises(ValueError):
        Ray((0j, 0j, 0j))


small = st.builds(QRoot2, st.integers(-2, 2), st.integers(-2, 2))
exact_scalars = st.builds(ExactComplex, small, small)
exact_rays = (
    st.tuples(exact_scalars, exact_scalars, exact_scalars)
    .filter(lambda t: any(bool(c) for c in t))
    .map(Ray)
)
nonzero_scalars = exact_scalars.filter(bool)


@given(exact_rays, exact_rays)
def test_overlap2_is_symmetric(a, b):
    assert overlap2(a, b) == overlap2(b, a)


@given(exact_rays, exact_rays, nonzero_scalars, nonzero_scalars)
def test_overlap2_is_scale_invariant(a, b, s, t):
    scaled_a = Ray(tuple(c * s for c in a.components))
    scaled_b = Ray(tuple(c * t for c in b.components))
    assert overlap2(scaled_a, scaled_b) == overlap2(a, b)


def test_overlap2_scale_invariance_floating():
    rng = Random(20240811)
    for _ in range(50):
        a = Ray(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)))
        b = Ray(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)))
        s = complex(rng.gauss(0, 1), rng.gauss(0, 1)) or 1.0
        scaled = Ray(tuple(c * s for c in a.components))
        assert overlap2(scaled, b) == pytest.approx(overlap2(a, b), abs=1e-12)


def test_exact_and_approx_orthogonality_agree_on_all_pairs():
    rays = peres_rays()
    approx = [Ray(tuple(map(complex, r.components))) for r in rays]
    pairs = list(combinations(range(33), 2))
    assert len(pairs) == 528
    for i, j in pairs:
        assert is_orthogonal(rays[i], rays[j]) == is_orthogonal(approx[i], approx[j])


def test_norm2_positive():
    for ray in peres_rays():
        assert ray.norm2.sign() > 0


float_components = st.one_of(
    st.floats(-1e6, 1e6),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@given(st.tuples(float_components, float_components, float_components).filter(any))
def test_float_norm2_is_set_on_construction(c):
    ray = Ray(c)
    assert "norm2" in vars(ray)
    assert repr(ray.norm2) == repr(abs2(c[0]) + abs2(c[1]) + abs2(c[2]))


def test_float_norm2_of_family_rays_is_the_documented_expression():
    rng = Random(3)
    for _ in range(8):
        params = FamilyParams(*(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)))
        for ray in family_rays(params):
            c = ray.components
            assert "norm2" in vars(ray)
            assert repr(ray.norm2) == repr(abs2(c[0]) + abs2(c[1]) + abs2(c[2]))


#: The arithmetic methods of the exact scalars.
EXACT_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__",
)


def test_exact_ray_construction_runs_no_exact_arithmetic(monkeypatch):
    # an exact ray's norm waits for first use, so exact-path workloads that
    # never read it do not pay for it
    components = [ray.components for ray in peres_rays()]
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for cls in (QRoot2, ExactComplex):
        for name in EXACT_ARITHMETIC:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(name, vars(cls)[name]))
    built = [Ray(c) for c in components]
    monkeypatch.undo()
    assert calls == []
    assert not any("norm2" in vars(ray) for ray in built)
    for ray in built:
        c = ray.components
        assert ray.norm2 == abs2(c[0]) + abs2(c[1]) + abs2(c[2])


def test_mixed_components_rejected():
    with pytest.raises(ValueError, match="all exact or all float"):
        Ray((ExactComplex(1), 1j, 0j))
    with pytest.raises(ValueError, match="all exact or all float"):
        Ray((0j, 1j, ExactComplex(0)))


def test_exact_and_float_rays_are_not_compared():
    exact = peres_rays()[0]
    approx = Ray((1 + 0j, 1j, 0j))
    for a, b in ((exact, approx), (approx, exact)):
        with pytest.raises(ValueError, match="exact ray with a float ray"):
            is_orthogonal(a, b)
        with pytest.raises(ValueError, match="exact ray with a float ray"):
            overlap2(a, b)


def random_float_ray(rng):
    return Ray(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)))


def generic_family(rng):
    return family_rays(FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3))))


def test_float_pair_test_computes_each_norm_once(monkeypatch):
    calls = []

    def counting_abs2(z):
        calls.append(z)
        return abs2(z)

    monkeypatch.setattr(bks33.rays, "abs2", counting_abs2)
    rays = generic_family(Random(11))
    assert not any(ray.is_exact for ray in rays)
    build_graph(rays)
    # three per ray for its norm, one per pair for |<a|b>|^2
    assert len(calls) <= 33 * 3 + 528


def oracle_overlap2(a, b):
    """overlap2 spelled out without Ray.norm2, operands in the same order."""
    x, y = a.components, b.components
    return abs2(inner(a, b)) / (
        (abs2(x[0]) + abs2(x[1]) + abs2(x[2])) * (abs2(y[0]) + abs2(y[1]) + abs2(y[2]))
    )


def test_float_overlap2_is_bit_identical_to_the_per_pair_norm_oracle():
    # generic family points, and 33 random rays in which each even position
    # holds a ray within about DEFAULT_TOL of orthogonal to the one before
    rng = Random(4099)
    catalogs = [generic_family(rng) for _ in range(5)]
    near = []
    for _ in range(17):
        near.append(random_float_ray(rng))
        near.append(near_orthogonal_ray(near[-1], rng))
    catalogs.append(near[:33])
    for rays in catalogs:
        oracle_edges = set()
        for (i, a), (j, b) in combinations(enumerate(rays, start=1), 2):
            value = oracle_overlap2(a, b)
            assert overlap2(a, b) == value
            if value < DEFAULT_TOL * DEFAULT_TOL:
                oracle_edges.add((i, j))
        assert build_graph(rays).edges == oracle_edges
    assert {(i, i + 1) in oracle_edges for i in range(1, 33, 2)} == {True, False}
    for _ in range(200):
        a, b = random_float_ray(rng), random_float_ray(rng)
        assert overlap2(a, b) == oracle_overlap2(a, b)


def near_orthogonal_ray(a, rng):
    """A float ray whose overlap with ``a`` is about eps^2, eps near DEFAULT_TOL."""
    b = random_float_ray(rng).components
    x = a.components
    along = sum(xi.conjugate() * bi for xi, bi in zip(x, b)) / a.norm2
    eps = DEFAULT_TOL * rng.uniform(0.5, 2.0)
    return Ray(tuple(bi - along * xi + eps * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for xi, bi in zip(x, b)))


def test_float_is_orthogonal_decides_exactly_like_overlap2():
    rng = Random(528)
    for _ in range(50):
        for a, b in combinations(generic_family(rng), 2):
            assert is_orthogonal(a, b) == (overlap2(a, b) < DEFAULT_TOL ** 2)
    decisions = set()
    for _ in range(500):
        a = random_float_ray(rng)
        for b in (random_float_ray(rng), near_orthogonal_ray(a, rng)):
            decision = overlap2(a, b) < DEFAULT_TOL ** 2
            assert is_orthogonal(a, b) == decision
            decisions.add(decision)
    assert decisions == {True, False}


def test_float_is_orthogonal_value_is_bit_identical_to_overlap2(monkeypatch):
    # With the cutoff squared placed within an ulp or two of overlap2's
    # value, any change in the last bit of the value tested flips a decision.
    rng = Random(4096)
    pairs = list(combinations(generic_family(rng), 2))[:100]
    pairs += [(random_float_ray(rng), random_float_ray(rng)) for _ in range(100)]
    for a, b in pairs:
        value = overlap2(a, b)
        root = math.sqrt(value)
        for tol in (math.nextafter(root, 0), root, math.nextafter(root, 1)):
            monkeypatch.setattr(bks33.rays, "DEFAULT_TOL", tol)
            assert is_orthogonal(a, b) == (value < tol * tol)


def test_build_graph_splits_pairs_like_overlap2_at_an_ulp_placed_cutoff(monkeypatch):
    # test_float_is_orthogonal_value_is_bit_identical_to_overlap2 on whole
    # catalogs: with the cutoff squared within an ulp or two of one pair's
    # overlap2, the graph holds exactly the pairs whose overlap2 is below it
    rng = Random(4097)
    for rays in (generic_family(rng), [random_float_ray(rng) for _ in range(33)]):
        values = {
            (i, j): overlap2(a, b)
            for (i, a), (j, b) in combinations(enumerate(rays, start=1), 2)
        }
        for value in rng.sample(sorted(values.values()), 10):
            root = math.sqrt(value)
            for tol in (math.nextafter(root, 0), root, math.nextafter(root, 1)):
                monkeypatch.setattr(bks33.rays, "DEFAULT_TOL", tol)
                want = {pair for pair, v in values.items() if v < tol * tol}
                assert build_graph(rays).edges == want


@given(exact_rays)
def test_self_inner_product_is_real_and_positive(a):
    value = inner(a, a)
    assert not value.imag
    assert value.real.sign() > 0
