from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bks33.catalog import peres_rays
from bks33.rays import Ray, inner, is_orthogonal, norm2, overlap2
from bks33.scalar import ExactComplex, QRoot2


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
    assert magnitude * magnitude == QRoot2(Fraction(6, 16), Fraction(-4, 16))


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
    key = exact_ray(1, 1, 0).key()
    assert exact_ray(-1, -1, 0).key() == key
    i = ExactComplex.i()
    assert Ray((i, i, ExactComplex.zero())).key() == key
    assert exact_ray(1, -1, 0).key() != key


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
        assert is_orthogonal(rays[i], rays[j]) == is_orthogonal(
            approx[i], approx[j], tol=1e-9
        )


def test_norm2_positive():
    for ray in peres_rays():
        assert norm2(ray).sign() > 0


@given(exact_rays)
def test_self_inner_product_is_real_and_positive(a):
    value = inner(a, a)
    assert not value.imag
    assert value.real.sign() > 0
