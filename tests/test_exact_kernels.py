"""The integer kernels against the generic exact arithmetic of ``exact_oracle``.

``is_orthogonal`` on exact rays must give the oracle's verdict, and
``overlap2_closed_form`` on exact M-pairs the oracle's value, on every pair
of each catalog; ``Ray.key`` must be the oracle's key, written over one
denominator, and so unchanged under rescaling by Q(sqrt2, i).
"""

import math
from itertools import combinations, cycle, product

import pytest

import exact_oracle as oracle
from bks33.catalog import (
    FamilyParams,
    family_rays,
    penrose_from_family,
    penrose_mpairs,
    peres_rays,
)
from bks33.majorana import MPair, MVector, overlap2_closed_form
from bks33.orthograph import reference_graph
from bks33.rays import Ray, is_orthogonal
from bks33.scalar import ExactComplex, QRoot2

QUARTER_TURNS = [
    FamilyParams(*(t * math.pi / 2 for t in turns)) for turns in product(range(4), repeat=3)
]

#: Nonzero scalars of Q(sqrt2, i); (1+sqrt2)/3 and two others have a denominator.
FACTORS = (
    ExactComplex(QRoot2(1, 1)),
    ExactComplex(QRoot2(1, 1) / 3),
    ExactComplex(0, 1),
    ExactComplex(2, -1),
    ExactComplex(QRoot2(0, 1), QRoot2(1, -1)) / 5,
    ExactComplex(-3, QRoot2(0, 2)) / ExactComplex(QRoot2(1, 1), 7),
)

REFERENCE_EDGES = reference_graph().edges


def rescaled(rays: list[Ray], factors=FACTORS) -> list[Ray]:
    return [
        Ray(tuple(f * c for c in r.components), index=r.index)
        for r, f in zip(rays, cycle(factors))
    ]


def assert_verdicts_match_oracle(rays: list[Ray]) -> None:
    edges = set()
    for (i, a), (j, b) in combinations(enumerate(rays, start=1), 2):
        verdict = is_orthogonal(a, b)
        assert verdict is (not oracle.inner(a, b)), (i, j)
        if verdict:
            edges.add((i, j))
    assert edges == REFERENCE_EDGES


@pytest.mark.parametrize("catalog", [
    peres_rays,
    penrose_from_family,
    lambda: rescaled(peres_rays()),
    lambda: rescaled(penrose_from_family(), FACTORS[::-1]),
], ids=["peres", "penrose_from_family", "peres_rescaled", "penrose_from_family_rescaled"])
def test_ray_verdicts_match_the_generic_inner_product(catalog):
    assert_verdicts_match_oracle(catalog())


def test_ray_verdicts_match_the_generic_inner_product_at_every_quarter_turn():
    for params in QUARTER_TURNS:
        rays = family_rays(params)
        assert all(r.is_exact for r in rays)
        assert_verdicts_match_oracle(rays)


def test_penrose_from_family_has_denominators_to_clear():
    rays = penrose_from_family()
    assert any("/" in str(c) for r in rays for c in r.components)
    assert all(type(n) is int for r in rays for c in r.parts for n in c)


def scaled(v: MVector, k: int) -> MVector:
    return MVector(k * v.x, k * v.y, k * v.z)


@pytest.mark.parametrize("k", range(1, 8))
def test_mpair_values_match_the_generic_closed_form(k):
    pairs = [
        MPair(scaled(p.first, k), scaled(p.second, 1 + (k + i) % 7))
        for i, p in enumerate(penrose_mpairs())
    ]
    zeros = set()
    for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2):
        value = overlap2_closed_form(a, b)
        assert isinstance(value, QRoot2)
        assert value == oracle.closed_form(a, b), (i, j)
        if a.orthogonal_to(b):
            zeros.add((i, j))
    assert zeros == REFERENCE_EDGES


def key_values(key: tuple[int, ...]) -> tuple[ExactComplex, ...]:
    """The three components a key encodes: 12 numerators over one denominator."""
    *nums, den = key
    return tuple(
        ExactComplex(QRoot2(p, q) / den, QRoot2(r, s) / den)
        for p, q, r, s in (nums[0:4], nums[4:8], nums[8:12])
    )


def catalogs_with_keys():
    yield "peres", peres_rays()
    yield "penrose_from_family", penrose_from_family()
    for params in QUARTER_TURNS:
        yield repr(params), family_rays(params)


def test_keys_are_the_oracle_keys_and_distinct():
    for name, rays in catalogs_with_keys():
        keys = [r.key() for r in rays]
        for ray, key in zip(rays, keys):
            assert len(key) == 13 and all(type(n) is int for n in key), name
            assert key[-1] > 0 and math.gcd(*key) == 1, name
            assert key_values(key) == oracle.key(ray), (name, ray.index)
        assert len(set(keys)) == 33, name


@pytest.mark.parametrize("factor", FACTORS + (ExactComplex(-1), ExactComplex(QRoot2(3, -2), 5) / 4))
def test_key_is_invariant_under_rescaling(factor):
    for rays in (peres_rays(), penrose_from_family(), family_rays(QUARTER_TURNS[27])):
        for r in rays:
            assert Ray(tuple(factor * c for c in r.components)).key() == r.key()
