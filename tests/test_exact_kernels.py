"""The integer kernels against the generic exact arithmetic of ``exact_oracle``.

``is_orthogonal`` on exact rays must give the oracle's verdict, and
``overlap2_closed_form`` on exact M-pairs the oracle's value, on every pair
of each catalog; the pair kernels ``Ray.orthogonal_pairs`` and
``MPair.orthogonal_pairs``, and ``build_graph`` through them, must find the
pairs the oracle finds orthogonal.  The oracle's own ray key, which the
geometric tests match rays by, must be unchanged under rescaling by
Q(sqrt2, i).
"""

import math
from itertools import combinations, cycle, product
from random import Random

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
from bks33.orthograph import build_graph, reference_graph
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
    assert Ray.orthogonal_pairs(rays) == sorted(edges)
    assert build_graph(rays).edges == edges


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
        if not value:
            zeros.add((i, j))
    assert zeros == REFERENCE_EDGES
    assert MPair.orthogonal_pairs(pairs) == sorted(zeros)
    assert build_graph(pairs).edges == zeros


#: Integer vectors in [-2, 2]^3 of norm s^2 or 2*s^2 (1, 2, 4, 8 or 9): every
#: product of two such norms has its square root in Q(sqrt2).
FIELD_VECTORS = [
    MVector(*v) for v in product(range(-2, 3), repeat=3)
    if v[0] ** 2 + v[1] ** 2 + v[2] ** 2 in (1, 2, 4, 8, 9)
]


def test_mpair_verdicts_match_the_generic_closed_form_on_random_pairs():
    # unlike the catalog's, these pairs have numerators X = X0 + X1*sqrt2
    # with one part 0 and the other not, so each part must be tested
    rng = Random(1)
    orthogonal = 0
    for _ in range(50):
        pairs = [MPair(rng.choice(FIELD_VECTORS), rng.choice(FIELD_VECTORS)) for _ in range(12)]
        zeros = []
        for (i, a), (j, b) in combinations(enumerate(pairs, start=1), 2):
            value = overlap2_closed_form(a, b)
            assert value == oracle.closed_form(a, b), (a, b)
            if not value:
                zeros.append((i, j))
        assert MPair.orthogonal_pairs(pairs) == zeros
        orthogonal += len(zeros)
    assert orthogonal


@pytest.mark.parametrize("factor", FACTORS + (ExactComplex(-1), ExactComplex(QRoot2(3, -2), 5) / 4))
def test_key_is_invariant_under_rescaling(factor):
    # the oracle's key, by which the geometric tests match rays: projective,
    # and distinct for the 33 rays of each catalog
    for rays in (peres_rays(), penrose_from_family(), family_rays(QUARTER_TURNS[27])):
        keys = [oracle.key(r) for r in rays]
        assert len(set(keys)) == 33
        for r, key in zip(rays, keys):
            assert oracle.key(Ray(tuple(factor * c for c in r.components))) == key
