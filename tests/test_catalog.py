import math
from random import Random

import pytest

from bks33.catalog import (
    FamilyParams,
    RayClass,
    class_of,
    family_k,
    family_rays,
    penrose_from_family,
    penrose_mpairs,
    peres_rays,
    recovered_penrose_mpairs,
)
from bks33.majorana import MPair, MVector, mpairs_match
from bks33.scalar import ExactComplex, QRoot2


def exact(*entries):
    return tuple(
        ExactComplex(QRoot2(0, e // 2)) if e in (2, -2) else ExactComplex(e)
        for e in entries
    )


def test_real_catalog_spot_entries():
    rays = peres_rays()
    assert rays[0].components == exact(1, 0, 0)
    assert rays[9].components == exact(2, -1, 1)
    assert rays[20].components == exact(-1, -1, 2)
    assert all(r.index == i for i, r in enumerate(rays, start=1))


def test_real_catalog_entry_alphabet():
    allowed = {QRoot2(0), QRoot2(1), QRoot2(-1), QRoot2(0, 1), QRoot2(0, -1)}
    for ray in peres_rays():
        for c in ray.components:
            assert not c.im
            assert c.re in allowed


def test_mpair_catalog_spot_entries():
    pairs = penrose_mpairs()
    assert pairs[0] == MPair(MVector(1, 0, 0), MVector(-1, 0, 0))
    assert pairs[9] == MPair(MVector(0, 1, 1), MVector(0, 1, 1))
    assert pairs[21] == MPair(MVector(0, 1, 1), MVector(0, 1, -1))


def test_mpair_class_structure():
    pairs = penrose_mpairs()
    for i, p in enumerate(pairs, start=1):
        kind = class_of(i)
        if kind in (RayClass.FACE_AXES, RayClass.EDGE_AXES):
            assert p.second == MVector(-p.first.x, -p.first.y, -p.first.z)
        elif kind is RayClass.DOUBLED_EDGES:
            assert p.first == p.second
        else:
            assert p.first != p.second
        assert p.first.norm2 in (1, 2) and p.second.norm2 in (1, 2)


def test_class_partition():
    sizes = {cls: 0 for cls in RayClass}
    for i in range(1, 34):
        sizes[class_of(i)] += 1
    assert sizes == {
        RayClass.FACE_AXES: 3,
        RayClass.EDGE_AXES: 6,
        RayClass.DOUBLED_EDGES: 12,
        RayClass.FACE_OPPOSITE_EDGES: 12,
    }
    assert class_of(1) is RayClass.FACE_AXES
    assert class_of(15) is RayClass.DOUBLED_EDGES
    assert class_of(33) is RayClass.FACE_OPPOSITE_EDGES
    for bad in (0, 34, -1):
        with pytest.raises(ValueError):
            class_of(bad)


def test_family_at_real_point_matches_real_catalog_projectively():
    fam = family_rays(FamilyParams.peres_point())
    per = peres_rays()
    assert all(f.is_exact for f in fam)
    for f, p in zip(fam, per):
        assert f.key() == p.key()


def test_family_special_scalars_are_exact():
    a, b, c = FamilyParams.peres_point().scalars()
    assert (a, b, c) == (ExactComplex.one(), ExactComplex.one(), ExactComplex.sqrt2())
    a, b, c = FamilyParams.penrose_point().scalars()
    assert a == -ExactComplex.i()
    assert b == -ExactComplex.one()
    assert c == -ExactComplex.sqrt2()


def test_family_k_at_real_point():
    a, b, c = FamilyParams.peres_point().scalars()
    assert family_k(a, b, c) == -ExactComplex.one()
    fam = family_rays(FamilyParams.peres_point())
    assert fam[7].components == exact(1, -1, 0)


def test_family_first_ray_is_fixed():
    rng = Random(3)
    for _ in range(5):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        rays = family_rays(params)
        assert rays[0].components == (complex(1), complex(0), complex(0))


def test_family_k_has_unit_modulus():
    rng = Random(9)
    for _ in range(100):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        a, b, c = params.scalars()
        assert abs(complex(family_k(a, b, c))) == pytest.approx(1, abs=1e-12)


def test_generic_phases_take_the_floating_path():
    params = FamilyParams(0.3, 0.0, 0.0)
    assert isinstance(params.scalars()[0], complex)


def test_rotated_family_rays_are_exact():
    for ray in penrose_from_family():
        assert ray.is_exact


def test_recovery_reproduces_all_mpairs():
    recovered = recovered_penrose_mpairs()
    expected = penrose_mpairs()
    assert len(recovered) == 33
    for got, want in zip(recovered, expected):
        assert mpairs_match(got, want, tol=1e-7)


def test_recovery_anchor_entries():
    recovered = recovered_penrose_mpairs()
    assert mpairs_match(recovered[0], MPair(MVector(1, 0, 0), MVector(-1, 0, 0)))
    # doubled root: both extracted directions coincide
    first, second = recovered[9].first.unit(), recovered[9].second.unit()
    assert all(abs(a - b) < 1e-7 for a, b in zip(first, second))
