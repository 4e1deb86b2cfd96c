import cmath
import math
from itertools import product
from random import Random

import pytest

import exact_oracle as oracle
from bks33.catalog import (
    _PHASE_TABLE,
    _REAL_TABLE,
    RECOVERY_ROTATION,
    FamilyParams,
    RayClass,
    class_of,
    family_rays,
    penrose_from_family,
    penrose_mpairs,
    peres_rays,
    recovered_penrose_mpairs,
)
from bks33.majorana import MPair, MVector, mpairs_match
from bks33.rays import Ray, overlap2
from bks33.scalar import ExactComplex, QRoot2

ONE, I, SQRT2 = ExactComplex(1), ExactComplex(0, 1), ExactComplex(QRoot2(0, 1))


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
            assert not c.imag
            assert c.real in allowed


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
        assert f.components == p.components


def test_family_special_scalars_are_exact():
    # a, b and c are the third components of rays 4 and 6 and the second of ray 15
    for params, (a, b, c) in [
        (FamilyParams.peres_point(), (ONE, ONE, SQRT2)),
        (FamilyParams.penrose_point(), (-I, -ONE, -SQRT2)),
    ]:
        rays = family_rays(params)
        assert all(ray.is_exact for ray in rays)
        assert (rays[3].components[2], rays[5].components[2], rays[14].components[1]) == (a, b, c)


def test_family_k_at_real_point():
    # ray 8 is (1, k, 0)
    fam = family_rays(FamilyParams.peres_point())
    assert fam[7].components == exact(1, -1, 0)


def test_family_first_ray_is_fixed():
    rng = Random(3)
    for _ in range(5):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        rays = family_rays(params)
        assert rays[0].components == (complex(1), complex(0), complex(0))


def test_family_float_components_have_modulus_0_1_or_sqrt2():
    rng = Random(9)
    for _ in range(100):
        params = FamilyParams(*(rng.uniform(0, 2 * math.pi) for _ in range(3)))
        for ray in family_rays(params):
            for z in ray.components:
                assert min(abs(abs(z) - m) for m in (0, 1, math.sqrt(2))) < 1e-12


def test_generic_phases_take_the_floating_path():
    assert not any(ray.is_exact for ray in family_rays(FamilyParams(0.3, 0.0, 0.0)))


@pytest.mark.parametrize("alpha, exact", [
    (0.0, True), (1e-13, True), (-math.pi / 2 + 1e-13, True), (3 * math.pi, True),
    (3e-12, False), (0.3, False), (1e16, False), (1e17, False),
])
def test_quarter_turns_are_decided_from_the_unit_phase(alpha, exact):
    ray4 = family_rays(FamilyParams(alpha, 0.0, 0.0))[3]
    assert ray4.is_exact is exact
    if not exact:
        # beyond 2**52, alpha / (pi/2) is always an integer; e^{i alpha} is not 1, i, -1 or -i
        assert ray4.components[2] == cmath.exp(1j * alpha)


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_phases_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FamilyParams(**{field: value})


def reference_family_rows(a, b, c, one, zero):
    """The family written out in a, b, c/sqrt2 and k = -a*conj(b)*c/conj(c),
    an independent transcription kept as an oracle for the table."""
    k = -(a * b.conjugate() * c) / c.conjugate()
    astar, bstar, cstar, kstar = a.conjugate(), b.conjugate(), c.conjugate(), k.conjugate()
    return [
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
        (zero, one, a),
        (zero, astar, -one),
        (one, zero, b),
        (bstar, zero, -one),
        (one, k, zero),
        (kstar, -one, zero),
        (astar * cstar, -astar, one),
        (cstar, one, a),
        (-cstar, one, a),
        (astar * cstar, astar, -one),
        (-bstar, bstar * c, one),
        (one, c, b),
        (one, -c, b),
        (bstar, bstar * c, -one),
        (-kstar, one, b * cstar),
        (one, k, -(a * c)),
        (one, k, a * c),
        (kstar, -one, b * cstar),
        (one, zero, a * c),
        (one, -c, zero),
        (one, c, zero),
        (one, zero, -(a * c)),
        (zero, one, b * cstar),
        (-cstar, one, zero),
        (cstar, one, zero),
        (zero, one, -(b * cstar)),
        (zero, bstar * c, one),
        (astar * cstar, zero, one),
        (-(astar * cstar), zero, one),
        (zero, -(bstar * c), one),
    ]


#: Rows where the table equals minus the reference rows: the table follows
#: the real catalog's signs, the reference rows agree with it only projectively.
NEGATED_ROWS = {9, 12, 16, 19, 23, 25, 27, 29, 32, 33}


def test_family_matches_reference_rows_at_every_quarter_turn():
    i_pow = [ONE, I, -ONE, -I]
    for turns in product(range(4), repeat=3):
        rays = family_rays(FamilyParams(*(t * math.pi / 2 for t in turns)))
        a, b, c = i_pow[turns[0]], i_pow[turns[1]], SQRT2 * i_pow[turns[2]]
        rows = reference_family_rows(a, b, c, ONE, ExactComplex(0))
        for ray, row in zip(rays, rows):
            assert ray.is_exact
            assert oracle.key(ray) == oracle.key(Ray(row))


def test_family_matches_reference_rows_up_to_sign_at_generic_phases():
    rng = Random(2024)
    for _ in range(200):
        alpha, beta, gamma = (rng.uniform(0, 2 * math.pi) for _ in range(3))
        rays = family_rays(FamilyParams(alpha, beta, gamma))
        a, b = cmath.exp(1j * alpha), cmath.exp(1j * beta)
        c = math.sqrt(2) * cmath.exp(1j * gamma)
        rows = reference_family_rows(a, b, c, complex(1), complex(0))
        for index, (ray, row) in enumerate(zip(rays, rows), start=1):
            sign = -1 if index in NEGATED_ROWS else 1
            for got, want in zip(ray.components, row):
                assert abs(got - sign * want) < 1e-13


#: Unit phase added to components 1, 2, 3 by diag(1, e^{i theta}, e^{i phi}),
#: as (theta, phi) coefficients.
GAUGE_UNITARY = ((0, 0), (1, 0), (0, 1))
#: Shift of (alpha, beta, gamma) per unit theta and per unit phi under the gauge map.
THETA_SHIFT, PHI_SHIFT = (-1, 0, 1), (1, 1, 0)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_gauge_lemma_holds_on_the_phase_table():
    # diag(1, e^{i theta}, e^{i phi}) maps family(alpha, beta, gamma) onto
    # family(alpha + phi - theta, beta + phi, gamma + theta): a component with
    # exponents e gains theta*(e . THETA_SHIFT) + phi*(e . PHI_SHIFT) there, so
    # each ray must gain the unitary's phase plus one common phase.
    for real, phases in zip(_REAL_TABLE, _PHASE_TABLE):
        offsets = {
            (dot(e, THETA_SHIFT) - t[0], dot(e, PHI_SHIFT) - t[1])
            for n, e, t in zip(real, phases, GAUGE_UNITARY) if n
        }
        assert len(offsets) == 1
    # s = alpha - beta + gamma is unchanged by the map
    assert dot((1, -1, 1), THETA_SHIFT) == dot((1, -1, 1), PHI_SHIFT) == 0


def test_gauge_lemma_spot_check_in_floats():
    rng = Random(77)
    for _ in range(20):
        alpha, beta, gamma, theta, phi = (rng.uniform(0, 2 * math.pi) for _ in range(5))
        unitary = (1, cmath.exp(1j * theta), cmath.exp(1j * phi))
        before = family_rays(FamilyParams(alpha, beta, gamma))
        after = family_rays(FamilyParams(alpha + phi - theta, beta + phi, gamma + theta))
        for u, v in zip(before, after):
            mapped = Ray(tuple(w * z for w, z in zip(unitary, u.components)))
            assert 1 - overlap2(mapped, v) < 1e-15


def test_recovery_rotation_is_unitary():
    # exact in Q(sqrt2, i): the rows scaled by 1/sqrt2 are orthonormal
    for j, row in enumerate(RECOVERY_ROTATION):
        for k, other in enumerate(RECOVERY_ROTATION):
            product = sum((x.conjugate() * y for x, y in zip(row, other)), ExactComplex(0))
            assert product == (1 if j == k else 0)


def test_recovery_basis_change_multiplies_only_nonzero_entries(monkeypatch):
    # the basis change sums before it scales: v0 + v1 and v1 - v0 by 1/sqrt2,
    # 2 products per ray, and its components equal the full 3x3 product
    calls = []
    original = ExactComplex.__mul__

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ExactComplex, "__mul__", counting)
    monkeypatch.setattr(ExactComplex, "__rmul__", counting)
    base = family_rays(FamilyParams.penrose_point())
    own = len(calls)
    rotated = penrose_from_family()
    monkeypatch.undo()
    assert len(calls) - 2 * own <= 2 * 33
    assert [r.index for r in rotated] == [r.index for r in base]
    assert [r.components for r in rotated] == [
        oracle.apply(RECOVERY_ROTATION, r.components) for r in base
    ]


def test_rotated_family_rays_are_exact():
    for ray in penrose_from_family():
        assert ray.is_exact


def test_recovery_reproduces_all_mpairs():
    recovered = recovered_penrose_mpairs()
    expected = penrose_mpairs()
    assert len(recovered) == 33
    for got, want in zip(recovered, expected):
        assert mpairs_match(got, want)


def test_recovery_anchor_entries():
    recovered = recovered_penrose_mpairs()
    assert mpairs_match(recovered[0], MPair(MVector(1, 0, 0), MVector(-1, 0, 0)))
    # doubled root: both extracted directions coincide
    first, second = recovered[9].first.unit(), recovered[9].second.unit()
    assert all(abs(a - b) < 1e-7 for a, b in zip(first, second))
