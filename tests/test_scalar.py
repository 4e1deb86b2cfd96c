import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bks33.catalog import penrose_mpairs, peres_rays
from bks33.kscolor import verify_symmetry_reduction
from bks33.orthograph import build_graph
from bks33.scalar import ExactComplex, QRoot2, abs2

SQRT2 = ExactComplex(QRoot2(0, 1))
I = ExactComplex(0, 1)
ONE = ExactComplex(1)


def from_fractions(p: Fraction, q: Fraction) -> QRoot2:
    """p + q*sqrt2, built from integers: QRoot2 takes no Fraction."""
    d = math.lcm(p.denominator, q.denominator)
    return QRoot2(int(p * d), int(q * d)) / d


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
qroot2s = st.builds(from_fractions, small_fractions, small_fractions)
exacts = st.builds(ExactComplex, qroot2s, qroot2s)
nonzero_exacts = exacts.filter(bool)


def test_defining_relation():
    assert SQRT2 * SQRT2 == ExactComplex(2)


def test_difference_of_squares():
    assert (ONE + SQRT2) * (-ONE + SQRT2) == ONE


def test_imaginary_unit():
    assert (-I) * (-I) == -ONE


def test_conjugation_examples():
    assert (-I).conjugate() == I
    assert (ONE + SQRT2).conjugate() == ONE + SQRT2
    assert (I * SQRT2).conjugate() == -(I * SQRT2)


def test_complex_conversion_examples():
    assert complex(SQRT2) == pytest.approx(1.4142135623730951, abs=1e-14)
    assert complex(QRoot2(0, 1)) == pytest.approx(1.4142135623730951, abs=1e-14)
    assert complex(ExactComplex(0)) == 0
    assert complex(ONE - SQRT2).real == pytest.approx(-0.41421356237, abs=1e-11)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ExactComplex(0)
    with pytest.raises(ZeroDivisionError):
        QRoot2(1) / QRoot2()


def test_qroot2_signs():
    assert QRoot2(1, -1).sign() < 0          # 1 - sqrt2
    assert QRoot2(3, -2).sign() > 0          # 3 - 2*sqrt2
    assert QRoot2(-3, 2).sign() < 0
    assert QRoot2(-1, 1).sign() > 0
    assert QRoot2().sign() == 0
    assert QRoot2(1, -1) < 0 < QRoot2(3, -2)


def test_canonical_strings():
    assert (QRoot2(2, -1) / 4).canonical_str() == "(2-1*sqrt2)/4"
    assert (QRoot2(3) / 8).canonical_str() == "3/8"
    assert QRoot2().canonical_str() == "0"
    assert QRoot2(0, 1).canonical_str() == "1*sqrt2"
    assert QRoot2(-1).canonical_str() == "-1"
    assert (QRoot2(6, -4) / 16).canonical_str() == "(3-2*sqrt2)/8"
    assert str(-I) == "(-1)*i"
    assert str(ONE + I) == "(1)+(1)*i"


def test_hash_consistency_with_plain_numbers():
    assert QRoot2(3) == 3 and hash(QRoot2(3)) == hash(3)
    half = QRoot2(1) / 2
    assert ExactComplex(half) == half and hash(ExactComplex(half)) == hash(half)


def test_fraction_parts_and_operands_rejected():
    with pytest.raises(TypeError):
        QRoot2(Fraction(1, 2))
    with pytest.raises(TypeError):
        QRoot2(1) + Fraction(1, 2)
    with pytest.raises(TypeError):
        ExactComplex(Fraction(1, 3))
    with pytest.raises(TypeError):
        ONE * Fraction(1, 2)
    assert QRoot2(1) / 2 != Fraction(1, 2)


@given(exacts, exacts, exacts)
def test_field_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(nonzero_exacts)
def test_multiplicative_inverse(x):
    assert x * (ONE / x) == ONE


@given(exacts, exacts)
def test_conjugation_is_multiplicative(x, y):
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(exacts)
def test_abs2_matches_conjugate_product(x):
    assert ExactComplex(abs2(x)) == x * x.conjugate()
    assert abs2(x).sign() >= 0
    assert abs2(complex(x)) == pytest.approx(float(abs2(x)), abs=1e-12)


# catalog-scale values: the entries appearing in the ray tables
catalog_scale = st.builds(
    ExactComplex,
    st.builds(QRoot2, st.integers(-2, 2), st.integers(-2, 2)),
    st.builds(QRoot2, st.integers(-2, 2), st.integers(-2, 2)),
)


@settings(max_examples=200)
@given(st.lists(catalog_scale, min_size=2, max_size=4))
def test_complex_conversion_is_a_homomorphism_on_products(factors):
    product = ONE
    for f in factors:
        product = product * f
    approx = complex(1.0)
    for f in factors:
        approx *= complex(f)
    assert abs(complex(product) - approx) < 1e-12


def test_mixed_exact_float_arithmetic_rejected():
    with pytest.raises(TypeError):
        ONE + 1.5
    with pytest.raises(TypeError):
        SQRT2 * (1 + 2j)


# --- differential test against the Fraction-pair formulas -------------------
# Reference: p + q*sqrt2 as a pair of Fractions, the kernel's former layout.

def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + 2 * b * d, a * d + b * c)


def ref_div(x, y):
    (a, b), (c, d) = x, y
    norm = c * c - 2 * d * d
    p, q = ref_mul((a, b), (c, -d))
    return (p / norm, q / norm)


def ref_sign(x):
    p, q = x
    if not (p or q):
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    if p * p > 2 * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def ref_canonical_str(x):
    p, q = x
    d = math.lcm(p.denominator, q.denominator)
    a, b = int(p * d), int(q * d)
    if a == 0 and b == 0:
        return "0"
    g = math.gcd(a, b, d)
    a, b, d = a // g, b // g, d // g
    if b == 0:
        core = str(a)
    elif a == 0:
        core = f"{b}*sqrt2"
    else:
        core = f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"
    if d == 1:
        return core
    return f"({core})/{d}" if a and b else f"{core}/{d}"


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
fraction_pairs = st.tuples(wide_fractions, wide_fractions)


@settings(max_examples=300)
@given(fraction_pairs, fraction_pairs)
def test_kernel_matches_fraction_pair_reference(x, y):
    qx, qy = from_fractions(*x), from_fractions(*y)
    results = [
        (qx, x),
        (qx + qy, (x[0] + y[0], x[1] + y[1])),
        (qx - qy, (x[0] - y[0], x[1] - y[1])),
        (qx * qy, ref_mul(x, y)),
    ]
    if any(y):
        results.append((qx / qy, ref_div(x, y)))
    for got, want in results:
        assert got == from_fractions(*want)
        assert got.sign() == ref_sign(want)
        assert got.canonical_str() == ref_canonical_str(want)
    assert (qx == qy) == (x == y)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 40), st.integers(-9, 9).filter(bool))
def test_unreduced_inputs_give_one_value(a, b, d, k):
    reduced = QRoot2(a, b) / d
    unreduced = QRoot2(a * k, b * k) / (d * k)
    assert unreduced == reduced
    assert hash(unreduced) == hash(reduced)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_integer_value_hash_matches_int(n, d):
    assert hash(QRoot2(n)) == hash(n)
    assert hash(QRoot2(n * d) / d) == hash(n)


def test_rational_hash_edge_cases():
    modulus = sys.hash_info.modulus
    for value in (-1, -2, modulus, -modulus, modulus + 1, 2**64):
        assert hash(QRoot2(value)) == hash(value)
        assert hash(QRoot2(3 * value) / 3) == hash(value)


@pytest.mark.parametrize("entries", [peres_rays, penrose_mpairs])
def test_exact_hot_path_creates_no_fraction(monkeypatch, entries):
    catalog = entries()
    created = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    graph = build_graph(catalog)
    report = verify_symmetry_reduction(catalog, graph)
    monkeypatch.undo()
    assert graph.edge_count == 72 and report.passed
    assert created == []


#: The arithmetic and comparison methods of the exact scalars.
EXACT_OPERATIONS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
)


@pytest.mark.parametrize("entries", [peres_rays, penrose_mpairs])
def test_exact_pair_tests_take_the_integer_route(monkeypatch, entries):
    # neither pair kernel runs an exact-scalar operation: the ray kernel
    # reads integer parts, and the M-pair kernel tests the closed form's
    # integer numerator and forms no quotient
    catalog = entries()
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for cls in (QRoot2, ExactComplex):
        for name in EXACT_OPERATIONS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(name, vars(cls)[name]))
    graph = build_graph(catalog)
    monkeypatch.undo()
    assert graph.edge_count == 72
    assert calls == []
