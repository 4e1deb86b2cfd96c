"""Exact arithmetic in the field Q(sqrt2, i), plus float-complex tolerance helpers.

Every catalog entry handled by this package lives in Q(sqrt2, i), so the
exact types here are all the algebra the verification needs.  Arbitrary
phases fall back to the builtin ``complex``; the helpers at the bottom give
the two scalar kinds a common surface.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

DEFAULT_TOL = 1e-9


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


class QRoot2:
    """p + q*sqrt(2) with rational p, q; the pair is a unique representation.

    Values are treated as immutable.  Equality, ordering, and the zero test
    are exact; arithmetic never leaves the field.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: RationalLike = 0, q: RationalLike = 0) -> None:
        self.p = _as_fraction(p)
        self.q = _as_fraction(q)

    @classmethod
    def sqrt2(cls) -> QRoot2:
        return cls(0, 1)

    def _coerce(self, other: object) -> QRoot2 | None:
        if isinstance(other, QRoot2):
            return other
        if isinstance(other, (int, Fraction)):
            return QRoot2(other)
        return None

    def __add__(self, other: object) -> QRoot2:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRoot2(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other: object) -> QRoot2:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRoot2(self.p - o.p, self.q - o.q)

    def __rsub__(self, other: object) -> QRoot2:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QRoot2:
        return QRoot2(-self.p, -self.q)

    def __mul__(self, other: object) -> QRoot2:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRoot2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QRoot2:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.p * o.p - 2 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the sqrt2-conjugate of the divisor
        num = self * QRoot2(o.p, -o.q)
        return QRoot2(num.p / norm, num.q / norm)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q))

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def sign(self) -> int:
        """Exact sign of the real value p + q*sqrt(2)."""
        if not self:
            return 0
        if self.p >= 0 and self.q >= 0:
            return 1
        if self.p <= 0 and self.q <= 0:
            return -1
        # mixed signs: the dominant term decides, p*p never equals 2*q*q here
        if self.p * self.p > 2 * self.q * self.q:
            return 1 if self.p > 0 else -1
        return 1 if self.q > 0 else -1

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def sqrt(self) -> QRoot2:
        """Exact square root, defined for rational values of the form s^2 or 2*s^2."""
        if self.sign() < 0:
            raise ValueError("square root of a negative value")
        if self.q != 0:
            raise ValueError("exact sqrt is only supported for rational values")
        r = _fraction_sqrt(self.p)
        if r is not None:
            return QRoot2(r)
        r = _fraction_sqrt(self.p / 2)
        if r is not None:
            return QRoot2(0, r)
        raise ValueError(f"{self} has no square root in Q(sqrt2)")

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"QRoot2({self.p}, {self.q})"

    def canonical_str(self) -> str:
        """Canonical form ``(a+b*sqrt2)/d`` with gcd(a, b, d) = 1 and d > 0."""
        d = math.lcm(self.p.denominator, self.q.denominator)
        a = int(self.p * d)
        b = int(self.q * d)
        if a == 0 and b == 0:
            return "0"
        g = math.gcd(math.gcd(abs(a), abs(b)), d)
        a, b, d = a // g, b // g, d // g
        if b == 0:
            core = str(a)
        elif a == 0:
            core = f"{b}*sqrt2"
        else:
            core = f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"
        if d == 1:
            return core
        if a != 0 and b != 0:
            return f"({core})/{d}"
        return f"{core}/{d}"


class ExactComplex:
    """Complex number with QRoot2 real and imaginary parts.

    Mirrors enough of the builtin ``complex`` surface (``real``, ``imag``,
    ``conjugate``) that generic ray code works with either scalar kind.
    Mixing exact and float operands is rejected on purpose.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike | QRoot2 = 0, im: RationalLike | QRoot2 = 0) -> None:
        self.re = re if isinstance(re, QRoot2) else QRoot2(re)
        self.im = im if isinstance(im, QRoot2) else QRoot2(im)

    @classmethod
    def zero(cls) -> ExactComplex:
        return cls(0, 0)

    @classmethod
    def one(cls) -> ExactComplex:
        return cls(1, 0)

    @classmethod
    def i(cls) -> ExactComplex:
        return cls(0, 1)

    @classmethod
    def sqrt2(cls) -> ExactComplex:
        return cls(QRoot2.sqrt2(), QRoot2())

    @property
    def real(self) -> QRoot2:
        return self.re

    @property
    def imag(self) -> QRoot2:
        return self.im

    def conjugate(self) -> ExactComplex:
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> QRoot2:
        """Exact squared magnitude re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def _coerce(self, other: object) -> ExactComplex | None:
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Fraction, QRoot2)):
            return ExactComplex(other if isinstance(other, QRoot2) else QRoot2(other))
        return None

    def __add__(self, other: object) -> ExactComplex:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> ExactComplex:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __neg__(self) -> ExactComplex:
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: object) -> ExactComplex:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> ExactComplex:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if not d:
            raise ZeroDivisionError("division by zero in Q(sqrt2, i)")
        num = self * o.conjugate()
        return ExactComplex(num.re / d, num.im / d)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    __complex__ = to_complex

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def canonical_str(self) -> str:
        """Canonical form ``(<re>)+(<im>)*i`` with zero parts dropped."""
        if not self.im:
            return self.re.canonical_str()
        if not self.re:
            return f"({self.im.canonical_str()})*i"
        return f"({self.re.canonical_str()})+({self.im.canonical_str()})*i"


Scalar = Union[ExactComplex, complex]
RealScalar = Union[QRoot2, float]


def abs2(z: Scalar) -> RealScalar:
    """Squared magnitude, exact for ExactComplex."""
    if isinstance(z, ExactComplex):
        return z.abs2()
    w = complex(z)
    return w.real * w.real + w.imag * w.imag


def to_approx(z: Scalar | QRoot2 | float) -> complex:
    """Double-precision image of an exact or floating scalar."""
    if isinstance(z, ExactComplex):
        return z.to_complex()
    if isinstance(z, QRoot2):
        return complex(float(z))
    return complex(z)


def approx_is_zero(z: complex, tol: float = DEFAULT_TOL) -> bool:
    return abs(z) < tol
