"""Exact arithmetic in the field Q(sqrt2, i).

Every catalog entry handled by this package lives in Q(sqrt2, i), so the
exact types here are all the algebra the verification needs.  Arbitrary
phases fall back to the builtin ``complex``.  Both scalar kinds share the
``real``/``imag``/``conjugate`` surface, and ``complex(z)`` is the one
double-precision approximation of either (``float(x)`` for ``QRoot2``).
"""

from __future__ import annotations

import math
from typing import Union

#: Float orthogonality threshold; test_nonedges_stay_far_from_zero_in_floating_runs pins its margins.
DEFAULT_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
_new = object.__new__


def qroot2_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for ints p and q."""
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    # mixed signs: the dominant term decides, p*p never equals 2*q*q here
    if p * p > 2 * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _qroot2(p: int, q: int, den: int) -> QRoot2:
    """(p + q*sqrt2)/den for ints with den != 0, reduced to the canonical triple."""
    if den != 1:
        g = math.gcd(p, q, den)
        if den < 0:
            g = -g
        if g != 1:
            p, q, den = p // g, q // g, den // g
    z = _new(QRoot2)
    z._p, z._q, z._den = p, q, den
    return z


def _lift(value: object) -> QRoot2 | None:
    if isinstance(value, QRoot2):
        return value
    return _qroot2(value, 0, 1) if type(value) is int else None


class QRoot2:
    """(p + q*sqrt2)/den, stored as the integer triple with gcd(p, q, den) = 1
    and den > 0, which makes the representation unique.

    Values are treated as immutable.  Equality, ordering, and the zero test
    are exact; arithmetic never leaves the field.  Parts are ``int``, and
    operands ``int`` or ``QRoot2``.  An integer value hashes like the equal
    ``int``.
    """

    __slots__ = ("_p", "_q", "_den")

    def __new__(cls, p: int = 0, q: int = 0) -> QRoot2:
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"expected int parts, got {p!r} and {q!r}")
        return _qroot2(p, q, 1)

    def __add__(self, other: object) -> QRoot2:
        o = _lift(other)
        if o is None:
            return NotImplemented
        d, e = self._den, o._den
        return _qroot2(self._p * e + o._p * d, self._q * e + o._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: object) -> QRoot2:
        o = _lift(other)
        if o is None:
            return NotImplemented
        d, e = self._den, o._den
        return _qroot2(self._p * e - o._p * d, self._q * e - o._q * d, d * e)

    def __rsub__(self, other: object) -> QRoot2:
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QRoot2:
        return _qroot2(-self._p, -self._q, self._den)

    def __mul__(self, other: object) -> QRoot2:
        o = _lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._p, self._q, o._p, o._q
        return _qroot2(a * c + 2 * b * e, a * e + b * c, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QRoot2:
        o = _lift(other)
        if o is None:
            return NotImplemented
        a, b, c, e, f = self._p, self._q, o._p, o._q, o._den
        norm = c * c - 2 * e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the sqrt2-conjugate of the divisor
        return _qroot2((a * c - 2 * b * e) * f, (b * c - a * e) * f, self._den * norm)

    def __eq__(self, other: object) -> bool:
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._den == o._den

    def __hash__(self) -> int:
        if self._q or self._den != 1:
            return hash((self._p, self._q, self._den))
        return hash(self._p)  # equal to the hash of the same int

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    def sign(self) -> int:
        """Exact sign of the real value (p + q*sqrt(2))/den; den > 0."""
        return qroot2_sign(self._p, self._q)

    def __lt__(self, other: object) -> bool:
        return (self - other).sign() < 0

    def __gt__(self, other: object) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: object) -> bool:
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        return self._p / self._den + self._q / self._den * _SQRT2

    def __repr__(self) -> str:
        return f"QRoot2({self.canonical_str()})"

    def canonical_str(self) -> str:
        """Canonical form ``(a+b*sqrt2)/d`` with gcd(a, b, d) = 1 and d > 0."""
        a, b, d = self._p, self._q, self._den
        if a == 0 and b == 0:
            return "0"
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

    __str__ = canonical_str


class ExactComplex:
    """Complex number with QRoot2 real and imaginary parts.

    Mirrors enough of the builtin ``complex`` surface (``real``, ``imag``,
    ``conjugate``) that generic ray code works with either scalar kind.
    Mixing exact and float operands is rejected on purpose.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int | QRoot2 = 0, imag: int | QRoot2 = 0) -> None:
        self.real = real if isinstance(real, QRoot2) else QRoot2(real)
        self.imag = imag if isinstance(imag, QRoot2) else QRoot2(imag)

    def conjugate(self) -> ExactComplex:
        return _exact(self.real, -self.imag)

    def __add__(self, other: object) -> ExactComplex:
        o = _lift_complex(other)
        if o is None:
            return NotImplemented
        return _exact(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other: object) -> ExactComplex:
        o = _lift_complex(other)
        if o is None:
            return NotImplemented
        return _exact(self.real - o.real, self.imag - o.imag)

    def __neg__(self) -> ExactComplex:
        return _exact(-self.real, -self.imag)

    def __mul__(self, other: object) -> ExactComplex:
        o = _lift_complex(other)
        if o is None:
            return NotImplemented
        return _exact(
            self.real * o.real - self.imag * o.imag, self.real * o.imag + self.imag * o.real
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> ExactComplex:
        o = _lift_complex(other)
        if o is None:
            return NotImplemented
        d = o.real * o.real + o.imag * o.imag
        if not d:
            raise ZeroDivisionError("division by zero in Q(sqrt2, i)")
        num = self * o.conjugate()
        return _exact(num.real / d, num.imag / d)

    def __eq__(self, other: object) -> bool:
        o = _lift_complex(other)
        if o is None:
            return NotImplemented
        return self.real == o.real and self.imag == o.imag

    def __hash__(self) -> int:
        if not self.imag:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __repr__(self) -> str:
        return f"ExactComplex({self.real!r}, {self.imag!r})"

    def canonical_str(self) -> str:
        """Canonical form ``(<re>)+(<im>)*i`` with zero parts dropped."""
        if not self.imag:
            return self.real.canonical_str()
        if not self.real:
            return f"({self.imag.canonical_str()})*i"
        return f"({self.real.canonical_str()})+({self.imag.canonical_str()})*i"

    __str__ = canonical_str


def _exact(real: QRoot2, imag: QRoot2) -> ExactComplex:
    z = _new(ExactComplex)
    z.real, z.imag = real, imag
    return z


def _lift_complex(value: object) -> ExactComplex | None:
    if isinstance(value, ExactComplex):
        return value
    part = _lift(value)
    return None if part is None else _exact(part, _qroot2(0, 0, 1))


Scalar = Union[ExactComplex, complex]
RealScalar = Union[QRoot2, float]


def abs2(z: Scalar) -> RealScalar:
    """Squared magnitude, exact for ExactComplex."""
    return z.real * z.real + z.imag * z.imag


def integer_parts(values: tuple[ExactComplex, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """The (p, q, r, s) of each value as (p + q*sqrt2) + i*(r + s*sqrt2), all
    values multiplied by the least common denominator of their parts.

    That common factor is one positive integer, so for the components of a
    ray the result is the same ray with every part an ``int``.
    """
    # a list, not a generator: unpacking a generator grows and resizes a tuple,
    # and the interpreter keeps up to 2,000 freed tuples of each size
    den = math.lcm(*[part._den for z in values for part in (z.real, z.imag)])
    out = []
    for z in values:
        re, im = z.real, z.imag
        f, g = den // re._den, den // im._den
        out.append((re._p * f, re._q * f, im._p * g, im._q * g))
    return tuple(out)
