"""Exact Gaussian-rational scalars: a + b*i with rational a, b.

A QC holds three machine integers, (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, a unique normal form: == compares the integers, and +, -,
*, negation and inverse are integer arithmetic with at most one math.gcd,
taken only when the result's denominator is not 1.  Nearly every
coefficient is an integer, and the arithmetic builds no Fraction; re and im
are Fractions made on demand, for the printers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _rational(re), _rational(im)
            # Both parts are in lowest terms, so gcd(a, b, d) is 1.
            d = lcm(re.denominator, im.denominator)
            a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and self._d == 1 and not self._b

    def is_real(self) -> bool:
        return not self._b

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "QC") -> "QC":
        d, od = self._d, other._d
        if d == od:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * od + other._a * d, self._b * od + other._b * d, d * od)

    def __sub__(self, other: "QC") -> "QC":
        d, od = self._d, other._d
        if d == od:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * od - other._a * d, self._b * od - other._b * d, d * od)

    def __neg__(self) -> "QC":
        return _qc(-self._a, -self._b, self._d)

    def __mul__(self, other: "QC") -> "QC":
        if self is ONE or other is ONE:
            return other if self is ONE else self
        a, b, oa, ob = self._a, self._b, other._a, other._b
        return _reduced(a * oa - b * ob, a * ob + b * oa, self._d * other._d)

    def inverse(self) -> "QC":
        if self is ONE:
            return ONE
        a, b, d = self._a, self._b, self._d
        if not b and a:
            # gcd(a, d) = 1, so d/a is in lowest terms once its sign is moved.
            return _qc(d, 0, a) if a > 0 else _qc(-d, 0, -a)
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other: "QC") -> "QC":
        return self * other.inverse()

    def __pow__(self, n: int) -> "QC":
        if not isinstance(n, int):
            raise TypeError("QC exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt_exact(self):
        """Exact square root for nonnegative rational perfect squares, else None."""
        if self._b or self._a < 0:
            return None
        rn, rd = _isqrt_exact(self._a), _isqrt_exact(self._d)
        if rn is None or rd is None:
            return None
        return _qc(rn, 0, rd)

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        # Integer true division is correctly rounded, as float(Fraction) is.
        return complex(self._a / self._d, self._b / self._d)

    @property
    def key(self):
        """(re numerator, re denominator, im numerator, im denominator), each
        part in lowest terms."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return (a, 1, b, 1)
        g, h = gcd(a, d), gcd(b, d)
        return (a // g, d // g, b // h, d // h)

    def __eq__(self, other):
        return (isinstance(other, QC) and self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a, _set_b, _set_d = QC._a.__set__, QC._b.__set__, QC._d.__set__


def _qc(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i)/d of integers already in normal form."""
    q = _new(QC)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i)/d for d > 0, put in normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _qc(a // g, b // g, d // g)
    return _qc(a, b, d)


def _rational(x) -> Fraction:
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _isqrt_exact(n: int):
    r = isqrt(n)
    return r if r * r == n else None


ZERO = QC(0)
ONE = QC(1)
I = QC(0, 1)
