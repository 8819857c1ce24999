"""Exact Gaussian-rational scalars: a + b*i with rational a, b."""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return not self.im and self.re == 1

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ------------------------------------------------------
    # Almost every coefficient is real, so +, -, * and inverse take one
    # Fraction operation when both operands are; the general formulas give
    # the same values.

    def __add__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return _real(self.re + other.re)
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return _real(self.re - other.re)
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        if not self.im:
            return _real(-self.re)
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC") -> "QC":
        if self is ONE or other is ONE:
            return other if self is ONE else self
        if not self.im and not other.im:
            return _real(self.re * other.re)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "QC":
        if self is ONE:
            return ONE
        if not self.im and self.re:
            return _real(1 / self.re)
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QC(self.re / n, -self.im / n)

    def __truediv__(self, other: "QC") -> "QC":
        return self * other.inverse()

    def __pow__(self, n: int) -> "QC":
        if not isinstance(n, int):
            raise TypeError("QC exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt_exact(self):
        """Exact square root for nonnegative rational perfect squares, else None."""
        if self.im != 0 or self.re < 0:
            return None
        num, den = self.re.numerator, self.re.denominator
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            return None
        return QC(Fraction(rn, rd))

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    @property
    def key(self):
        return (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )

    def __eq__(self, other):
        return isinstance(other, QC) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


_F0 = Fraction(0)
_set_re = QC.re.__set__
_set_im = QC.im.__set__


def _real(re: Fraction) -> QC:
    """QC(re) for a Fraction re, without the coercion in QC.__init__."""
    q = object.__new__(QC)
    _set_re(q, re)
    _set_im(q, _F0)
    return q


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


ZERO = QC(0)
ONE = QC(1)
I = QC(0, 1)
