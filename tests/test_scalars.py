from fractions import Fraction

import pytest

from wholediff.scalars import I, ONE, QC, ZERO


def test_construction_and_equality():
    assert QC(2) == QC(Fraction(2), Fraction(0))
    assert QC(Fraction(1, 2)) + QC(Fraction(1, 2)) == ONE
    assert QC(0) == ZERO


def test_arithmetic():
    a = QC(Fraction(1, 2), Fraction(1, 3))
    b = QC(Fraction(2), Fraction(-1))
    assert a + b == QC(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == QC(Fraction(1, 2) * 2 - Fraction(1, 3) * (-1),
                       Fraction(1, 2) * (-1) + Fraction(1, 3) * 2)
    assert (a / b) * b == a
    assert -a + a == ZERO


def test_imaginary_unit():
    assert I * I == QC(-1)
    assert I ** 4 == ONE


def test_int_powers():
    a = QC(Fraction(2, 3))
    assert a ** 3 == QC(Fraction(8, 27))
    assert a ** 0 == ONE
    assert a ** -1 == QC(Fraction(3, 2))


def test_sqrt_exact():
    assert QC(Fraction(9, 4)).sqrt_exact() == QC(Fraction(3, 2))
    assert QC(2).sqrt_exact() is None
    assert QC(-4).sqrt_exact() is None
    assert I.sqrt_exact() is None


def test_to_complex():
    z = QC(Fraction(1, 2), Fraction(3)).to_complex()
    assert z == complex(0.5, 3.0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _rand_qc(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.5 else 0
    return QC(re, im)


def test_real_path_matches_general_formula():
    """+, -, *, negation and inverse against the Gaussian-rational formulas,
    on pairs where both, one or neither operand is real."""
    import random

    rng = random.Random(17)
    kinds = set()
    for _ in range(400):
        a, b = _rand_qc(rng), _rand_qc(rng)
        kinds.add((a.is_real(), b.is_real()))
        expected = {
            "+": (a.re + b.re, a.im + b.im),
            "-": (a.re - b.re, a.im - b.im),
            "*": (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re),
            "neg": (-a.re, -a.im),
        }
        got = {"+": a + b, "-": a - b, "*": a * b, "neg": -a}
        n = b.re * b.re + b.im * b.im
        if n:
            expected["inv"] = (b.re / n, -b.im / n)
            got["inv"] = b.inverse()
        for op, (re, im) in expected.items():
            q = got[op]
            assert (q.re, q.im) == (re, im), op
            assert type(q.re) is Fraction and type(q.im) is Fraction, op
            assert q == QC(re, im) and hash(q) == hash(QC(re, im)), op
            assert q.key == (re.numerator, re.denominator, im.numerator, im.denominator)
            assert q.is_zero() == (re == 0 and im == 0), op
            assert q.is_one() == (re == 1 and im == 0), op
            assert q.is_real() == (im == 0), op
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    with pytest.raises(AttributeError):
        (QC(1) + QC(2)).re = Fraction(0)
    with pytest.raises(ZeroDivisionError):
        QC(0).inverse()


# -- QC against a Fraction-pair reference ------------------------------------

from math import gcd  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_parts = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(max_denominator=10**20),
    st.integers(-10**40, 10**40).map(Fraction),
)
_pairs = st.tuples(_parts, st.one_of(st.just(Fraction(0)), _parts))


def _check_against_pair(q, re, im):
    """q holds the value re + im*i, in normal form, with the old key, hash,
    predicates and floating-point value of a Fraction pair."""
    assert type(q._a) is int and type(q._b) is int and type(q._d) is int
    assert q._d > 0 and gcd(q._a, q._b, q._d) == 1
    assert Fraction(q._a, q._d) == re and Fraction(q._b, q._d) == im
    assert (q.re, q.im) == (re, im)
    assert type(q.re) is Fraction and type(q.im) is Fraction
    key = (re.numerator, re.denominator, im.numerator, im.denominator)
    assert q.key == key and hash(q) == hash(key)
    assert q == QC(re, im) and hash(q) == hash(QC(re, im))
    assert q.is_zero() == (re == 0 and im == 0)
    assert q.is_one() == (re == 1 and im == 0)
    assert q.is_real() == (im == 0)
    z = q.to_complex()
    assert (z.real.hex(), z.imag.hex()) == (float(re).hex(), float(im).hex())


@settings(max_examples=400, deadline=None)
@given(x=_pairs, y=_pairs)
def test_qc_matches_fraction_pair_reference(x, y):
    """+, -, *, negation and inverse of QC against the Gaussian-rational
    formulas on Fraction pairs; == against equality of the pairs."""
    (ar, ai), (br, bi) = x, y
    a, b = QC(ar, ai), QC(br, bi)
    _check_against_pair(a, ar, ai)
    _check_against_pair(b, br, bi)
    _check_against_pair(a + b, ar + br, ai + bi)
    _check_against_pair(a - b, ar - br, ai - bi)
    _check_against_pair(a * b, ar * br - ai * bi, ar * bi + ai * br)
    _check_against_pair(-a, -ar, -ai)
    _check_against_pair(a - a, Fraction(0), Fraction(0))
    assert (a == b) == (x == y)
    n = br * br + bi * bi
    if n:
        _check_against_pair(b.inverse(), br / n, -bi / n)
        _check_against_pair(a / b, (ar * br + ai * bi) / n, (ai * br - ar * bi) / n)
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


def test_int_construction_builds_no_fraction(monkeypatch):
    """QC of integers, and the arithmetic of integer scalars, make no Fraction."""
    import fractions

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    a, b = QC(6, -4), QC(3)
    assert ((a + b) * b - a).key == (21, 1, -8, 1)
    assert (((a + b) * b - a).inverse() * QC(2)).key == (42, 505, 16, 505)
    assert (-b).inverse().key == (-1, 3, 0, 1) and (b ** -2).key == (1, 9, 0, 1)
