"""The bracketed root solve against scipy's brentq, its reference: the
roots must agree to the last bit (compared by repr), and where brentq
refuses a bracket, _brent must refuse it too."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wholediff import RetardedScenario, build_retarded
from wholediff.numcheck import _BRACKET, _brent, _solve_plans, sample_on_shell, solve_dependents
from wholediff.errors import RootSolveError
from wholediff.physcases import RETARDED_TP
from wholediff.symexpr import Expr

brentq = pytest.importorskip("scipy.optimize").brentq


def _outcome(solve):
    """repr of the root, or "refused" for any error either solver raises
    on a bracket: a sign error, no convergence, an overflow or a NaN."""
    try:
        return repr(solve())
    except (ValueError, RuntimeError, OverflowError, RootSolveError):
        return "refused"


def _reference(f, lo, hi):
    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)


def _family(kind, a, c):
    """A function of the kind and a root of it."""
    if kind == "cubic":
        return lambda x: (x - a) * ((c[0] * x + c[1]) * x + c[2]) + c[3] * 1e-3, a
    if kind == "exp":
        return lambda x: math.exp(x) - abs(a) - 0.1, math.log(abs(a) + 0.1)
    if kind == "sin":
        return lambda x: math.sin(x - a) - c[0] * (x - a) / 7, a
    # values near 1e-200, whose products underflow to 0
    return lambda x: 1e-200 * (x - a) * (1 + x * x), a


finite = st.floats(-3.0, 3.0, allow_nan=False)
log_width = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "exp", "sin", "tiny"]),
    a=finite,
    c=st.lists(finite, min_size=4, max_size=4),
    below=log_width,
    above=log_width,
)
@example(kind="exp", a=1.0, c=[0.0] * 4, below=0.0, above=3.0)  # exp overflows at 1e3
@example(kind="cubic", a=0.5, c=[0.0, 0.0, 0.0, 1.0], below=-3.0, above=-3.0)  # one sign
def test_brent_matches_brentq_on_brackets(kind, a, c, below, above):
    """Brackets from 1e-3 to 1e3 on either side of a root of the function."""
    f, root = _family(kind, a, c)
    lo, hi = root - 10.0 ** below, root + 10.0 ** above
    want = _outcome(lambda: _reference(f, lo, hi))
    assert _outcome(lambda: _brent(lambda vals, x: f(x), {}, lo, hi, "u")) == want


def test_brent_matches_brentq_where_brentq_gives_up():
    step = lambda x: -1.0 if x < 0.1 else 1.0
    assert _outcome(lambda: _reference(step, -1e300, 1e300)) == "refused"
    assert _outcome(lambda: _brent(lambda vals, x: step(x), {}, -1e300, 1e300, "u")) == "refused"


@pytest.mark.parametrize("sign", [+1, -1])
def test_retarded_roots_match_brentq_on_both_sheets(sign):
    """The retarded cubic tp - tp^3/10 + x - t = 0 at verify's samples,
    on the sheet's bracket and on the bracket around a nearby value that
    finite-difference probes use."""
    ctx = build_retarded(RetardedScenario(trajectory=Expr.symbol(RETARDED_TP) ** 3 / 10))
    ((_, (g, gu, guu)),) = _solve_plans(ctx)
    assert gu is None and guu is None  # no closed form: the bracketed solve
    lo, hi = _BRACKET if sign > 0 else (-_BRACKET[1], -_BRACKET[0])
    for vals in sample_on_shell(ctx, 200, 26, sign=sign):
        free = {k: v for k, v in vals.items() if k != "tp"}
        f = lambda x: g(free, x).real
        assert repr(solve_dependents(ctx, free, sign=sign)["tp"]) == repr(_reference(f, lo, hi))
        assert repr(vals["tp"]) == repr(_reference(f, lo, hi))
        for near in (vals["tp"], vals["tp"] + 0.25, -vals["tp"]):
            width = max(1.0, abs(near))
            got = _outcome(lambda: solve_dependents(ctx, free, sign=sign, near={"tp": near})["tp"])
            assert got == _outcome(lambda: _reference(f, near - width, near + width))
