import cmath
import math

import pytest

from conftest import field_of
from wholediff.depctx import sample_on_shell
from wholediff.errors import SingularityError, UnboundSymbolError
from wholediff.numcheck import (
    NumericBinding,
    OpaqueFn,
    SamplerSpec,
    evaluate,
    fd_commutator_pE,
    fd_whole,
    shipped_closures,
    verify_identity,
)
from wholediff.symexpr import Expr, Symbol, SymbolKind
from wholediff.wholederiv import whole_partial

m = Symbol("m", SymbolKind.PARAMETER)
E = Symbol("E", SymbolKind.DEPENDENT)
p1 = Symbol("p1", SymbolKind.INDEPENDENT)
P1, M, EE = Expr.symbol(p1), Expr.symbol(m), Expr.symbol(E)


def test_evaluate_345():
    e = (M ** 2 + P1 ** 2) ** 0.5 if False else (M ** 2 + P1 ** 2) ** __import__("fractions").Fraction(1, 2)
    b = NumericBinding(values={"p1": 3.0, "m": 4.0})
    assert evaluate(e, b) == pytest.approx(5.0)


def test_evaluate_spot_value():
    e = P1 / EE ** 2 * (2 * EE)
    b = NumericBinding(values={"p1": 3.0, "E": 5.0})
    assert evaluate(e, b) == pytest.approx(1.2)


def test_evaluate_singularity_and_unbound():
    b = NumericBinding(values={"E": 0.0})
    with pytest.raises(SingularityError):
        evaluate(Expr.one() / EE, b)
    with pytest.raises(UnboundSymbolError):
        evaluate(P1, NumericBinding(values={}))


def test_evaluate_opaque_analytic_and_fd():
    f = Symbol("f", SymbolKind.OPAQUE)
    fe = Expr.opaque(f, (p1, E))
    fE = fe.diff_plain(E)
    closure = OpaqueFn(fn=lambda p, e: e ** 2 * p)
    b = NumericBinding(values={"p1": 3.0, "E": 5.0}, opaques={"f": closure})
    assert evaluate(fe, b) == pytest.approx(75.0)
    # FD fallback for the partial atom
    assert evaluate(fE, b) == pytest.approx(30.0, rel=1e-7)
    # analytic partial override
    closure2 = OpaqueFn(
        fn=lambda p, e: e ** 2 * p, partials={(("E", 1),): lambda p, e: 2 * e * p}
    )
    b2 = NumericBinding(values={"p1": 3.0, "E": 5.0}, opaques={"f": closure2})
    assert evaluate(fE, b2) == pytest.approx(30.0)


def test_fd_whole_matches_closed_form(ms_commuting):
    ctx = ms_commuting
    b = NumericBinding(values={"p1": 3.0, "p2": 0.0, "p3": 0.0, "m": 4.0, "E": 5.0})
    got = fd_whole(EE, ctx.find_symbol("p1"), ctx, b)
    assert got == pytest.approx(0.6, abs=1e-9)
    got2 = fd_whole(Expr.symbol(ctx.find_symbol("p2")), ctx.find_symbol("p1"), ctx, b)
    assert got2 == pytest.approx(0.0, abs=1e-9)


def test_fd_whole_negative_sheet(ms_commuting):
    ctx = ms_commuting
    b = NumericBinding(values={"p1": 3.0, "p2": 0.0, "p3": 0.0, "m": 4.0, "E": -5.0})
    got = fd_whole(EE, ctx.find_symbol("p1"), ctx, b, sign=-1)
    assert got == pytest.approx(-0.6, abs=1e-9)


def test_fd_whole_opaque_chain(ms_commuting):
    ctx = ms_commuting
    fe = field_of(ctx)
    closures = shipped_closures(3)
    b = NumericBinding(
        values={"p1": 3.0, "p2": 0.0, "p3": 0.0, "m": 4.0, "E": 5.0},
        opaques={"f": closures["poly"]},
    )
    got = fd_whole(fe, ctx.find_symbol("p1"), ctx, b)
    # f = E^2 p1: whole d/dp1 = E^2 + 2 E p1 (p1/E) = 25 + 2*5*3*(3/5)
    assert got == pytest.approx(25.0 + 18.0, rel=1e-8)


def test_fd_convergence_order(ms_commuting):
    ctx = ms_commuting
    b = NumericBinding(values={"p1": 1.2, "p2": -0.7, "p3": 0.4, "m": 1.1, "E": 2.0})
    vals = {}
    exact = None
    e = EE ** 3
    # closed form: d(E^3)/dp1 along shell = 3 E^2 (p1/E) = 3 E p1
    import math as _m

    Eval = _m.sqrt(1.1 ** 2 + 1.2 ** 2 + 0.7 ** 2 + 0.4 ** 2)
    b = NumericBinding(values={"p1": 1.2, "p2": -0.7, "p3": 0.4, "m": 1.1, "E": Eval})
    exact = 3 * Eval * 1.2
    err = {}
    for h in (1e-3, 5e-4):
        err[h] = abs(fd_whole(e, ctx.find_symbol("p1"), ctx, b, h=h) - exact)
    ratio = err[1e-3] / max(err[5e-4], 1e-300)
    assert 2.5 < ratio < 6.0  # centered differences: ~4x per halving


def test_fd_commutator_pE_spot_values():
    closures = shipped_closures(3)
    b = NumericBinding(values={"p1": 3.0, "p2": 0.0, "p3": 0.0, "E": 5.0})
    # poly closure is E^2*p1: (p1/E^2) * dF/dE = (3/25)*2*5*3 = 3.6
    got = fd_commutator_pE(closures["poly"].fn, 1, b)
    assert got == pytest.approx(3.6, rel=1e-5)
    # pure f=E^2 reproduces the 1.2 spot value
    got2 = fd_commutator_pE(lambda *a: a[3] ** 2, 1, b)
    assert got2 == pytest.approx(1.2, rel=1e-5)
    # f independent of E -> 0
    got3 = fd_commutator_pE(lambda *a: a[0] * a[1], 1, b)
    assert got3 == pytest.approx(0.0, abs=1e-6)
    # exponential closure at p=(1,0,0), E=2
    b2 = NumericBinding(values={"p1": 1.0, "p2": 0.0, "p3": 0.0, "E": 2.0})
    got4 = fd_commutator_pE(closures["exponential"].fn, 1, b2)
    assert got4 == pytest.approx(math.e ** 2 / 4.0, rel=1e-4)


def test_verify_identity_pass_and_determinism(ms_commuting):
    ctx = ms_commuting
    fe = field_of(ctx)
    E = ctx.find_symbol("E")
    lhs = (P1 / EE ** 2) * fe.diff_plain(E)
    rhs = (P1 / EE ** 2) * fe.diff_plain(E)
    closures = shipped_closures(3)
    r1 = verify_identity(
        lhs, rhs, ctx, SamplerSpec(), seed=5, samples=20, opaques={"f": closures["poly"]}
    )
    r2 = verify_identity(
        lhs, rhs, ctx, SamplerSpec(), seed=5, samples=20, opaques={"f": closures["poly"]}
    )
    assert r1.passed and r1.verdict == "pass"
    assert r1.to_json_dict() == r2.to_json_dict()


def test_verify_identity_negative_control(ms_commuting):
    ctx = ms_commuting
    p2 = Expr.symbol(ctx.find_symbol("p2"))
    report = verify_identity(P1, p2, ctx, SamplerSpec(), samples=10)
    assert not report.passed
    assert report.failures > 0
    assert report.diagnostics
    assert report.to_json_dict()["verdict"] == "fail"


def test_verify_identity_evaluation_errors_are_failures(ms_commuting):
    ctx = ms_commuting
    q = Expr.symbol(Symbol("q", SymbolKind.PARAMETER))
    report = verify_identity(q, P1, ctx, SamplerSpec(), samples=3)
    assert report.failures == 3
    assert all(d.error for d in report.diagnostics)


def test_sampler_spec_rejects_unknown_kind_and_sign():
    with pytest.raises(ValueError, match="unknown sampler kind 'onshell'"):
        SamplerSpec(kind="onshell")
    with pytest.raises(ValueError, match="sign must be"):
        SamplerSpec(sign=0)
    with pytest.raises(ValueError, match="sign must be"):
        SamplerSpec(kind="box", sign=2)
    assert SamplerSpec(kind="box", sign=-1).sign == -1


def test_box_sampler_off_shell(ms_commuting):
    ctx = ms_commuting
    spec = SamplerSpec(kind="box")
    vals = spec.draw(ctx, 0, seed=9)
    assert set(vals) >= {"p1", "p2", "p3", "m", "E"}
    assert vals == spec.draw(ctx, 0, seed=9)
