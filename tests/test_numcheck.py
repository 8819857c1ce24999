import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import field_of
from wholediff import MassShellScenario, RetardedScenario, build_mass_shell, build_retarded
from wholediff.depctx import DependencyContext, sample_on_shell, solve_dependents
from wholediff.errors import (
    EvaluationError,
    NormalOrderError,
    SingularityError,
    UnboundSymbolError,
    UnsupportedExpressionError,
)
from wholediff.numcheck import (
    DEFAULT_FD_STEP,
    NumericBinding,
    OpaqueFn,
    SamplerSpec,
    _fd_partial,
    evaluate,
    fd_commutator_pE,
    fd_whole,
    shipped_closures,
    verify_identity,
)
from wholediff.physcases import RETARDED_TP
from wholediff.symexpr import (
    Expr,
    PartialAtom,
    PowAtom,
    RepAtom,
    Symbol,
    SymbolKind,
)
from wholediff.wholederiv import whole_partial, whole_partial_raw

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
    with pytest.raises(ValueError, match=r"^sampler sign must be \+1 or -1, not 0$"):
        SamplerSpec(sign=0)
    with pytest.raises(ValueError, match="sign must be"):
        SamplerSpec(kind="box", sign=2)
    assert SamplerSpec(kind="box", sign=-1).sign == -1
    assert (SamplerSpec().kind, SamplerSpec().sign) == ("on-shell", 1)
    assert (SamplerSpec("box", -1).kind, SamplerSpec("box", -1).sign) == ("box", -1)


def test_box_sampler_off_shell(ms_commuting):
    ctx = ms_commuting
    spec = SamplerSpec(kind="box")
    vals = spec.draw(ctx, 0, seed=9)
    assert set(vals) >= {"p1", "p2", "p3", "m", "E"}
    assert vals == spec.draw(ctx, 0, seed=9)


def test_box_sampler_draws_numpy_default_rng_stream(ms_commuting):
    """Independents, parameters, then dependents, each from the stream of
    numpy's default_rng([seed, index])."""
    np = pytest.importorskip("numpy")
    ctx = ms_commuting
    rng = np.random.default_rng([9, 3])
    want = {s.name: rng.uniform(-2.0, 2.0) for s in ctx.independents}
    want.update({s.name: rng.uniform(0.5, 2.0) for s in ctx.parameters})
    want.update({s.name: -rng.uniform(0.5, 2.0) for s in ctx.dependents})
    got = SamplerSpec(kind="box", sign=-1).draw(ctx, 3, seed=9)
    assert list(got) == list(want)
    assert got == want


@pytest.mark.parametrize("samples", [3, 1025])
def test_box_verify_identity_draws_each_sample_from_its_index_stream(ms_commuting, samples):
    """The box path seeds all its samples together, 1025 crossing a chunk;
    every sample is the one SamplerSpec.draw makes from its own index."""
    ctx = ms_commuting
    seen = []
    f = OpaqueFn(lambda *a: seen.append(a) or 0.0)
    m = Expr.symbol(ctx.find_symbol("m"))
    report = verify_identity(field_of(ctx) + m, m, ctx, SamplerSpec(kind="box", sign=-1),
                             seed=17, samples=samples, opaques={"f": f})
    assert report.passed
    spec = SamplerSpec(kind="box", sign=-1)
    want = [spec.draw(ctx, k, seed=17) for k in range(samples)]
    assert seen == [tuple(v[a.name] for a in ctx.opaques[0][1]) for v in want]


def _narrow_shell():
    """E^2 = p1^2 + p2^2 - m^2, which has no real E at some draws: the
    on-shell sampler draws those samples again."""
    p2 = Symbol("p2", SymbolKind.INDEPENDENT)
    return DependencyContext(
        independents=(p1, p2), parameters=(m,), dependents=(E,),
        constraints=((EE ** 2 - P1 ** 2 - Expr.symbol(p2) ** 2 + M ** 2, E),),
        ordering_mode="commuting",
    )


@pytest.mark.parametrize("sign", [1, -1])
def test_on_shell_draw_is_the_sample_on_shell_sample(ms_commuting, sign, monkeypatch):
    """On-shell SamplerSpec.draw(ctx, k, seed) lies on the constraint
    surface and is sample k of sample_on_shell, redrawn samples included
    (the narrow shell at seed 4)."""
    import wholediff.numcheck as numcheck

    spec = SamplerSpec("on-shell", sign)
    for ctx, seed in ((ms_commuting, 5), (_narrow_shell(), 4)):
        g = ctx.constraints[0][0]
        want = sample_on_shell(ctx, 12, seed, sign=sign)
        draws = []
        draw_free = numcheck._draw_free
        monkeypatch.setattr(numcheck, "_draw_free", lambda c, r: draws.append(1) or draw_free(c, r))
        for k in range(12):
            got = spec.draw(ctx, k, seed)
            assert got == want[k]
            assert abs(evaluate(g, NumericBinding(values=got))) <= 1e-12
            assert got["E"] * sign > 0
        monkeypatch.undo()
        if seed == 4:
            assert len(draws) > 12  # some sample was drawn again


@pytest.mark.parametrize("kind", ["on-shell", "box"])
def test_verify_identity_checks_each_sample_before_drawing_the_next(ms_commuting, kind,
                                                                    monkeypatch):
    """Memory does not grow with the sample count: sample k is evaluated
    before sample k + 1 is drawn."""
    import wholediff.numcheck as numcheck

    order = []
    draw_free = numcheck._draw_free
    monkeypatch.setattr(numcheck, "_draw_free",
                        lambda c, r: order.append("draw") or draw_free(c, r))
    f = OpaqueFn(lambda *a: order.append("evaluate") or 0.0)
    ctx = ms_commuting
    report = verify_identity(field_of(ctx) + M, M, ctx, SamplerSpec(kind), seed=3, samples=4,
                             opaques={"f": f})
    assert report.passed
    assert order == ["draw", "evaluate"] * 4


@pytest.mark.parametrize("error", [False, True])
def test_verify_identity_keeps_the_first_10_diagnostics(ms_commuting, error, monkeypatch):
    """A box identity that fails 25 samples reports 25 failures and keeps
    the diagnostics of samples 0-9 only, made as they fail; an evaluation
    error is a failure too."""
    import wholediff.numcheck as numcheck

    made = []

    class Counted(numcheck.FailureDiagnostic):
        def __init__(self, *args, **kwargs):
            made.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numcheck, "FailureDiagnostic", Counted)
    ctx = ms_commuting
    rhs = Expr.symbol(Symbol("q", SymbolKind.PARAMETER)) if error else 2 * P1
    report = verify_identity(P1, rhs, ctx, SamplerSpec("box"), seed=8, samples=25)
    assert report.failures == 25
    assert [d.sample_index for d in report.diagnostics] == list(range(10))
    assert all(bool(d.error) == error for d in report.diagnostics)
    assert made == list(range(10))


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_identity_rejects_fewer_than_one_sample(ms_commuting, samples):
    """No sample checked is no verdict, not a pass."""
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify_identity(P1, P1, ms_commuting, SamplerSpec(), samples=samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
@pytest.mark.parametrize("which", ["tol_rel", "tol_abs"])
def test_verify_identity_rejects_tolerances_not_finite_and_non_negative(ms_commuting, which, bad):
    """A NaN or infinite tolerance passes every sample, even of a false
    identity; a negative one is meaningless."""
    with pytest.raises(ValueError, match="tolerances must be finite and non-negative"):
        verify_identity(P1, 2 * P1, ms_commuting, SamplerSpec(), samples=3, **{which: bad})
    assert verify_identity(P1, P1, ms_commuting, SamplerSpec(), samples=3, **{which: 0.0}).passed


# ---------------------------------------------------------------------------
# The compiled evaluator against the tree walk it replaced
# ---------------------------------------------------------------------------


def _reference_evaluate(e, b):
    """The tree-walking evaluator that the compiled programs replaced,
    kept as the reference for them; the one change since is that a
    positive power of an exactly zero base is 0."""
    e = Expr._coerce(e)
    num = _reference_eval_poly(e._num, b)
    if e.den_is_one():
        return num
    den = _reference_eval_poly(e._den, b)
    if abs(den) < 1e-300:
        raise SingularityError("denominator magnitude below 1e-300")
    return num / den


def _reference_eval_poly(p, b):
    total = 0j
    for c, f in p:
        term = c.to_complex()
        for a, exp in f:
            v = _reference_eval_atom(a, b)
            if exp < 0 and abs(v) < 1e-300:
                raise SingularityError("division by a value of magnitude below 1e-300")
            term *= v**exp
        total += term
    return total


def _reference_eval_atom(a, b):
    if isinstance(a, Symbol):
        return b.value(a.name)
    if isinstance(a, PowAtom):
        base = _reference_evaluate(a.base, b)
        if base == 0 and a.exp < 0:
            raise SingularityError("zero base with negative exponent")
        if base.imag == 0 and base.real > 0:
            return complex(base.real ** float(a.exp))
        if base == 0:
            return 0j
        return cmath.exp(float(a.exp) * cmath.log(base))
    if isinstance(a, PartialAtom) and not a.orders:
        closure = b.opaques.get(a.fn.name)
        if closure is None:
            raise UnboundSymbolError(a.fn.name)
        args = [b.value(s.name) for s in a.args]
        return complex(closure.fn(*args))
    if isinstance(a, PartialAtom):
        closure = b.opaques.get(a.fn.name)
        if closure is None:
            raise UnboundSymbolError(a.fn.name)
        args = [b.value(s.name) for s in a.args]
        idx = tuple((s.name, n) for s, n in a.orders)
        analytic = closure.partials.get(idx)
        if analytic is not None:
            return complex(analytic(*args))
        names = [s.name for s in a.args]
        return _fd_partial(closure.fn, names, args, list(idx), DEFAULT_FD_STEP)
    if isinstance(a, RepAtom):
        return _reference_evaluate(a.expansion, b)
    raise EvaluationError(f"cannot evaluate atom {a!r}")


def _reference_solve(ctx, vals, sign=+1, near=None):
    """solve_dependents and _solve_one as they were before the solve plans,
    on the reference evaluator, with scipy's brentq for the bracketed solve."""
    brentq = pytest.importorskip("scipy.optimize").brentq

    out = {}
    for u in ctx.dependents:
        g = ctx.constraint_for(u)
        gu = g.diff_plain(u)
        guu = gu.diff_plain(u)
        guuu = guu.diff_plain(u)
        vs = {**vals, **out}
        want = None if near is None else near.get(u.name)
        val_at = lambda x, expr: _reference_evaluate(
            expr, NumericBinding(values={**vs, u.name: x})
        ).real
        if guuu.is_zero():
            a2 = 0.5 * val_at(0.0, guu)
            a1 = val_at(0.0, gu)
            a0 = val_at(0.0, g)
            if abs(a2) < 1e-14:
                out[u.name] = -a0 / a1
                continue
            disc = a1 * a1 - 4.0 * a2 * a0
            r1 = (-a1 + math.sqrt(disc)) / (2.0 * a2)
            r2 = (-a1 - math.sqrt(disc)) / (2.0 * a2)
            if want is not None:
                out[u.name] = r1 if abs(r1 - want) <= abs(r2 - want) else r2
            else:
                out[u.name] = max(r1, r2) if sign >= 0 else min(r1, r2)
            continue
        lo, hi = (1e-6, 1e3) if sign >= 0 else (-1e3, -1e-6)
        if want is not None:
            width = max(1.0, abs(want))
            lo, hi = want - width, want + width
        f = lambda x: val_at(x, g)
        out[u.name] = float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    return out


def _outcome(thunk):
    """repr of the value (bit-exact, unlike ==), or the error's type and text."""
    try:
        return repr(thunk())
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _reference_corpus(ctx, rng):
    from test_properties import _expr_pool, _rand_expr

    pool = _expr_pool(ctx)
    fe = field_of(ctx)
    ps = [ctx.find_symbol(n) for n in ("p1", "p2", "p3")]
    E = ctx.find_symbol("E")
    P1, M, EE = Expr.symbol(ps[0]), Expr.symbol(ctx.find_symbol("m")), Expr.symbol(E)
    i = Expr.imaginary_unit()
    extra = [
        EE ** -3,
        (i * M + Fraction(1, 3)) * fe.diff_plain(E).diff_plain(E).diff_plain(E),
        (M + i * EE) ** Fraction(-1, 3),
        (M ** 2 - EE ** 2) ** Fraction(-1, 2),
        (M ** 2 - EE ** 2) ** Fraction(1, 2) * P1,
    ]
    if ctx.ordering_mode == "commuting":
        extra += [P1 / (EE + i * M), (M - i * P1) ** Fraction(-3, 2) / (EE ** 2 - M)]
    pool = pool + extra
    out = list(extra)
    for _ in range(40):
        e = _rand_expr(rng, pool)
        v = rng.choice(ps)
        out.append(e)
        if rng.random() < 0.5:
            continue
        try:
            out += [whole_partial_raw(e, v, ctx), whole_partial(e, v, ctx)]
        except (UnsupportedExpressionError, NormalOrderError):  # p_i in a sum denominator or power
            pass
    return out


@pytest.mark.parametrize(
    "mode, feynman", [("commuting", False), ("operator", False), ("paper", False), ("paper", True)]
)
def test_compiled_evaluate_matches_reference_walk(mode, feynman):
    ctx = build_mass_shell(MassShellScenario(ordering_mode=mode, feynman=feynman))
    rng = random.Random(f"compiled-{mode}-{feynman}")
    exprs = _reference_corpus(ctx, rng)
    # the mass-shell representation p_i/E has no sum denominator, so only
    # paper mode keeps its marker in the raw whole partials
    has_marker = any(isinstance(a, RepAtom) for e in exprs for _, f in e._num for a, _ in f)
    assert has_marker == (mode == "paper")
    closures = dict(shipped_closures(3))
    # no analytic partials at all: every partial atom takes the FD fallback
    closures["bare"] = OpaqueFn(lambda p1, p2, p3, e: cmath.sin(e) * p1 + p2 * p3 * e ** 2)
    names = ["p1", "p2", "p3", "m", "E", "kappa12", "kappa13", "kappa23", "B1", "B2", "B3"]
    kinds = {"value": 0, "SingularityError": 0, "UnboundSymbolError": 0}
    for e in exprs:
        for _ in range(3):
            vals = {n: rng.uniform(-2.0, 2.0) for n in names}
            vals["m"] = rng.uniform(0.5, 2.0)
            if rng.random() < 0.2:
                vals["E"] = rng.choice((0.0, 1e-310))
            if rng.random() < 0.15:
                del vals[rng.choice(names)]
            closure = rng.choice([None] + sorted(closures))
            b = NumericBinding(values=vals, opaques={"f": closures[closure]} if closure else {})
            want = _outcome(lambda: _reference_evaluate(e, b))
            assert _outcome(lambda: evaluate(e, b)) == want, (e, vals, closure)
            kinds[want[0] if isinstance(want, tuple) else "value"] += 1
    assert all(n > 10 for n in kinds.values()), kinds
    # a power of an exactly zero base, and values the power v**1 of a
    # monomial factor does not pass through unchanged
    edges = [{"E": 1.5, "m": 1.5}, {"p1": math.inf}, {"p1": math.nan}, {"p1": complex(-0.0, -1.0)}]
    for e in exprs:
        for edge in edges:
            vals = dict({n: 0.75 for n in names}, **edge)
            b = NumericBinding(values=vals, opaques={"f": closures["bare"]})
            assert _outcome(lambda: evaluate(e, b)) == _outcome(lambda: _reference_evaluate(e, b))


def test_solve_dependents_matches_reference_roots(ms_commuting):
    for sign in (+1, -1):
        for vals in sample_on_shell(ms_commuting, 20, 11, sign=sign):
            free = {k: v for k, v in vals.items() if k != "E"}
            want = _reference_solve(ms_commuting, free, sign)
            assert repr(want) == repr(solve_dependents(ms_commuting, free, sign=sign))
            assert want["E"] == vals["E"]
            near = {"E": vals["E"] * rng_scale for rng_scale in (-0.5,)}
            assert repr(_reference_solve(ms_commuting, free, sign, near)) == repr(
                solve_dependents(ms_commuting, free, sign=sign, near=near)
            )
    cubic = build_retarded(RetardedScenario(trajectory=Expr.symbol(RETARDED_TP) ** 3 / 10))
    for vals in sample_on_shell(cubic, 20, 12):
        free = {k: v for k, v in vals.items() if k != "tp"}
        want = _reference_solve(cubic, free)
        assert repr(want) == repr(solve_dependents(cubic, free))
        near = {"tp": vals["tp"] + 0.25}
        assert repr(_reference_solve(cubic, free, near=near)) == repr(
            solve_dependents(cubic, free, near=near)
        )


def test_compiled_long_sum_matches_reference_walk():
    """A sum of thousands of terms, more than one line of source can nest,
    compiles over several lines and adds in the walk's order."""
    xs = [Expr.symbol(Symbol(f"x{i}", SymbolKind.PARAMETER)) for i in range(80)]
    e = Expr.sum(a * b * Fraction(1, i + 1) for i, a in enumerate(xs) for b in xs[i:])
    e = e / (EE + M)
    assert len(e._num) > 3000
    rng = random.Random(5)
    for e_val in (3.0, -4.0):
        vals = {f"x{i}": rng.uniform(-2.0, 2.0) for i in range(80)}
        b = NumericBinding(values=dict(vals, E=e_val, m=4.0))
        assert _outcome(lambda: evaluate(e, b)) == _outcome(lambda: _reference_evaluate(e, b))
