from fractions import Fraction
from types import SimpleNamespace

import pytest

import wholediff
import wholediff.diffop

from conftest import field_of
from wholediff.errors import ContextError, MissingRepresentationError
from wholediff.depctx import DependencyContext
from wholediff.physcases import MassShellScenario, build_mass_shell
from wholediff.symexpr import Expr, RepAtom, Symbol, SymbolKind, equals_canonical
from wholediff.wholederiv import (
    finalize,
    mixed_difference,
    plain_partial,
    whole_partial,
    whole_partial_raw,
    whole_partial_wrt_dependent,
)


def syms(ctx, *names):
    return tuple(ctx.find_symbol(n) for n in names)


def test_whole_partial_adds_chain_term(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    fe = field_of(ctx)
    got = whole_partial(fe, p1, ctx)
    want = fe.diff_plain(p1) + fe.diff_plain(E) * (Expr.symbol(p1) / Expr.symbol(E))
    assert equals_canonical(got, want)


def test_whole_partial_of_dependent_is_representation(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    got = whole_partial(Expr.symbol(E), p1, ctx)
    assert equals_canonical(got, Expr.symbol(p1) / Expr.symbol(E))


def test_whole_partial_wrt_dependent_is_plain(ms_commuting):
    ctx = ms_commuting
    E = ctx.find_symbol("E")
    fe = field_of(ctx)
    got = whole_partial_wrt_dependent(fe, E, ctx)
    assert equals_canonical(got, fe.diff_plain(E))
    with pytest.raises(ContextError):
        whole_partial_wrt_dependent(fe, ctx.find_symbol("p1"), ctx)


def test_whole_partial_requires_independent(ms_commuting):
    ctx = ms_commuting
    with pytest.raises(ContextError):
        whole_partial(field_of(ctx), ctx.find_symbol("E"), ctx)


def test_missing_representation_raises():
    p = Symbol("p1", SymbolKind.INDEPENDENT)
    u = Symbol("u", SymbolKind.DEPENDENT)
    ctx = DependencyContext(independents=(p,), dependents=(u,), ordering_mode="commuting")
    with pytest.raises(MissingRepresentationError):
        whole_partial(Expr.symbol(u) * Expr.symbol(p), p, ctx)


@pytest.mark.parametrize("mode", ["commuting", "operator", "paper"])
def test_raw_whole_partial_keeps_a_marker_only_where_order_shows(mode):
    """Outside paper mode a representation with denominator one and no
    fractional power is multiplied in; paper mode, a sum denominator and a
    fractional power keep the marker for finalize."""
    ctx = build_mass_shell(MassShellScenario(ordering_mode=mode))
    p1, E = syms(ctx, "p1", "E")
    P1, EE, M = Expr.symbol(p1), Expr.symbol(E), Expr.symbol(ctx.find_symbol("m"))
    fe = field_of(ctx)
    reps = {
        "p1/E": P1 / EE,
        "p1/(E+m)": P1 / (EE + M),
        "p1 sqrt(m^2+E^2)": P1 * (M ** 2 + EE ** 2).sqrt(),
    }
    for label, rep in reps.items():
        ctx.declare_representation(E, p1, rep)
        raw = whole_partial_raw(fe, p1, ctx)
        marked = any(isinstance(a, RepAtom) for a in raw.atoms())
        assert marked == (mode == "paper" or label != "p1/E"), label
        want = finalize(fe.diff_plain(p1) + fe.diff_plain(E) * rep, ctx)
        assert equals_canonical(finalize(raw, ctx), want), label


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "no multivariate GCD (ROADMAP item 4): once a sum denominator enters, "
    "the canonical form depends on the order of expansion"))
@pytest.mark.parametrize("case", ["p/(E+m)", "p sqrt(E^2+m^2)"])
def test_multiplying_a_guarded_representation_in_keeps_the_form(case):
    """Why whole_partial_raw keeps the marker of a representation with a sum
    denominator or a fractional power (the derivative of a root of a sum
    has one): taking it in at each step gives the same value as the marker
    path but another, here smaller, canonical form.  A GCD should flip this
    test and let the guard go."""
    ctx = build_mass_shell(MassShellScenario(ordering_mode="commuting"))
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    EE, M = Expr.symbol(E), Expr.symbol(ctx.find_symbol("m"))
    root = (EE ** 2 + M ** 2).sqrt()
    if case == "p/(E+m)":
        shape, e, word = (lambda p: p / (EE + M)), EE ** 2, (p1, p2)
    else:
        shape, e, word = (lambda p: p * root), root, (p1, p1)
    for p in ctx.independents:
        ctx.declare_representation(E, p, shape(Expr.symbol(p)))
    direct = marked = e
    for v in word:
        rep = ctx.representation(E, v)
        direct = direct.diff_plain(v) + direct.diff_plain(E) * rep
        marked = marked.diff_plain(v) + marked.diff_plain(E) * Expr.atom(RepAtom(E, v, rep))
    direct, marked = finalize(direct, ctx), finalize(marked, ctx)
    if not equals_canonical(direct, marked):
        pytest.fail("the two paths give different values")
    assert direct == marked


def test_plain_partial_ignores_dependence(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    assert plain_partial(Expr.symbol(E), p1).is_zero()
    assert equals_canonical(plain_partial(Expr.symbol(p1) ** 2, p1), 2 * Expr.symbol(p1))


def test_mixed_difference_commuting_vanishes(ms_commuting):
    ctx = ms_commuting
    p1, p2 = syms(ctx, "p1", "p2")
    assert mixed_difference(field_of(ctx), p1, p2, ctx).is_zero()


def test_mixed_difference_paper_mode(ms_paper):
    ctx = ms_paper
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    k12 = ctx.commutators.lookup(p1, p2)
    fe = field_of(ctx)
    fE = fe.diff_plain(E)
    got = mixed_difference(fe, p1, p2, ctx)
    want = k12 / Expr.symbol(E) ** 3 * fE
    assert equals_canonical(got, want)
    # antisymmetric in the variable pair
    assert equals_canonical(mixed_difference(fe, p2, p1, ctx), -want)


def test_mixed_difference_operator_mode(ms_operator):
    ctx = ms_operator
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    k12 = ctx.commutators.lookup(p1, p2)
    fe = field_of(ctx)
    EE = Expr.symbol(E)
    fE = fe.diff_plain(E)
    fEE = fE.diff_plain(E)
    got = mixed_difference(fe, p1, p2, ctx)
    want = k12 / EE ** 3 * fE - k12 / EE ** 2 * fEE
    assert equals_canonical(got, want)


def test_mixed_difference_same_variable_rejected(ms_commuting):
    ctx = ms_commuting
    p1 = ctx.find_symbol("p1")
    with pytest.raises(ContextError):
        mixed_difference(field_of(ctx), p1, p1, ctx)


def test_second_whole_partial_scalar_function(ms_commuting):
    # hand oracle: W1 W2 (E) = W1(p2/E) = -p1 p2 / E^3
    ctx = ms_commuting
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    EE = Expr.symbol(E)
    got = whole_partial(whole_partial(EE, p2, ctx), p1, ctx)
    want = -Expr.symbol(p1) * Expr.symbol(p2) / EE ** 3
    assert equals_canonical(got, want)


def test_derive_tower_matches_golden_digests(bench_workloads):
    """W-words of every order the benchmark draws (1 to 5) in every ordering
    mode print exactly what its golden digests (bench/golden.json) recorded."""
    w = bench_workloads
    golden = w.load_golden()["derive-tower"]
    m = SimpleNamespace(wd=wholediff, diffop=wholediff.diffop)
    ctxs = {mode: w.mass_shell(m, mode) for mode in w.MODES}
    checked = 0
    for mode, text in w.tower_domain():
        key = f"{mode}|{text}"
        assert w.digest(w.tower_output(m, ctxs[mode], text)) == golden[key], key
        checked += 1
    assert checked == 108 == len(golden)


def test_commuting_ordering_does_no_normal_ordering(monkeypatch):
    """Under ordering commuting every letter is central: declared
    commutators cause no normal ordering and change no output."""
    from wholediff import symexpr
    from wholediff.diffop import apply
    from wholediff.textio import parse_context, parse_operator, print_expr, serialize_context

    bare = serialize_context(build_mass_shell(MassShellScenario(ordering_mode="commuting")))
    declared = serialize_context(build_mass_shell(MassShellScenario(ordering_mode="operator")))
    declared = declared.replace("ordering operator", "ordering commuting")
    assert "commutator [p1,p2]" in declared
    calls = []
    real = symexpr._normal_order_mono
    monkeypatch.setattr(symexpr, "_normal_order_mono", lambda *a: calls.append(a) or real(*a))
    outs = []
    for text in (declared, bare):
        ctx = parse_context(text)
        op = parse_operator("W[p1]*W[p2]*W[p3]*W[p1]*W[p2]", ctx)
        outs.append(print_expr(apply(op, field_of(ctx))))
    assert len(calls) == 0
    assert outs[0] == outs[1]
