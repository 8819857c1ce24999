from fractions import Fraction
from types import SimpleNamespace

import pytest

import wholediff
import wholediff.diffop

from conftest import field_of
from wholediff.errors import ContextError, MissingRepresentationError
from wholediff.depctx import DependencyContext
from wholediff.symexpr import Expr, Symbol, SymbolKind, equals_canonical
from wholediff.wholederiv import (
    mixed_difference,
    plain_partial,
    whole_partial,
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
    """W-words of order <= 3 in every ordering mode print exactly what the
    benchmark's golden digests (bench/golden.json) recorded."""
    w = bench_workloads
    golden = w.load_golden()["derive-tower"]
    m = SimpleNamespace(wd=wholediff, diffop=wholediff.diffop)
    ctxs = {mode: w.mass_shell(m, mode) for mode in w.MODES}
    checked = 0
    for mode, text in w.tower_domain(max_order=3):
        key = f"{mode}|{text}"
        assert w.digest(w.tower_output(m, ctxs[mode], text)) == golden[key], key
        checked += 1
    assert checked == 60
