"""Paper-mode finalize in one accumulating pass (symexpr.paper_normal_order)
against the two passes it replaces, normal_order(expand_rep_atoms(e,
'paper')): the same canonical form under ==, and, where the pass falls
back to the two passes, the same value or the same error."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wholediff import MassShellScenario, build_mass_shell
from wholediff.errors import NormalOrderError, UnsupportedExpressionError
from wholediff.symexpr import (
    Expr,
    RepAtom,
    _NotPlain,
    _paper_monos,
    _poly_expr,
    _poly_merge,
    expand_rep_atoms,
    normal_order,
    paper_normal_order,
)
import wholediff.symexpr as symexpr
from wholediff.textio import parse_context, parse_operator, serialize_context
from wholediff.wholederiv import derive_raw, finalize


def _context(feynman=False):
    return build_mass_shell(MassShellScenario(ordering_mode="paper", feynman=feynman))


CTXS = {"paper": _context(), "paper+feynman": _context(feynman=True)}


def _raw(ctx, text):
    """The one term of the word, differentiated with its markers kept: what
    apply hands to finalize."""
    (coeff, gens), = parse_operator(text, ctx).terms
    cur = Expr.opaque(*ctx.opaques[0])
    for g in reversed(gens):
        cur = derive_raw(cur, g.variable, g.mode, ctx)
    return coeff * cur


def _two_pass(e, ctx):
    return normal_order(expand_rep_atoms(e, "paper"), ctx.commutators)


def _one_pass(e, ctx):
    """The accumulated pass itself, with no fallback."""
    assert e.den_is_one()
    return _poly_expr(_poly_merge(_paper_monos(e._num, ctx.commutators)))


def _tower_words(bench_workloads):
    for mode, text in bench_workloads.tower_domain(5):
        if mode in CTXS:
            yield mode, text
    for k in (6, 7):
        yield "paper", "".join("W[p1]" if i % 2 == 0 else "W[p2]" for i in range(k))


def test_paper_pass_matches_the_two_passes_on_tower_words(bench_workloads, monkeypatch):
    """Every paper and paper+feynman derive-tower word of order 1-5 and the
    alternating W^6 and W^7: finalize takes the one pass (the two passes
    are not called) and its value is the two passes' value."""
    raws = [(mode, text, _raw(CTXS[mode], text)) for mode, text in _tower_words(bench_workloads)]
    assert len(raws) == 2 * (3 + 6 + 6 + 6 + 6) + 2

    def refuse(*_args):
        raise AssertionError("the two-pass route ran")

    with monkeypatch.context() as patch:
        patch.setattr(symexpr, "expand_rep_atoms", refuse)
        patch.setattr(symexpr, "normal_order", refuse)
        got = [finalize(e, CTXS[mode]) for mode, _text, e in raws]
    for (mode, text, e), value in zip(raws, got):
        want = _two_pass(e, CTXS[mode])
        assert value == want == _one_pass(e, CTXS[mode]), (mode, text)


# A raw word: tokens 0-2 are the letters p1..p3, 3 is 1/E, 4 is m, 5 is the
# commutator symbol kappa12 (B3 in the Feynman context), and 6-8 are the
# markers of dE/dp1..dE/dp3.
_WORD = st.lists(st.integers(0, 8), max_size=9).filter(lambda t: sum(x >= 6 for x in t) <= 4)
_RAW = st.lists(st.tuples(st.integers(-3, 3).filter(bool), _WORD), min_size=1, max_size=4)


def _tokens(ctx):
    ps = [ctx.find_symbol(f"p{i}") for i in (1, 2, 3)]
    E = ctx.find_symbol("E")
    central = [Expr.symbol(E) ** -1, Expr.symbol(ctx.find_symbol("m")),
               Expr.symbol(ctx.find_symbol("B3") or ctx.find_symbol("kappa12"))]
    markers = [Expr.atom(RepAtom(E, p, ctx.representation(E, p))) for p in ps]
    return [Expr.symbol(p) for p in ps] + central + markers


@pytest.mark.parametrize("mode", sorted(CTXS))
@settings(max_examples=150, deadline=None)
@given(terms=_RAW)
def test_paper_pass_matches_the_two_passes_on_raw_words(mode, terms):
    """Sums of raw words over p1..p3, 1/E, m and a commutator symbol with
    0-4 markers."""
    ctx = CTXS[mode]
    tokens = _tokens(ctx)
    e = Expr.sum(functools.reduce(operator.mul, (tokens[t] for t in word), Expr.const(c))
                 for c, word in terms)
    want = _two_pass(e, ctx)
    assert _one_pass(e, ctx) == want
    assert paper_normal_order(e, ctx.commutators) == want


def _edited(ctx, *edits):
    text = serialize_context(ctx)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return parse_context(text)


@pytest.mark.parametrize("edits, word", [
    # Commutator values with sum denominators: the merge order matters.
    ((("= kappa12\n", "= kappa12/(m^2+1)\n"), ("= kappa23\n", "= kappa23/(m+2)\n")),
     "W[p2]*W[p1]*W[p3]"),
    # sqrt(m) in a representation meets itself: Expr.__pow__ folds it.
    ((("dE/dp1 = p1/E", "dE/dp1 = p1*E/sqrt(m)"),), "W[p1]*W[p2]*W[p1]"),
    # A commutator value with a letter: its branch words need sorting.
    ((("= kappa12\n", "= kappa12*p3\n"),), "W[p2]*W[p1]*W[p3]"),
    # A representation that is a sum: the expansion is not one monomial.
    ((("dE/dp2 = p2/E", "dE/dp2 = p2/E + m*p2/E^2"),), "W[p2]*W[p1]*W[p2]"),
], ids=["sum-denominator-commutators", "sqrt-representation", "letter-in-commutator",
        "sum-representation"])
def test_paper_pass_falls_back_to_the_two_passes(edits, word):
    """Where the pass cannot keep the order of additions, finalize gives
    the two passes' value."""
    ctx = _edited(CTXS["paper"], *edits)
    e = _raw(ctx, word)
    with pytest.raises(_NotPlain):
        _paper_monos(e._num, ctx.commutators)
    assert finalize(e, ctx) == _two_pass(e, ctx)


def test_paper_pass_raises_the_two_passes_error_for_an_undeclared_pair():
    ctx = _edited(CTXS["paper"], ("commutator [p1,p3] = kappa13\n", ""))
    e = _raw(ctx, "W[p1]*W[p3]")
    with pytest.raises(NormalOrderError) as two:
        _two_pass(e, ctx)
    with pytest.raises(NormalOrderError) as one:
        finalize(e, ctx)
    assert str(one.value) == str(two.value)
    assert str(one.value) == "no commutator declared for noncommuting pair (p3, p1)"


def test_paper_pass_raises_the_two_passes_error_for_a_negative_letter():
    ctx = CTXS["paper"]
    e = _raw(ctx, "W[p1]*W[p2]") * Expr.symbol(ctx.find_symbol("p3")) ** -1
    with pytest.raises(UnsupportedExpressionError) as two:
        _two_pass(e, ctx)
    with pytest.raises(UnsupportedExpressionError) as one:
        finalize(e, ctx)
    assert str(one.value) == str(two.value)


def test_paper_context_without_commutators_only_expands():
    ctx = _edited(CTXS["paper"], *((f"commutator [{a}] = kappa{a[1]}{a[4]}\n", "")
                                   for a in ("p1,p2", "p1,p3", "p2,p3")))
    assert not ctx.commutators
    e = _raw(ctx, "W[p2]*W[p1]*W[p2]")
    assert finalize(e, ctx) == expand_rep_atoms(e, "paper")
