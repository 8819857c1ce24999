import itertools
import re
from types import SimpleNamespace

import pytest

from conftest import field_of
from test_symexpr import (
    _KERNEL_MODES,
    _fresh_name,
    _kernel_context,
    _mul_without_unit_rule,
    _two_class_context,
)
import wholediff
from wholediff import diffop, symexpr
from wholediff.depctx import DependencyContext
from wholediff.diffop import (
    DerivativeGenerator,
    DifferentialOperator,
    apply,
    commutator,
    compose,
    expand_to_plain,
    op_equals,
)
from wholediff.errors import (
    ContextError,
    ContextMismatchError,
    UnsupportedExpressionError,
    WholediffError,
)
from wholediff.symexpr import (
    Expr,
    RepAtom,
    Symbol,
    SymbolKind,
    equals_canonical,
    expand_rep_atoms,
)
from wholediff.textio import parse_context, parse_operator, print_expr, print_operator
from wholediff.wholederiv import derive_raw, finalize


def syms(ctx, *names):
    return tuple(ctx.find_symbol(n) for n in names)


def test_generator_modes_validated(ms_commuting):
    ctx = ms_commuting
    E = ctx.find_symbol("E")
    with pytest.raises(ContextError):
        DifferentialOperator.whole(ctx, E)  # whole generator needs independent
    with pytest.raises(ValueError):
        DerivativeGenerator(E, "sideways")


def test_generators_are_interned():
    """A generator built twice is one object; another mode, or a variable
    that differs in name, kind or class, gives another."""
    p1 = Symbol("p1", SymbolKind.INDEPENDENT)
    g = DerivativeGenerator(p1, "whole")
    assert DerivativeGenerator(p1, "whole") is g
    assert DerivativeGenerator(Symbol("p1", SymbolKind.INDEPENDENT), mode="whole") is g
    others = [DerivativeGenerator(p1, "plain"),
              DerivativeGenerator(Symbol("p2", SymbolKind.INDEPENDENT), "whole"),
              DerivativeGenerator(Symbol("p1", SymbolKind.INDEPENDENT, 1), "whole"),
              DerivativeGenerator(Symbol("p1", SymbolKind.PARAMETER), "whole")]
    assert len({id(x) for x in [g] + others}) == 5


def test_unreferenced_generators_leave_the_table():
    """The atom table holds generators weakly: once nothing refers to a
    generator or its variable, both entries are gone after a collection."""
    import gc
    import weakref

    q = Symbol(_fresh_name("q"), SymbolKind.INDEPENDENT)
    gens = [DerivativeGenerator(q, "plain"), DerivativeGenerator(q, "whole")]
    refs = [weakref.ref(x) for x in gens + [q]]
    gc.collect()
    before = len(symexpr._ATOMS)
    assert all(x in set(symexpr._ATOMS.values()) for x in gens)
    del q, gens
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(symexpr._ATOMS) == before - len(refs)


def test_generators_that_share_a_name_stay_apart(ms_commuting):
    """D[p1] - D[p1'], with p1' a parameter also named p1, is not zero: f
    takes p1 and not p1', so applied to f it is D[f,p1]."""
    ctx = ms_commuting
    p1 = ctx.find_symbol("p1")
    p1_param = Symbol("p1", SymbolKind.PARAMETER)
    op = DifferentialOperator(ctx, [(Expr.one(), (DerivativeGenerator(p1, "plain"),)),
                                    (-Expr.one(), (DerivativeGenerator(p1_param, "plain"),))])
    assert not op.is_zero()
    assert not op_equals(op, DifferentialOperator.zero(ctx))
    assert print_expr(apply(op, field_of(ctx))) == "D[f,p1]"


def test_each_whole_generator_validated_once(ms_commuting, monkeypatch):
    """A generator object that repeats is checked once; the first invalid
    one in term order still raises, with its name in the message."""
    ctx = ms_commuting
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    W1, W2, WE = (DerivativeGenerator(v, "whole") for v in (p1, p2, E))
    calls = []
    check = DependencyContext.is_independent
    monkeypatch.setattr(
        DependencyContext, "is_independent", lambda self, s: calls.append(s) or check(self, s)
    )
    DifferentialOperator(ctx, [(Expr.one(), (W1, W1, W2)), (Expr.const(2), (W2, W1))])
    assert calls == [p1, p2]
    with pytest.raises(ContextError, match="variable E is"):
        DifferentialOperator(ctx, [(Expr.one(), (W1, W1)), (Expr.one(), (W2, WE, WE))])


def test_negation_and_difference_keep_the_merged_terms(ms_commuting):
    """-A and A - B, which merge once or not at all, give the terms of
    negating by a fresh merge and of A + (-B): the same keys, words and
    order."""
    ctx = ms_commuting
    A = parse_operator("W[p1]*W[p2] + (p1/(E^2 + m^2))*D[E] + (m)*W[p1]", ctx)
    B = parse_operator("(E)*D[E] - W[p2]*W[p1] + (3)*W[p3]", ctx)

    def merged_negation(X):
        return DifferentialOperator(ctx, [(-c, g) for c, g in X.terms])

    assert [(c.key, g) for c, g in (-A).terms] == [
        (c.key, g) for c, g in merged_negation(A).terms
    ]
    want = A + merged_negation(B)
    assert print_operator(A - B) == print_operator(want)
    assert [(c.key, g) for c, g in (A - B).terms] == [(c.key, g) for c, g in want.terms]


def test_apply_identity_and_zero(ms_commuting):
    ctx = ms_commuting
    fe = field_of(ctx)
    assert equals_canonical(apply(DifferentialOperator.identity(ctx), fe), fe)
    assert apply(DifferentialOperator.zero(ctx), fe).is_zero()


def test_linear_structure_merges_terms(ms_commuting):
    ctx = ms_commuting
    p1 = ctx.find_symbol("p1")
    W = DifferentialOperator.whole(ctx, p1)
    two = W + W
    assert len(two.terms) == 1
    assert equals_canonical(two.terms[0][0], Expr.const(2))
    assert (W - W).is_zero()


def test_compose_agrees_with_nested_apply(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    fe = field_of(ctx)
    W = DifferentialOperator.whole(ctx, p1)
    D = DifferentialOperator.plain(ctx, E)
    mult = DifferentialOperator.multiplication(ctx, Expr.symbol(p1) / Expr.symbol(E))
    for A, B in ((W, D), (D, W), (W, W), (D, mult), (mult, W)):
        assert equals_canonical(apply(compose(A, B), fe), apply(A, apply(B, fe)))


def test_compose_pushes_derivative_through_coefficient(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    P1, EE = Expr.symbol(p1), Expr.symbol(E)
    D = DerivativeGenerator(E, "plain")
    lhs = compose(
        DifferentialOperator.plain(ctx, E),
        DifferentialOperator(ctx, [(P1 / EE, (D,))]),
    )
    want = DifferentialOperator(
        ctx,
        [(P1 / EE, (D, D)), (-(P1 / EE ** 2), (D,))],
    )
    assert op_equals(lhs, want)


def test_commutator_momentum_energy(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    fe = field_of(ctx)
    C = commutator(
        DifferentialOperator.whole(ctx, p1), DifferentialOperator.plain(ctx, E)
    )
    want = (Expr.symbol(p1) / Expr.symbol(E) ** 2) * fe.diff_plain(E)
    assert equals_canonical(apply(C, fe), want)


def test_op_equals_expands_whole_generators(ms_commuting):
    ctx = ms_commuting
    p1, E = syms(ctx, "p1", "E")
    P1, EE = Expr.symbol(p1), Expr.symbol(E)
    W = DifferentialOperator.whole(ctx, p1)
    alt = DifferentialOperator.plain(ctx, p1) + DifferentialOperator(
        ctx, [(P1 / EE, (DerivativeGenerator(E, "plain"),))]
    )
    assert op_equals(W, alt)
    D = DifferentialOperator.plain(ctx, E)
    assert not op_equals(compose(D, W), compose(W, D))


def test_flat_context_whole_commutator_vanishes():
    p1 = Symbol("p1", SymbolKind.INDEPENDENT)
    p2 = Symbol("p2", SymbolKind.INDEPENDENT)
    ctx = DependencyContext(independents=(p1, p2), ordering_mode="commuting")
    C = commutator(
        DifferentialOperator.whole(ctx, p1), DifferentialOperator.whole(ctx, p2)
    )
    assert op_equals(C, DifferentialOperator.zero(ctx))


def test_expand_to_plain_only_plain_generators(ms_commuting):
    ctx = ms_commuting
    W = DifferentialOperator.whole(ctx, ctx.find_symbol("p1"))
    flat = expand_to_plain(compose(W, W))
    assert all(g.mode == "plain" for _, gens in flat.terms for g in gens)


def test_context_mismatch_rejected(ms_commuting, ms_paper):
    A = DifferentialOperator.whole(ms_commuting, ms_commuting.find_symbol("p1"))
    B = DifferentialOperator.whole(ms_paper, ms_paper.find_symbol("p1"))
    with pytest.raises(ContextMismatchError):
        A + B


def test_scale_and_neg(ms_commuting):
    ctx = ms_commuting
    fe = field_of(ctx)
    W = DifferentialOperator.whole(ctx, ctx.find_symbol("p1"))
    assert equals_canonical(apply(W.scale(3), fe), 3 * apply(W, fe))
    assert equals_canonical(apply(-W, fe), -apply(W, fe))


# The operator algebra without the per-call derivative memo: the reference
# that compose and commutator must match.  The two-expansion reference of
# expand_to_plain multiplies each whole generator out as D[v] + sum over u of
# rep_{u,v} D[u], in written order and with no normal ordering, so it holds
# only where nothing is noncommuting.


def _reference_push(gens, coeff, ctx):
    if not gens:
        return [(coeff, ())]
    front, last = gens[:-1], gens[-1]
    out = []
    dcoeff = finalize(derive_raw(coeff, last.variable, last.mode, ctx), ctx)
    if not dcoeff.is_zero():
        out.extend(_reference_push(front, dcoeff, ctx))
    for c2, g2 in _reference_push(front, coeff, ctx):
        out.append((c2, tuple(g2) + (last,)))
    return out


def _reference_compose(A, B):
    A._check(B)
    ctx = A.context
    terms = []
    for ca, ga in A.terms:
        for cb, gb in B.terms:
            for c2, g2 in _reference_push(ga, cb, ctx):
                terms.append((ca * c2, tuple(g2) + tuple(gb)))
    return DifferentialOperator(ctx, terms)


def _reference_commutator(A, B):
    return _reference_compose(A, B) - _reference_compose(B, A)


def _elementary_plain(g, ctx):
    if g.mode == "plain":
        return DifferentialOperator.plain(ctx, g.variable)
    terms = [(Expr.one(), (DerivativeGenerator(g.variable, "plain"),))]
    for u in ctx.dependents:
        rep = ctx.representation(u, g.variable)
        if rep is not None:
            terms.append((rep, (DerivativeGenerator(u, "plain"),)))
    return DifferentialOperator(ctx, terms)


def _reference_expand_to_plain(A):
    ctx = A.context
    terms = []
    for c, gens in A.terms:
        acc = DifferentialOperator.multiplication(ctx, c)
        for g in gens:
            acc = _reference_compose(acc, _elementary_plain(g, ctx))
        terms.extend(acc.terms)
    merged = DifferentialOperator(ctx, terms).terms
    return DifferentialOperator(
        ctx, [(c, tuple(sorted(g, key=lambda d: d.variable.name))) for c, g in merged]
    )


def _reference_op_equals(A, B):
    diff = _reference_expand_to_plain(A) - _reference_expand_to_plain(B)
    return all(equals_canonical(c, Expr.zero()) for c, _ in diff.terms)


def _commuting(ctx):
    return not any(s.noncommuting for s in ctx.independents)


_GENERIC = Symbol("generic", SymbolKind.OPAQUE)


def _generic_field(ctx):
    """An opaque of every independent, dependent and parameter: apply of an
    operator to it holds each of the operator's plain partials apart."""
    return Expr.opaque(_GENERIC, ctx.independents + ctx.dependents + ctx.parameters)


def _outcome(thunk):
    """The value, or (error type, message) of what it raised."""
    try:
        return thunk()
    except (ArithmeticError, WholediffError) as exc:
        return (type(exc).__name__, str(exc))


def _apply_oracle(A, B):
    """Item 3's oracle of op_equals: whether apply(A - B, F) is zero for a
    generic opaque F, or what apply raised."""
    return _outcome(lambda: apply(A - B, _generic_field(A.context)).is_zero())


def _plain_form_of_apply(A):
    """{plain word: coefficient} of apply(A, F) for a generic opaque F, read
    off the partials of F: the form that apply(expand_to_plain(A), F) must
    give, compared word by word, since adding coefficients over different
    sum denominators swells with no GCD."""
    return {
        tuple(f"D[{v.name}]" for v, n in orders for _ in range(n)): c
        for orders, c in symexpr._partial_coefficients(
            apply(A, _generic_field(A.context)), _GENERIC)
    }


def _coefficients(op):
    """{plain word: coefficient} of an operator."""
    return {_word(g): c for c, g in op.terms}


def _assert_same_coefficients(got, want, label):
    assert sorted(got) == sorted(want), label
    for word, c in got.items():
        assert equals_canonical(c, want[word]), label


def _word(gens):
    return tuple(g.label() for g in gens)


_GENERATOR = re.compile(r"([WD])\[(\w+)\]")


def _operator(ctx, names, *terms):
    """Operator from (coefficient, word) pairs; a word such as 'W[u]D[E]'
    names its variables through names."""
    return DifferentialOperator(ctx, [
        (c, tuple(DerivativeGenerator(ctx.find_symbol(names.get(v, v)),
                                      "whole" if kind == "W" else "plain")
                  for kind, v in _GENERATOR.findall(word)))
        for c, word in terms
    ])


def _operator_corpus(mode, compose, commutator, expand_to_plain, op_equals):
    """(label, operands, outcome) of compose, commutator and expand_to_plain
    results and op_equals verdicts in one ordering mode, the outcome being
    the value or (error type, message): the mass shell, the mass shell with
    representations from its constraint only, and the two-class context.
    Coefficients include a sum denominator, a noncommuting letter at a
    negative power and a representation marker whose expansion is not the
    context's."""
    constraint_only = _kernel_context(mode)
    constraint_only.representations.clear()
    contexts = {
        "mass shell": (_kernel_context(mode), ("p1", "p2", "p3")),
        "constraint only": (constraint_only, ("p1", "p2", "p3")),
        "two classes": (_two_class_context(_KERNEL_MODES[mode][0]), ("p", "a", "d")),
    }
    out = []

    def record(label, thunk, *operands):
        value = _outcome(thunk)
        out.append((label, operands, value))
        return None if isinstance(value, tuple) else value

    for name, (ctx, independents) in contexts.items():
        names = dict(zip("uvw", independents))
        U, V, W = (Expr.symbol(ctx.find_symbol(n)) for n in independents)
        e_sym = ctx.find_symbol("E")
        E_, M_ = Expr.symbol(e_sym), Expr.symbol(ctx.find_symbol("m"))
        sum_den = E_ ** 2 + M_ ** 2
        rep = Expr.atom(RepAtom(e_sym, ctx.find_symbol(names["u"]), U / sum_den))
        ops = {
            "W[u]": _operator(ctx, names, (Expr.one(), "W[u]")),
            "uE W[v]W[u] + D[E]": _operator(
                ctx, names, (U * E_, "W[v]W[u]"), (Expr.one(), "D[E]")),
            "m/(E^2+m^2) W[v] + u D[E]W[u]": _operator(
                ctx, names, (M_ / sum_den, "W[v]"), (U, "D[E]W[u]")),
            "rep v W[u] + W[w]": _operator(ctx, names, (rep * V, "W[u]"), (Expr.one(), "W[w]")),
            "w/u W[v]": _operator(ctx, names, (W * U ** -1, "W[v]")),
        }
        labels = list(ops)
        for a in labels:
            record(f"{name}: plain {a}", lambda: expand_to_plain(ops[a]), ops[a])
            for b in labels:
                record(f"{name}: {a} o {b}", lambda: compose(ops[a], ops[b]))
        for i, a in enumerate(labels):
            for b in labels[i:]:
                record(f"{name}: {a} = {b}", lambda: op_equals(ops[a], ops[b]), ops[a], ops[b])
                C = record(f"{name}: [{a}, {b}]", lambda: commutator(ops[a], ops[b]))
                if C is not None and a != b:
                    record(f"{name}: plain [{a}, {b}]", lambda: expand_to_plain(C), C)
    return out


def _form(value):
    """Key and printed text of an operator; a verdict or an error as is."""
    if isinstance(value, DifferentialOperator):
        return tuple((c.key, _word(g)) for c, g in value.terms), print_operator(value)
    return value


_NEGATIVE_POWER = ("UnsupportedExpressionError", "negative power of a noncommuting factor")


@pytest.mark.parametrize("mode", sorted(_KERNEL_MODES))
def test_memoized_operator_algebra_matches_reference(mode, monkeypatch):
    """compose and commutator with the per-call derivative memo and the
    product-by-one rule give the keys and printed text of the un-memoized
    recursion with full products, in every ordering mode.  expand_to_plain
    is read off apply: applied to a generic opaque F, its form gives what
    the operator gives, and where nothing is noncommuting its coefficients
    equal the two-expansion reference's.  An op_equals verdict is whether
    apply(A - B, F) is zero, or the error apply raises; where nothing is
    noncommuting it is also the reference verdict."""
    memoized = _operator_corpus(mode, compose, commutator, expand_to_plain, op_equals)
    with monkeypatch.context() as m:
        m.setattr(Expr, "__mul__", _mul_without_unit_rule)
        reference = _operator_corpus(
            mode, _reference_compose, _reference_commutator,
            lambda A: _reference_expand_to_plain(A) if _commuting(A.context) else None,
            _reference_op_equals,
        )
    assert len(memoized) == len(reference) > 150
    newly_raising = []
    for (label, operands, got), (_label, _operands, want) in zip(memoized, reference):
        commuting = _commuting(operands[0].context) if operands else None
        if label.split(": ", 1)[1].startswith("plain "):
            applied = _outcome(lambda: _plain_form_of_apply(operands[0]))
            if isinstance(got, tuple):
                assert got == applied, label
                continue
            _assert_same_coefficients(_coefficients(got), applied, label)
            if commuting:
                _assert_same_coefficients(_coefficients(got), {
                    word: expand_rep_atoms(c, operands[0].context.ordering_mode)
                    for word, c in _coefficients(want).items()
                }, label)
        elif " = " in label:
            assert got == _apply_oracle(*operands), label
            if commuting:
                assert got == want, label
            elif got == _NEGATIVE_POWER and want is False:
                newly_raising.append(label)
        else:
            assert _form(got) == _form(want), label
    # The noncommuting modes refuse, as apply does, eight verdicts that the
    # two-expansion reference answered False: each takes w/u W[v] with u
    # noncommuting.
    assert len(newly_raising) == (0 if mode == "commuting" else 8), newly_raising
    assert all("w/u W[v]" in label for label in newly_raising)


def test_compose_takes_each_derivative_once(ms_paper, monkeypatch):
    """W[p1]^7 pushed through p1*E: one finalize per derivative order, and
    the operator the un-memoized recursion gives."""
    ctx = ms_paper
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    A = DifferentialOperator(ctx, [(Expr.one(), (DerivativeGenerator(p1, "whole"),) * 7)])
    B = DifferentialOperator(
        ctx, [(Expr.symbol(p1) * Expr.symbol(E), (DerivativeGenerator(p2, "plain"),))]
    )
    want = print_operator(_reference_compose(A, B))
    calls = []

    def counted(e, ctx):
        calls.append(e)
        return finalize(e, ctx)

    monkeypatch.setattr(diffop, "finalize", counted)
    assert print_operator(compose(A, B)) == want
    assert len(calls) == 7


def test_op_equals_composes_nothing_when_the_difference_cancels(ms_commuting, monkeypatch):
    """[A, B] and -[B, A] cancel term by term in their difference, so
    op_equals takes no derivative and finalizes nothing; an unequal pair
    applies its difference."""
    ctx = ms_commuting
    A = parse_operator("W[p1] + (p1)*D[E]", ctx)
    B = parse_operator("(E)*W[p2]*W[p1] + (m/E)*D[p3]", ctx)
    AB, BA = commutator(A, B), commutator(B, A)
    calls = []
    for name in ("derive_raw", "finalize"):
        impl = getattr(diffop, name)
        monkeypatch.setattr(
            diffop, name, lambda *args, _name=name, _impl=impl: calls.append(_name) or _impl(*args)
        )
    assert op_equals(AB, -BA)
    assert calls == []
    assert not op_equals(AB, BA)
    assert "derive_raw" in calls and "finalize" in calls


def test_op_equals_raises_only_for_terms_that_survive(bench_workloads):
    """With dE/dp1 = p2/p1 in operator ordering, expanding X = D[p1]*W[p1]
    raises.  A term X on both sides cancels before expansion; a term X on
    one side still raises."""
    text = bench_workloads.NONCOMMUTING_CTX
    for old, new in (("dE/dp1 = p1/E", "dE/dp1 = p2/p1"), ("ordering paper", "ordering operator")):
        assert old in text
        text = text.replace(old, new)
    ctx = parse_context(text)
    X = parse_operator("D[p1]*W[p1]", ctx)
    D2, D3 = parse_operator("D[p2]", ctx), parse_operator("D[p3]", ctx)
    message = "negative power of a noncommuting factor"
    with pytest.raises(UnsupportedExpressionError, match=message):
        expand_to_plain(X)
    assert op_equals(X + D2, X + D2)
    assert not op_equals(X + D2, X + D3)
    with pytest.raises(UnsupportedExpressionError, match=message):
        op_equals(X, D2)


def _closed_pp_operator(w, ctx, mode, i, j):
    """bench/workloads.py's closed form of [W[p_i], W[p_j]] f as the
    operator whose plain partials of f it lists."""
    fn = ctx.opaques[0][0]
    closed = w.closed_pp(SimpleNamespace(wd=wholediff), ctx, mode, i, j)
    return DifferentialOperator(ctx, [
        (c, tuple(DerivativeGenerator(v, "plain") for v, n in orders for _ in range(n)))
        for orders, c in symexpr._partial_coefficients(closed, fn)
    ])


@pytest.mark.parametrize("mode", ["operator", "paper", "paper+feynman"])
def test_op_equals_agrees_with_apply_on_noncommuting_momenta(bench_workloads, mode):
    """op_equals means what apply means, in every noncommuting mode:
    p2*p1 is p1*p2 - [p1, p2] in front of D[E], and [W[p_i], W[p_j]] is the
    pinned closed form of its mode (kappa_ij/E^3 D[E], with
    -kappa_ij/E^2 D[E]D[E] in operator mode), not the other mode's."""
    w = bench_workloads
    ctx = w.mass_shell(SimpleNamespace(wd=wholediff), mode)
    kappa12 = "(i*B3)" if mode == "paper+feynman" else "kappa12"
    assert op_equals(parse_operator("(p2*p1)*D[E]", ctx),
                     parse_operator(f"(p1*p2 - {kappa12})*D[E]", ctx))
    assert not op_equals(parse_operator("(p2*p1)*D[E]", ctx),
                         parse_operator("(p1*p2)*D[E]", ctx))
    W = {k: DifferentialOperator.whole(ctx, ctx.find_symbol(f"p{k}")) for k in (1, 2, 3)}
    E = ctx.find_symbol("E")
    DEE = _operator(ctx, {}, (Expr.one(), "D[E]D[E]"))
    for i, j in itertools.permutations((1, 2, 3), 2):
        K = _closed_pp_operator(w, ctx, mode, i, j)
        assert op_equals(commutator(W[i], W[j]), K), (i, j)
        # The D[E]D[E] term, -E times the D[E] coefficient, is there in
        # operator mode only.
        second = DEE.scale(-K.terms[0][0] * Expr.symbol(E))
        other = K - second if mode == "operator" else K + second
        assert not op_equals(commutator(W[i], W[j]), other), (i, j)


# The at-end path that apply must match: every chain term carries its
# representation as a marker atom, and finalize expands all of them once.


def _reference_whole_partial_raw(e, v, ctx):
    e = Expr._coerce(e)
    terms = [e.diff_plain(v)]
    for u in ctx.dependents:
        du = e.diff_plain(u)
        if not du.is_zero():
            terms.append(du * Expr.atom(RepAtom(u, v, ctx.representation(u, v))))
    return Expr.sum(terms)


def _reference_apply(A, e):
    ctx = A.context
    terms = []
    for coeff, gens in A.terms:
        cur = Expr._coerce(e)
        for g in reversed(gens):
            if g.mode == "whole" and ctx.is_independent(g.variable):
                cur = _reference_whole_partial_raw(cur, g.variable, ctx)
            else:
                cur = cur.diff_plain(g.variable)
        terms.append(finalize(coeff * cur, ctx))
    return Expr.sum(terms)


def _marker_contexts(mode):
    """(label, context, (u, v)) in one ordering mode: the mass shell, the
    two-class context, and the mass shell with representations that have a
    sum denominator, that mix one with p/E, and that hold a square root."""
    out = [("mass shell", _kernel_context(mode), ("p1", "p2")),
           ("two classes", _two_class_context(mode), ("a", "d"))]
    reps = {
        "sum denominator": lambda E_, M_, ps: [p / (E_ + M_) for p in ps],
        "mixed": lambda E_, M_, ps: [ps[0] / E_, M_ * ps[1] / (E_ + M_), ps[2] / E_],
        "sqrt": lambda E_, M_, ps: [p * (M_ ** 2 + E_ ** 2).sqrt() for p in ps],
    }
    for label, build in reps.items():
        ctx = _kernel_context(mode)
        e_sym = ctx.find_symbol("E")
        ps = [Expr.symbol(p) for p in ctx.independents]
        E_, M_ = Expr.symbol(e_sym), Expr.symbol(ctx.find_symbol("m"))
        for p, rep in zip(ctx.independents, build(E_, M_, ps)):
            ctx.declare_representation(e_sym, p, rep)
        out.append((label, ctx, ("p1", "p2")))
    return out


def _marker_corpus(mode, apply_fn):
    """(label, result) of apply, or (label, error type, message), for words
    of W[u], W[v], D[E], D[u] of order up to 2, and of W[u], W[v] of order
    3, acting on eight expressions.  Where a representation is not p/E, it
    or its derivatives have sum denominators, and without a GCD those terms
    swell: there words stop at order 2, and only the first five expressions
    are taken, which keeps each mode to a few seconds."""
    out = []
    letters = ("W[u]", "W[v]", "D[E]", "D[u]")
    short = [w for k in (1, 2) for w in itertools.product(letters, repeat=k)]
    long = list(itertools.product(letters[:2], repeat=3))
    for name, ctx, (u, v) in _marker_contexts(mode):
        U, V = (Expr.symbol(ctx.find_symbol(n)) for n in (u, v))
        E_, M_ = Expr.symbol(ctx.find_symbol("E")), Expr.symbol(ctx.find_symbol("m"))
        fe = field_of(ctx)
        exprs = {
            "f": fe,
            "u f": U * fe,
            "v u E": V * U * E_,
            "v/u f": U ** -1 * V * fe,
            "sqrt(m^2+E^2) u": (M_ ** 2 + E_ ** 2).sqrt() * U,
            "f/E^2": E_ ** -2 * fe,
            "E f u": E_ * fe * U,
            "f/(E+m)": fe / (E_ + M_),
        }
        words = short + long
        if name not in ("mass shell", "two classes"):
            words, exprs = short, dict(list(exprs.items())[:5])
        for word in map("".join, words):
            A = _operator(ctx, {"u": u, "v": v}, (Expr.one(), word))
            for label, e in exprs.items():
                try:
                    out.append((f"{name}: {word} {label}", apply_fn(A, e)))
                except (ArithmeticError, WholediffError) as exc:
                    out.append((f"{name}: {word} {label}", type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("mode", ["commuting", "operator"])
def test_apply_without_markers_matches_the_at_end_path(mode):
    """Multiplying a chain term by its representation at once gives the
    same expression (key identity), or the same error, as carrying the
    marker to finalize."""
    got = _marker_corpus(mode, apply)
    want = _marker_corpus(mode, _reference_apply)
    assert len(got) == len(want) > 700
    for g, w in zip(got, want):
        assert g == w
