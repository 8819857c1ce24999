import itertools
import random
from fractions import Fraction

import pytest

from test_properties import _expr_pool, _rand_expr
from wholediff import (
    DifferentialOperator,
    MassShellScenario,
    build_mass_shell,
    parse_operator,
    print_expr,
    symexpr,
)
from wholediff.depctx import DependencyContext
from wholediff.diffop import apply, commutator, expand_to_plain
from wholediff.errors import (
    ContextError,
    NormalOrderError,
    SubstitutionCycleError,
    UnsupportedExpressionError,
    WholediffError,
)
from wholediff.scalars import ONE, QC
from wholediff.symexpr import (
    CommutatorTable,
    Expr,
    PartialAtom,
    PowAtom,
    RepAtom,
    Symbol,
    SymbolKind,
    _atom_power,
    _canonical_word,
    _distinct_permutations,
    _map_num,
    _mono_expr,
    equals_canonical,
    expand_rep_atoms,
    normal_order,
    substitute,
)
from wholediff.wholederiv import finalize, whole_partial_raw

x = Symbol("x")
y = Symbol("y")
m = Symbol("m", SymbolKind.PARAMETER)
E = Symbol("E", SymbolKind.DEPENDENT)
p1 = Symbol("p1", SymbolKind.INDEPENDENT)
f = Symbol("f", SymbolKind.OPAQUE)

X, Y, M, EE, P1 = (Expr.symbol(s) for s in (x, y, m, E, p1))

# noncommuting pair sharing class 1
a = Symbol("a", SymbolKind.INDEPENDENT, klass=1)
b = Symbol("b", SymbolKind.INDEPENDENT, klass=1)
k = Symbol("k", SymbolKind.COMMUTATOR)
A, B, K = Expr.symbol(a), Expr.symbol(b), Expr.symbol(k)


def test_basic_ring_identities():
    assert equals_canonical(X + X, 2 * X)
    assert equals_canonical(X * Y, Y * X)
    assert (X - X).is_zero()
    assert equals_canonical((X + Y) * (X - Y), X * X - Y * Y)
    assert equals_canonical(X * (Y + 1) - X * Y, X)


def test_rational_functions():
    e = P1 / EE ** 2 * (2 * EE)
    assert equals_canonical(e, 2 * P1 / EE)
    assert equals_canonical(Expr.one() / (EE + M), (EE - M) / (EE ** 2 - M ** 2))
    d = (P1 / EE).diff_plain(E)
    assert equals_canonical(d, -P1 / EE ** 2)


def test_fractional_powers():
    s = (M ** 2 + P1 ** 2) ** Fraction(1, 2)
    assert equals_canonical(s ** 2, M ** 2 + P1 ** 2)
    inv = s ** -1
    assert equals_canonical(inv ** 2, Expr.one() / (M ** 2 + P1 ** 2))
    d = s.diff_plain(p1)
    assert equals_canonical(d, P1 / s)
    # exact square roots of constants collapse
    assert equals_canonical(Expr.const(QC(Fraction(9, 4))) ** Fraction(1, 2),
                            Expr.const(QC(Fraction(3, 2))))
    # also when a power of a root reaches 1/2
    assert (Expr.const(4) ** Fraction(1, 4)) ** 2 == Expr.const(2)
    assert (Expr.const(4) ** Fraction(1, 3)) ** Fraction(3, 2) == Expr.const(2)


def test_opaque_and_partials():
    fe = Expr.opaque(f, (p1, E))
    fp = fe.diff_plain(p1)
    fE = fe.diff_plain(E)
    assert not fp.is_zero() and not fE.is_zero()
    # mixed plain partials commute (unordered multi-index)
    assert equals_canonical(fp.diff_plain(E), fE.diff_plain(p1))
    assert fe.diff_plain(y).is_zero()


def test_substitution():
    e = X ** 2 + Y
    out = substitute(e, {x: Y + 1})
    assert equals_canonical(out, (Y + 1) ** 2 + Y)


def test_substitution_cycle_detected():
    with pytest.raises(SubstitutionCycleError):
        substitute(X + Y, {x: Y, y: X})
    # the message reads in binding direction: x is bound to an expression in y
    z = Symbol("z")
    with pytest.raises(SubstitutionCycleError, match=r"^cyclic substitution: x -> y -> z -> x$"):
        substitute(X, {x: Y + 1, y: 2 * Expr.symbol(z), z: X * Y})
    with pytest.raises(SubstitutionCycleError, match=r"^cyclic substitution: x -> x$"):
        substitute(Y, {x: X + 1})


def test_noncommuting_order_preserved():
    assert not equals_canonical(A * B, B * A)
    assert equals_canonical(A * B + B * A, B * A + A * B)
    # class-0 material commutes through
    assert equals_canonical(A * M * B, M * A * B)


def test_normal_order_emits_commutator():
    tab = CommutatorTable()
    tab.declare(a, b, K)
    out = normal_order(B * A, tab)
    assert equals_canonical(out, A * B - K)
    # idempotent
    assert equals_canonical(normal_order(out, tab), out)


def test_normal_order_first_order_truncation():
    tab = CommutatorTable()
    tab.declare(a, b, K)
    # (ba)^2 = abab - 2ab k at first order in k
    out = normal_order(B * A * B * A, tab)
    expected = A * B * A * B - 2 * K * A * B
    # expected's A*B*A*B word is already normal-ordered? b<a keys: a<b, so
    # abab has inversion (b,a) in the middle; normal order the expected too.
    assert equals_canonical(out, normal_order(expected, tab))


@pytest.mark.xfail(strict=True, reason=(
    "_normal_order_mono skips every pair of a word that holds a commutator "
    "symbol, at any power (ROADMAP item 10)"))
def test_normal_order_of_a_word_with_an_inverse_commutator_symbol():
    """b a / k = a b / k - [a, b] / k = a b / k - 1: dividing by k leaves a
    term of order zero in the commutators, which the ordering must keep."""
    tab = CommutatorTable()
    tab.declare(a, b, K)
    assert equals_canonical(normal_order(B * A / K, tab), A * B / K - 1)


def test_normal_order_undeclared_pair_raises():
    tab = CommutatorTable()
    with pytest.raises(NormalOrderError):
        normal_order(B * A, tab)


def test_normal_order_refuses_a_noncommuting_power():
    """sqrt(m^2 + p1^2) has the classes of p1, so in operator mode it does
    not commute with p1, and ordering the pair needs a term that normal
    ordering cannot make: it raises instead of dropping that term."""

    def ordered(mode):
        ctx = build_mass_shell(MassShellScenario(dimension=2, ordering_mode=mode))
        q1, q2, mm = (Expr.symbol(ctx.find_symbol(n)) for n in ("p1", "p2", "m"))
        return normal_order(q2 * (mm ** 2 + q1 ** 2) ** Fraction(1, 2) * q1, ctx.commutators)

    with pytest.raises(NormalOrderError, match=r"\(sqrt\(m\^2 \+ p1\^2\), p1\)$"):
        ordered("operator")
    assert print_expr(ordered("commuting")) == "p1*p2*sqrt(m^2 + p1^2)"


def test_normal_order_error_names_the_non_symbol_factor():
    """[p1, p2] is declared: what stops the ordering is the power, so the
    error says so rather than naming a missing commutator."""
    ctx = build_mass_shell(MassShellScenario(dimension=2, ordering_mode="operator"))
    q1, q2, mm = (Expr.symbol(ctx.find_symbol(n)) for n in ("p1", "p2", "m"))
    with pytest.raises(NormalOrderError) as exc:
        normal_order(q2 * (mm ** 2 + q1 ** 2) ** Fraction(1, 2) * q1, ctx.commutators)
    assert str(exc.value) == ("cannot normal-order a non-symbol factor in the pair "
                              "(sqrt(m^2 + p1^2), p1)")
    assert exc.value.pair == ("sqrt(m^2 + p1^2)", "p1")


def test_nc_sum_denominator_rejected():
    with pytest.raises(UnsupportedExpressionError):
        Expr.one() / (A * B + Expr.one())


def test_commutator_table_antisymmetry():
    tab = CommutatorTable()
    tab.declare(a, b, K)
    assert equals_canonical(tab.lookup(b, a), -K)
    assert tab.lookup(a, Symbol("c")) is None


@pytest.mark.parametrize("klass", [2, 0], ids=["other class", "central"])
def test_normal_order_reaches_pairs_across_a_commuting_letter(klass):
    """In b c d a, c commutes with the rest, so b and a are never neighbours:
    normal ordering still sorts them and emits [b, a]."""
    lo, hi, mid = (Symbol(n, SymbolKind.INDEPENDENT, klass=1) for n in ("a", "b", "d"))
    c = Symbol("c", SymbolKind.INDEPENDENT, klass=klass)
    tab = CommutatorTable()
    ks = {}
    for u, v in ((hi, lo), (mid, lo), (mid, hi)):
        ks[u.name + v.name] = Expr.symbol(Symbol("k" + u.name + v.name, SymbolKind.COMMUTATOR))
        tab.declare(u, v, ks[u.name + v.name])
    La, Lb, Lc, Ld = (Expr.symbol(s) for s in (lo, hi, c, mid))
    out = normal_order(Lb * Lc * Ld * La, tab)
    assert out == La * Lb * Lc * Ld + ks["da"] * Lb * Lc + ks["ba"] * Lc * Ld


@pytest.mark.parametrize("value", [Expr.one(), M, K + 1, 1 / K], ids=["1", "m", "k + 1", "1/k"])
def test_commutator_value_without_first_order_term_is_rejected(value):
    """normal_order keeps first order in the commutators, exact only when
    every term of a value holds a commutator symbol at a positive power."""
    with pytest.raises(ContextError) as exc:
        CommutatorTable().declare(a, b, value)
    assert "[a, b]" in str(exc.value)


def test_commutator_values_of_first_order_are_accepted():
    B3 = Expr.symbol(Symbol("B3", SymbolKind.COMMUTATOR))
    for v in (K, Expr.imaginary_unit() * B3, K * P1, K / (M ** 2 + 1), Expr.zero()):
        tab = CommutatorTable()
        tab.declare(a, b, v)
        assert tab.lookup(a, b) == v


def test_markers_with_different_expansions_are_different():
    """Two markers for dE/dp1 that expand differently are not equal, do not
    cancel, and each expands to its own expansion."""
    r1 = Expr.atom(RepAtom(E, p1, P1 / EE))
    r2 = Expr.atom(RepAtom(E, p1, P1 / (EE ** 2 + M ** 2)))
    assert r1 != r2 and not (r1 - r2).is_zero()
    assert expand_rep_atoms(r1 * r2) == (P1 ** 2 / EE) / (EE ** 2 + M ** 2)
    assert substitute(r1, {m: Expr.const(2)}) == r1
    assert substitute(r1, {E: M}) != r1


def test_division_by_a_quotient_whose_product_has_a_sum_denominator():
    """s / (1/(s + 1)) with s = sqrt(x/(1+y)): s*(s + 1) has the sum
    denominator 1 + y, so the quotient is num * (1/den)."""
    s = (X / (1 + Y)).sqrt()
    assert s / (1 / (s + 1)) == X / (1 + Y) + s


def test_symbols_reach_into_square_roots_markers_and_opaque_atoms():
    e = (M ** 2 + Y ** 2).sqrt() * Expr.atom(RepAtom(E, p1, P1 / EE)) * Expr.opaque(f, (x,))
    assert e.symbols() == {m, y, p1, E, f, x}


def test_partial_atom_multi_index_merges():
    fa = PartialAtom(f, (p1, E), ((E, 1), (p1, 1), (E, 1)))
    fb = PartialAtom(f, (p1, E), ((p1, 1), (E, 2)))
    assert fa.key == fb.key
    assert fa.total_order == 3


def _only_letter(e):
    ((c, word),) = e._num
    ((letter, n),) = word
    assert c == ONE and n == 1 and e.den_is_one()
    return letter


def test_symbol_is_its_own_atom_and_an_application_is_its_order_zero_partial():
    """Expr.symbol puts the Symbol itself in the word.  Expr.opaque builds the
    partial atom with no orders, keyed as an application so that it sorts
    before every partial of the function."""
    assert _only_letter(Expr.symbol(p1)) is p1
    ctx = build_mass_shell(MassShellScenario(dimension=3))
    ((fn, args),) = ctx.opaques
    app = _only_letter(Expr.opaque(fn, args))
    assert isinstance(app, PartialAtom) and app.orders == ()
    assert app.key == (2, "f", ("p1", "p2", "p3", "E"))
    dE = _only_letter(Expr.opaque(fn, args).diff_plain(ctx.find_symbol("E")))
    assert dE.key == (3, "f", ("p1", "p2", "p3", "E"), (("E", 1),))


@pytest.mark.parametrize("exp", [Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
def test_pow_atom_rejects_an_exponent_outside_zero_one(exp):
    with pytest.raises(ValueError):
        PowAtom(X + Y, exp)


def test_constant_folding_and_imaginary():
    i = Expr.imaginary_unit()
    assert equals_canonical(i * i, Expr.const(-1))
    assert equals_canonical((i * X) * (i * X), -(X ** 2))


def test_pow_zero_and_identities():
    assert equals_canonical(X ** 0, Expr.one())
    assert equals_canonical((X ** 3) / X, X ** 2)
    assert equals_canonical(X ** -2 * X ** 2, Expr.one())


@pytest.mark.parametrize("mode", ["commuting", "operator"])
def test_sum_matches_sequential_fold(mode):
    pool = _expr_pool(build_mass_shell(MassShellScenario(ordering_mode=mode)))
    rng = random.Random(909)
    plain = 0
    for _ in range(150):
        terms = [_rand_expr(rng, pool) for _ in range(rng.randint(0, 5))]
        fold = Expr.zero()
        for t in terms:
            fold = fold + t
        total = Expr.sum(terms)
        assert equals_canonical(total, fold)
        if all(t.den_is_one() for t in terms):
            plain += 1
            assert print_expr(total) == print_expr(fold)
    assert plain >= 50
    assert Expr.sum([]).is_zero()
    single = next(t for t in pool if not t.den_is_one())  # M/(E^2+M^2)
    assert Expr.sum([single]) is single


def _reference_canonical_word(letters):
    """The plain quadratic greedy, kept as the oracle for _canonical_word on
    words in which no noncommuting letter cancels; None for the others,
    where one greedy pass is not a normal form."""

    def commutes(u, v):
        return u.key == v.key or u.nc_classes.isdisjoint(v.nc_classes)

    rem = [(a, e) for a, e in letters if e != 0]
    out = []
    while rem:
        best = None
        for i, (a, _e) in enumerate(rem):
            movable = all(commutes(rem[j][0], a) for j in range(i))
            if movable and (best is None or a.key < rem[best][0].key):
                best = i
        a, e = rem.pop(best)
        if out and out[-1][0].key == a.key:
            pa, pe = out[-1]
            if pe + e == 0:
                if a.nc_classes:
                    return None
                out.pop()
            else:
                out[-1] = (pa, pe + e)
        else:
            out.append((a, e))
    return tuple(out)


def test_canonical_word_matches_reference_greedy():
    c = Symbol("c", SymbolKind.INDEPENDENT, klass=2)
    central = [
        x,
        Symbol("x"),  # a second object with the same key
        m,
        k,
        PartialAtom(f, (x, y), ()),
        PowAtom(X + Y, Fraction(1, 2)),
    ]
    noncommuting = [
        a,
        Symbol("a", SymbolKind.INDEPENDENT, klass=1),
        b,
        c,
        RepAtom(E, a, A * B),
    ]
    rng = random.Random(606)
    mixed = 0
    for _ in range(3000):
        word = []
        for _ in range(rng.randint(0, 9)):
            if rng.random() < 0.5:
                word.append((rng.choice(central), rng.randint(-3, 3)))
            else:
                word.append((rng.choice(noncommuting), rng.choice((1, 1, 2, -1, 0))))
        want = _reference_canonical_word(word)
        if want is None:
            continue
        got = _canonical_word(word)
        assert len(got) == len(want)
        assert all(ga is wa and ge == we for (ga, ge), (wa, we) in zip(got, want))
        mixed += any(l.nc_classes for l, _ in word) and any(not l.nc_classes for l, _ in word)
    assert mixed > 1000


def _brute_force_canonical_word(letters):
    """The lexicographically least (key, exponent) sequence among the
    shortest words reached from letters by swapping adjacent commuting
    letters and merging adjacent letters with equal keys: a breadth-first
    search over every word the rewrites reach."""
    start = tuple((l.key, e, l.nc_classes) for l, e in letters if e)
    seen, frontier = {start}, [start]
    while frontier:
        reached = []
        for w in frontier:
            for i in range(len(w) - 1):
                (k1, e1, c1), (k2, e2, c2) = w[i], w[i + 1]
                if k1 == k2:
                    v = w[:i] + (((k1, e1 + e2, c1),) if e1 + e2 else ()) + w[i + 2 :]
                elif c1.isdisjoint(c2):
                    v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                else:
                    continue
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
        frontier = reached
    shortest = min(len(w) for w in seen)
    return min(tuple((k, e) for k, e, _c in w) for w in seen if len(w) == shortest)


def test_canonical_word_is_the_brute_force_normal_form():
    """_canonical_word agrees with the exhaustive search on random words of
    up to seven letters, and is idempotent.  Keys run b < d < m < x < z:
    z in class 1 is keyed above d in class 2, the central m between b and z
    in class 1, and a representation marker, keyed last, spans both
    classes."""
    sb, sz = (Symbol(n, SymbolKind.INDEPENDENT, klass=1) for n in ("b", "z"))
    sd = Symbol("d", SymbolKind.INDEPENDENT, klass=2)
    alphabet = [
        sb, sz, sd,
        m, x, RepAtom(E, sb, Expr.symbol(sb) * Expr.symbol(sd)),
    ]
    rng = random.Random(1111)
    cancelled = 0
    for _ in range(1500):
        word = [(rng.choice(alphabet), rng.choice((1, 1, -1, -1, 2)))
                for _ in range(rng.randint(0, 7))]
        got = _canonical_word(word)
        assert tuple((l.key, e) for l, e in got) == _brute_force_canonical_word(word), word
        assert _canonical_word(got) == got
        cancelled += _reference_canonical_word(word) is None
    assert cancelled > 150


class _Keyed:
    def __init__(self, key):
        self.key = key


def test_distinct_permutations_match_itertools():
    """The same distinct orderings, in the order itertools.permutations
    yields each first, for every multiset of up to five letters over three
    keys."""
    for n in range(6):
        for keys in itertools.product("abc", repeat=n):
            items = [_Keyed(k) for k in keys]
            got = [tuple(i.key for i in p) for p in _distinct_permutations(items)]
            want = list(
                dict.fromkeys(tuple(i.key for i in p) for p in itertools.permutations(items))
            )
            assert got == want, keys


def _equal_pairs():
    root1 = (X + Y) ** Fraction(1, 2)
    root2 = ((Y * X + X * X) / X).sqrt()
    return [
        ((X + Y) ** 2, X * X + 2 * X * Y + Y * Y),
        (X / (Y + 1), (X * X) / (X * Y + X)),
        (root1, root2),
        (P1 * root1 * M, M * (root2 * P1)),
        (EE ** Fraction(3, 2), EE * EE.sqrt()),
        (Expr.sum([X, Y, -X]), Y),
    ]


def test_equal_expressions_hash_alike():
    """== and hash agree on equal canonical forms reached along different
    routes, power-atom bases included, whichever side's key is made first."""
    for u, v in _equal_pairs():
        assert hash(u) == hash(v) and u == v
        assert len({u, v}) == 1
    for u, v in _equal_pairs():
        assert v == u and hash(v) == hash(u)
    assert X / (Y + 1) != X / (X + Y)  # equal numerators
    assert hash(X / (Y + 1)) != hash(X / (X + Y))
    assert (X + Y) ** Fraction(1, 2) != (X + 2 * Y) ** Fraction(1, 2)


def test_cancelled_sum_denominator_equals_canonical():
    e = (X + Y / (X + 1)) - Y / (X + 1)
    assert equals_canonical(e, X)


@pytest.mark.xfail(strict=True, reason="no multivariate GCD")
def test_cancelled_sum_denominator_is_structurally_x():
    assert (X + Y / (X + 1)) - Y / (X + 1) == X


# -- the staged products of the previous kernel, the reference for _product --


def _staged_mul_polys(p, q):
    """The former _mul_poly_expr and single-monomial-denominator branch of
    Expr._from_fraction: one _mono_expr per pair of monomials."""
    return Expr.sum(_mono_expr(c1 * c2, f1 + f2) for c1, f1 in p for c2, f2 in q)


def _staged_poly_diff(p, v):
    terms = []
    for c, f in p:
        for i, (a, e) in enumerate(f):
            da = a.diff(v)
            if da.is_zero():
                continue
            prefix = _mono_expr(c, f[:i])
            mid = Expr.const(QC(Fraction(e)))
            if e != 1:
                mid = mid * _atom_power(a, e - 1)
            suffix = _mono_expr(ONE, f[i + 1 :])
            terms.append(prefix * mid * da * suffix)
    return Expr.sum(terms)


def _first_inversion(word):
    for i in range(len(word) - 1):
        a, _ = word[i]
        b, _ = word[i + 1]
        if b.key < a.key and not a.nc_classes.isdisjoint(b.nc_classes):
            return i
    return None


def _staged_normal_order_mono(coeff, factors, comms, budget=None):
    """The rewrite loop that normal_order replaced: swap the first adjacent
    inversion, emitting its commutator term, until none is left; budget, the
    commutator degree of the word, stops the terms past first order.  It
    misses a pair split by a commuting letter, which the kernel corpus never
    builds (test_normal_order_reaches_pairs_across_a_commuting_letter)."""
    if budget is None:
        budget = sum(abs(e) for a, e in factors if isinstance(a, Symbol)
                     and a.kind == SymbolKind.COMMUTATOR)
    word = []
    for a, e in factors:
        if a.nc_classes:
            if e < 0:
                raise UnsupportedExpressionError("negative power of a noncommuting factor")
            word.extend([(a, 1)] * e)
        else:
            word.append((a, e))
    terms = []
    stack = [(coeff, tuple(word), budget)]
    while stack:
        c, w, b = stack.pop()
        idx = _first_inversion(w)
        if idx is None:
            terms.append(_mono_expr(c, w))
            continue
        a1, _ = w[idx]
        a2, _ = w[idx + 1]
        swapped = w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2 :]
        stack.append((c, swapped, b))
        if b + 1 > 1:
            continue
        if not (isinstance(a1, Symbol) and isinstance(a2, Symbol)):
            raise NormalOrderError(a1, a2)
        comm = comms.lookup(a1, a2)
        if comm is None:
            raise NormalOrderError(a1.name, a2.name)
        prefix = _mono_expr(ONE, w[:idx])
        suffix = _mono_expr(ONE, w[idx + 2 :])
        branch = Expr.const(c) * prefix * comm * suffix
        terms.append(
            _map_num(branch, lambda c2, f2: _staged_normal_order_mono(c2, f2, comms, b + 1))
        )
    return Expr.sum(terms)


def _staged_expand_mono(coeff, factors, mode):
    slots = []
    units = []
    for a, e in factors:
        if isinstance(a, RepAtom):
            if e < 0:
                raise UnsupportedExpressionError("negative power of representation factor")
            for _ in range(e):
                slots.append(len(units))
                units.append((a, 1))
        else:
            units.append((a, e))
    if not slots:
        return _mono_expr(coeff, factors)

    def assemble(assignment):
        term = Expr.const(coeff)
        for i, (a, e) in enumerate(units):
            if i in assignment:
                term = term * assignment[i].expansion
            else:
                term = term * _atom_power(a, e)
        return term

    reps = [units[i][0] for i in slots]
    if mode == "paper" and len(reps) > 1:
        perms = list(_distinct_permutations(reps))
        return Expr.sum(assemble(dict(zip(slots, p))) for p in perms) / len(perms)
    return assemble(dict(zip(slots, reps)))


_STAGED_KERNEL = {
    "_mul_polys": _staged_mul_polys,
    "_poly_diff": _staged_poly_diff,
    "_normal_order_mono": _staged_normal_order_mono,
    "_expand_mono": _staged_expand_mono,
}

_KERNEL_MODES = {
    "commuting": ("commuting", False),
    "operator": ("operator", False),
    "paper": ("paper", False),
    "paper+feynman": ("paper", True),
}


def _kernel_context(mode):
    ordering, feynman = _KERNEL_MODES[mode]
    return build_mass_shell(MassShellScenario(ordering_mode=ordering, feynman=feynman))


def _kernel_pool(ctx):
    """The property pool plus square roots of sum and monomial bases, sum
    denominators, negative exponents and representation markers, one of
    them with an expansion other than the context's."""
    ps = [ctx.find_symbol(n) for n in ("p1", "p2", "p3")]
    e_sym = ctx.find_symbol("E")
    P1_, P2_, P3_ = (Expr.symbol(s) for s in ps)
    E_, M_ = Expr.symbol(e_sym), Expr.symbol(ctx.find_symbol("m"))
    fe = Expr.opaque(*ctx.opaques[0])
    sum_den = E_ ** 2 + M_ ** 2
    return _expr_pool(ctx) + [
        (M_ / sum_den).sqrt(),
        (M_ * E_).sqrt() * P2_,
        E_ ** -2 * P1_ * P2_,
        P2_ * P1_ ** -1 * M_ ** -3,
        P1_ * Expr.atom(RepAtom(e_sym, ps[1], ctx.representation(e_sym, ps[1]))),
        Expr.atom(RepAtom(e_sym, ps[0], P1_ / sum_den)) * P2_,
        P3_ / sum_den * fe,
    ]


def _kernel_corpus(mode, cases=40, seed=707):
    """(label, key, printed text) of seeded kernel results in one ordering
    mode, or (label, error type, message): random products and sums of
    property-pool expressions with square roots of sum and monomial bases,
    sum denominators, negative exponents and representation markers; their
    plain and raw whole partials, expanded and normal-ordered; operator
    words applied to the field; commutators and their plain expansions.
    Contexts are built inside, so whichever kernel is installed makes every
    value."""
    ordering = _KERNEL_MODES[mode][0]
    ctx = _kernel_context(mode)
    ps = [ctx.find_symbol(n) for n in ("p1", "p2", "p3")]
    E_, M_ = Expr.symbol(ctx.find_symbol("E")), Expr.symbol(ctx.find_symbol("m"))
    P2_ = Expr.symbol(ps[1])
    fe = Expr.opaque(*ctx.opaques[0])
    sum_den = E_ ** 2 + M_ ** 2
    pool = _kernel_pool(ctx)
    sum_comms = CommutatorTable()
    for s, t in itertools.combinations(ps, 2):
        sum_comms.declare(t, s, Expr.symbol(k) / (M_ ** 2 + 1))
    rng = random.Random(f"{seed}/{mode}")
    out = []

    def record(label, thunk):
        try:
            e = thunk()
        except (ArithmeticError, WholediffError) as exc:
            out.append((label, type(exc).__name__, str(exc)))
            return None
        out.append((label, e.key, print_expr(e)))
        return e

    for n in range(cases):
        e = record(f"{n} expr", lambda: _rand_expr(rng, pool))
        if e is None:
            continue
        v, u = rng.sample(ps, 2)
        record(f"{n} plain", lambda: e.diff_plain(v))
        record(f"{n} quotient", lambda: e / rng.choice(pool))
        raw = record(f"{n} raw", lambda: whole_partial_raw(whole_partial_raw(e, v, ctx), u, ctx))
        if raw is None or len(raw._num) > 60:
            continue  # bounds the time: sums over sum denominators swell
        record(f"{n} expand", lambda: expand_rep_atoms(raw, ctx.ordering_mode))
        record(f"{n} finalize", lambda: finalize(raw, ctx))
        if ctx.commutators:
            record(f"{n} sum commutators", lambda: normal_order(
                expand_rep_atoms(raw, ctx.ordering_mode), sum_comms))
    for word in ("W[p1]W[p2]W[p1]", "W[p2]W[p1]W[p3]W[p1]", "D[E]W[p2]W[p1]"):
        record(word, lambda: apply(parse_operator(word, ctx), fe))
    W = [DifferentialOperator.whole(ctx, s) for s in ps]
    for i, j in ((0, 1), (2, 0)):
        A = W[i].scale(P2_ * E_) + W[j]
        C = commutator(A, W[j].scale(M_ / sum_den))
        record(f"[A, W{j}] f", lambda: apply(C, fe))
        for c, g in expand_to_plain(C).terms:
            record(f"[A, W{j}] plain {[x.label() for x in g]}", lambda: c)
    _two_class_corpus(ordering, record)
    return out


def _two_class_context(ordering):
    """Context whose independents p, a share class 1 and d, between them in
    key order, is in class 2, with dE/ds = s/E declared for each."""
    pa, pp = (Symbol(n, SymbolKind.INDEPENDENT, klass=1) for n in ("a", "p"))
    pd = Symbol("d", SymbolKind.INDEPENDENT, klass=2)
    ind = (pp, pa, pd)
    g = M ** 2 - EE ** 2
    for s in ind:
        g = g + Expr.symbol(s) ** 2
    ctx = DependencyContext(
        independents=ind, parameters=(m,), dependents=(E,), constraints=((g, E),),
        opaques=((f, ind + (E,)),), ordering_mode=ordering,
    )
    for s in ind:
        ctx.declare_representation(E, s, Expr.symbol(s) / EE)
    return ctx


def _two_class_corpus(ordering, record):
    """W-words of expressions with noncommuting letters at negative powers,
    in the two-class context: d p p^-1 a folds to d a, whose canonical form
    is a d."""
    ctx = _two_class_context(ordering)
    ind = ctx.independents
    pp, pa, pd = ind
    P_, A_, D_ = (Expr.symbol(s) for s in ind)
    fe = Expr.opaque(f, ind + (E,))
    exprs = {
        "d/p f": D_ * P_ ** -1 * fe,
        "d a/p": D_ * A_ * P_ ** -1,
        "1/p d/p f": P_ ** -1 * D_ * P_ ** -2 * fe,
        "a/d p f": A_ * D_ ** -1 * P_ * fe,
    }
    for label, e in exprs.items():
        for word in ("W[p]W[a]", "W[a]W[p]", "W[p]W[p]", "W[d]W[p]W[a]"):
            record(f"{label} {word}", lambda: apply(parse_operator(word, ctx), e))
        for v, u in ((pp, pa), (pa, pd)):
            raw = record(f"{label} raw {v.name}{u.name}",
                         lambda: whole_partial_raw(whole_partial_raw(e, v, ctx), u, ctx))
            if raw is not None:
                record(f"{label} expand {v.name}{u.name}", lambda: expand_rep_atoms(raw, ordering))


@pytest.mark.parametrize("mode", sorted(_KERNEL_MODES))
def test_fused_product_matches_staged_kernel(mode, monkeypatch):
    """The fused monomial product gives the same keys and printed text as
    the staged products it replaced, in every ordering mode."""
    fused = _kernel_corpus(mode)
    for name, fn in _STAGED_KERNEL.items():
        monkeypatch.setattr(symexpr, name, fn)
    staged = _kernel_corpus(mode)
    assert len(fused) == len(staged) > 150
    for got, want in zip(fused, staged):
        assert got == want


def _mul_without_unit_rule(a, b):
    """Expr.__mul__ without the product-by-one rule: every word of both
    factors goes through the fused product."""
    if a.den_is_one() and b.den_is_one():
        return symexpr._mul_polys(a._num, b._num)
    return symexpr._mul_polys(a._num, b._num) / symexpr._mul_polys(a._den, b._den)


@pytest.mark.parametrize("mode", sorted(_KERNEL_MODES))
def test_product_by_one_is_the_other_factor(mode):
    """x * 1 and 1 * x return x itself, and x is the full product: sum
    denominators, square roots, noncommuting words and negative powers,
    alone and in random sums and products."""
    ctx = _kernel_context(mode)
    pool = _kernel_pool(ctx)
    rng = random.Random(f"unit/{mode}")
    exprs = list(pool)
    while len(exprs) < 100:
        try:
            exprs.append(_rand_expr(rng, pool))
        except UnsupportedExpressionError:
            pass
    one = Expr.one()
    for x in exprs:
        assert x * one is x and one * x is x
        assert x.key == _mul_without_unit_rule(x, one).key == _mul_without_unit_rule(one, x).key
    assert sum(not x.den_is_one() for x in exprs) > 10
    if ctx.commutators:
        assert sum(bool(x.nc_classes()) for x in exprs) > 10


def test_product_by_one_of_a_cancelled_word_is_the_word():
    """With b < d < z in key order, z and b in class 1, d in class 2,
    (d z)(z^-1 b) is already the canonical word b d, so a product by one
    returns it and the full product agrees."""
    sb, sz = (Expr.symbol(Symbol(n, SymbolKind.INDEPENDENT, klass=1)) for n in ("b", "z"))
    sd = Expr.symbol(Symbol("d", SymbolKind.INDEPENDENT, klass=2))
    x = (sd * sz) * (sz ** -1 * sb)
    assert x.key == (sd * sb).key == _mul_without_unit_rule(x, Expr.one()).key
    assert x * Expr.one() is x and Expr.one() * x is x


def test_cancelling_inverse_in_one_class_gives_the_canonical_product():
    """With z and b in class 1 and m central, keyed b < m < z, the word
    m z z^-1 b folds to m b, whose canonical form is b m."""
    sb, sz = (Expr.symbol(Symbol(n, SymbolKind.INDEPENDENT, klass=1)) for n in ("b", "z"))
    x = (M * sz) * (sz ** -1 * sb)
    assert x == M * sb and print_expr(x) == print_expr(M * sb) == "b*m"
    assert equals_canonical(x, M * sb)


def test_canonical_word_of_a_concatenation_is_staged_canonical():
    """Canonicalizing u + v + w at once equals canonicalizing u + v first,
    inverse letters included: the normal form depends on the trace only."""
    c = Symbol("c", SymbolKind.INDEPENDENT, klass=2)
    central = [
        x, Symbol("x"), m, k,
        PartialAtom(f, (x, y), ()), PowAtom(X + Y, Fraction(1, 2)),
    ]
    noncommuting = [a, Symbol("a", SymbolKind.INDEPENDENT, klass=1), b, c, RepAtom(E, a, A * B)]
    rng = random.Random(808)

    def letter():
        if rng.random() < 0.5:
            return rng.choice(central), rng.randint(-3, 3)
        return rng.choice(noncommuting), rng.choice((1, 2, 3, -1, -2))

    cancelled = 0
    for _ in range(3000):
        u, v, w = (tuple(letter() for _ in range(rng.randint(0, 5))) for _ in range(3))
        once = _canonical_word(u + v + w)
        staged = _canonical_word(_canonical_word(u + v) + w)
        assert len(once) == len(staged)
        assert all(a1 is a2 and e1 == e2 for (a1, e1), (a2, e2) in zip(once, staged))
        cancelled += len(once) < len({l.key for l, e in u + v + w if e})
    assert cancelled > 100


def test_canonical_word_of_a_cancelling_concatenation_is_staged_canonical():
    """With b < d < z in key order, z and b in class 1, d in class 2:
    d z z^-1 b folds to d b, which canonicalizes to b d."""
    sb, sz = (Symbol(n, SymbolKind.INDEPENDENT, klass=1) for n in ("b", "z"))
    sd = Symbol("d", SymbolKind.INDEPENDENT, klass=2)
    u, v, w = ((sd, 1), (sz, 1)), ((sz, -1),), ((sb, 1),)
    assert _canonical_word(u + v + w) == _canonical_word(_canonical_word(u + v) + w) == ((sb, 1), (sd, 1))
