"""Randomized algebraic property suite (seeded, exact symbolic checks)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_of
from wholediff import (
    DifferentialOperator,
    Expr,
    MassShellScenario,
    build_mass_shell,
    commutator,
    equals_canonical,
    op_equals,
)
from wholediff.diffop import DerivativeGenerator, apply
from wholediff.scalars import QC
from wholediff.symexpr import Symbol, SymbolKind
from wholediff.wholederiv import mixed_difference, plain_partial, whole_partial

N_CASES = 200


def _symbols(ctx):
    ps = [ctx.find_symbol(n) for n in ("p1", "p2", "p3")]
    return ps, ctx.find_symbol("m"), ctx.find_symbol("E")


def _expr_pool(ctx):
    ps, m, E = _symbols(ctx)
    P1, P2, P3 = (Expr.symbol(s) for s in ps)
    M, EE = Expr.symbol(m), Expr.symbol(E)
    fe = field_of(ctx)
    return [
        Expr.one(),
        Expr.const(Fraction(-3, 2)),
        P1,
        P2,
        P3,
        M,
        EE,
        fe,
        P1 * EE,
        EE ** 2 - M ** 2,
        P2 / EE,
        M / (EE ** 2 + M ** 2),
        fe * P3,
        (M ** 2 + P1 ** 2) ** Fraction(1, 2),
    ]


def _rand_expr(rng, pool, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(pool)
    a = _rand_expr(rng, pool, depth - 1)
    b = _rand_expr(rng, pool, depth - 1)
    op = rng.choice("+-**")  # '*' twice: bias toward products
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def check_whole_partial_linearity(ctx):
    pool = _expr_pool(ctx)
    ps, _, _ = _symbols(ctx)
    rng = random.Random(101)
    for _ in range(N_CASES):
        v = rng.choice(ps)
        e1 = _rand_expr(rng, pool)
        e2 = _rand_expr(rng, pool)
        a = Expr.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        b = Expr.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        lhs = whole_partial(a * e1 + b * e2, v, ctx)
        rhs = a * whole_partial(e1, v, ctx) + b * whole_partial(e2, v, ctx)
        assert equals_canonical(lhs, rhs)


def check_whole_partial_leibniz_commuting(ctx):
    pool = _expr_pool(ctx)
    ps, _, _ = _symbols(ctx)
    rng = random.Random(202)
    for _ in range(N_CASES):
        v = rng.choice(ps)
        e1 = _rand_expr(rng, pool)
        e2 = _rand_expr(rng, pool)
        lhs = whole_partial(e1 * e2, v, ctx)
        rhs = whole_partial(e1, v, ctx) * e2 + e1 * whole_partial(e2, v, ctx)
        assert equals_canonical(lhs, rhs)


def check_plain_mixed_partials_commute(ctx):
    pool = _expr_pool(ctx)
    ps, m, E = _symbols(ctx)
    allv = ps + [m, E]
    rng = random.Random(303)
    for _ in range(N_CASES):
        v, w = rng.sample(allv, 2)
        e = _rand_expr(rng, pool)
        assert equals_canonical(
            plain_partial(plain_partial(e, v), w),
            plain_partial(plain_partial(e, w), v),
        )


def _rand_op(rng, ctx, pool, genvars):
    terms = []
    for _ in range(rng.randint(1, 2)):
        coeff = rng.choice(pool)
        gens = []
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(genvars)
            mode = "plain" if ctx.is_dependent(v) else rng.choice(("plain", "whole"))
            gens.append(DerivativeGenerator(v, mode))
        terms.append((coeff, tuple(gens)))
    return DifferentialOperator(ctx, terms)


def _op_pool_inputs(ctx):
    ps, m, E = _symbols(ctx)
    P1, P2, M, EE = (Expr.symbol(s) for s in (ps[0], ps[1], m, E))
    coeffs = [Expr.one(), Expr.const(2), P1, M, EE, P1 / EE, M * EE, P2 + M]
    return coeffs, ps + [E]


def check_commutator_antisymmetry(ctx):
    coeffs, genvars = _op_pool_inputs(ctx)
    rng = random.Random(404)
    zero = DifferentialOperator.zero(ctx)
    for _ in range(N_CASES):
        A = _rand_op(rng, ctx, coeffs, genvars)
        B = _rand_op(rng, ctx, coeffs, genvars)
        assert op_equals(commutator(A, B), -commutator(B, A))
        assert op_equals(commutator(A, A), zero)


def check_commutator_bilinearity(ctx):
    coeffs, genvars = _op_pool_inputs(ctx)
    rng = random.Random(505)
    for _ in range(N_CASES):
        A = _rand_op(rng, ctx, coeffs, genvars)
        B = _rand_op(rng, ctx, coeffs, genvars)
        C = _rand_op(rng, ctx, coeffs, genvars)
        assert op_equals(
            commutator(A + B, C), commutator(A, C) + commutator(B, C)
        )
        assert op_equals(
            commutator(A, B + C), commutator(A, B) + commutator(A, C)
        )


def check_commutator_jacobi(ctx):
    coeffs, genvars = _op_pool_inputs(ctx)
    rng = random.Random(606)
    zero = DifferentialOperator.zero(ctx)
    for _ in range(N_CASES):
        A = _rand_op(rng, ctx, coeffs, genvars)
        B = _rand_op(rng, ctx, coeffs, genvars)
        C = _rand_op(rng, ctx, coeffs, genvars)
        J = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        assert op_equals(J, zero)


def check_mixed_whole_derivatives_commuting_mode(ctx):
    pool = _expr_pool(ctx)
    ps, _, _ = _symbols(ctx)
    rng = random.Random(707)
    for _ in range(N_CASES):
        v, w = rng.sample(ps, 2)
        e = _rand_expr(rng, pool)
        assert mixed_difference(e, v, w, ctx).is_zero()


def test_mixed_difference_agrees_with_operator_commutator():
    rng = random.Random(808)
    for mode in ("paper", "operator"):
        ctx = build_mass_shell(MassShellScenario(ordering_mode=mode))
        ps, m, E = _symbols(ctx)
        fe = field_of(ctx)
        M, EE = Expr.symbol(m), Expr.symbol(E)
        pool = [fe, EE, M * fe, EE ** 2, fe * M, M + EE]
        for _ in range(N_CASES // 2):
            v, w = rng.sample(ps, 2)
            e = rng.choice(pool)
            lhs = mixed_difference(e, v, w, ctx)
            C = commutator(
                DifferentialOperator.whole(ctx, v),
                DifferentialOperator.whole(ctx, w),
            )
            assert equals_canonical(lhs, apply(C, e))


def check_mixed_difference_noncommutative_closed_forms():
    for mode in ("paper", "operator"):
        ctx = build_mass_shell(MassShellScenario(ordering_mode=mode))
        ps, m, E = _symbols(ctx)
        fe = field_of(ctx)
        EE = Expr.symbol(E)
        fE = fe.diff_plain(E)
        fEE = fE.diff_plain(E)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                kij = ctx.commutators.lookup(ps[i], ps[j])
                got = mixed_difference(fe, ps[i], ps[j], ctx)
                want = kij / EE ** 3 * fE
                if mode == "operator":
                    want = want - kij / EE ** 2 * fEE
                assert equals_canonical(got, want)


# The seeded properties that criterion 9 of test_acceptance also asserts.
# conftest's `property_outcomes` runs each at most once per session, on the
# commuting mass shell, and the tests below and criterion 9 share the result.
PROPERTIES = {
    "whole_partial_linearity": check_whole_partial_linearity,
    "whole_partial_leibniz_commuting": check_whole_partial_leibniz_commuting,
    "plain_mixed_partials_commute": check_plain_mixed_partials_commute,
    "commutator_antisymmetry": check_commutator_antisymmetry,
    "commutator_bilinearity": check_commutator_bilinearity,
    "commutator_jacobi": check_commutator_jacobi,
    "mixed_whole_derivatives_commuting_mode": check_mixed_whole_derivatives_commuting_mode,
    "mixed_difference_noncommutative_closed_forms": (
        lambda ctx: check_mixed_difference_noncommutative_closed_forms()
    ),
}


def test_whole_partial_linearity(property_outcomes):
    property_outcomes.check("whole_partial_linearity")


def test_whole_partial_leibniz_commuting(property_outcomes):
    property_outcomes.check("whole_partial_leibniz_commuting")


def test_plain_mixed_partials_commute(property_outcomes):
    property_outcomes.check("plain_mixed_partials_commute")


def test_commutator_antisymmetry(property_outcomes):
    property_outcomes.check("commutator_antisymmetry")


def test_commutator_bilinearity(property_outcomes):
    property_outcomes.check("commutator_bilinearity")


def test_commutator_jacobi(property_outcomes):
    property_outcomes.check("commutator_jacobi")


def test_mixed_whole_derivatives_commuting_mode(property_outcomes):
    property_outcomes.check("mixed_whole_derivatives_commuting_mode")


def test_mixed_difference_noncommutative_closed_forms(property_outcomes):
    property_outcomes.check("mixed_difference_noncommutative_closed_forms")


# -- hypothesis-driven kernel invariants ------------------------------------

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


@settings(max_examples=100, deadline=None)
@given(a=rationals, b=rationals, c=rationals)
def test_scalar_field_axioms(a, b, c):
    A, B, C = QC(a), QC(b), QC(c)
    assert A * (B + C) == A * B + A * C
    assert (A + B) + C == A + (B + C)
    if B != QC(0):
        assert (A / B) * B == A


@settings(max_examples=100, deadline=None)
@given(a=rationals, b=rationals)
def test_constant_expressions_round_trip(a, b):
    from wholediff import parse_expr, print_expr

    e = Expr.const(QC(a, b))
    assert equals_canonical(parse_expr(print_expr(e), []), e)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(rationals, min_size=1, max_size=4),
    exps=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
)
def test_polynomial_derivative_linearity(coeffs, exps):
    x = Symbol("x")
    X = Expr.symbol(x)
    e = Expr.zero()
    for c, n in zip(coeffs, exps):
        e = e + Expr.const(QC(c)) * X ** n
    d = e.diff_plain(x)
    want = Expr.zero()
    for c, n in zip(coeffs, exps):
        if n:
            want = want + Expr.const(QC(c * n)) * X ** (n - 1)
    assert equals_canonical(d, want)
