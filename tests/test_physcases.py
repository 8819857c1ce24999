from fractions import Fraction

import pytest

from conftest import field_of
from wholediff.diffop import DifferentialOperator, apply, op_equals
from wholediff.errors import ContextError, DegenerateConstraintError
from wholediff.physcases import (
    RETARDED_T,
    RETARDED_TP,
    RETARDED_X,
    MassShellScenario,
    RetardedScenario,
    build_mass_shell,
    build_retarded,
    momentum_energy_commutator,
    momentum_momentum_commutator,
    position_commutator_table,
)
from wholediff.symexpr import Expr, Symbol, SymbolKind, equals_canonical
from wholediff.textio import (
    parse_context,
    parse_expr,
    parse_expr_in_context,
    serialize_context,
)


def syms(ctx, *names):
    return tuple(ctx.find_symbol(n) for n in names)


def test_scenario_invariants():
    with pytest.raises(ContextError):
        MassShellScenario(dimension=0)
    with pytest.raises(ContextError):
        MassShellScenario(sign=2)
    with pytest.raises(ContextError, match="unknown ordering mode 'bogus'"):
        MassShellScenario(ordering_mode="bogus")
    with pytest.raises(ContextError):
        build_mass_shell(MassShellScenario(dimension=2, feynman=True))


def test_context_validates_cleanly():
    for mode in ("commuting", "operator", "paper"):
        ctx = build_mass_shell(MassShellScenario(ordering_mode=mode))
        assert all(d.level != "error" for d in ctx.validate())


def test_momentum_energy_commutator_closed_form(ms_paper):
    ctx = ms_paper
    p1, E = syms(ctx, "p1", "E")
    fe = field_of(ctx)
    for i in (1, 2, 3):
        pi = ctx.find_symbol(f"p{i}")
        got = momentum_energy_commutator(ctx, i)
        want = (Expr.symbol(pi) / Expr.symbol(E) ** 2) * fe.diff_plain(E)
        assert equals_canonical(got, want)


def test_momentum_energy_commutator_sheet_covariant():
    a = build_mass_shell(MassShellScenario(sign=+1, ordering_mode="commuting"))
    b = build_mass_shell(MassShellScenario(sign=-1, ordering_mode="commuting"))
    assert equals_canonical(
        momentum_energy_commutator(a, 1), momentum_energy_commutator(b, 1)
    )


def test_mass_shell_context_is_the_same_on_both_sheets():
    """The sign does not enter the context: the sheet is chosen by the
    sampler (verify --sign), not by the file."""
    for mode in ("commuting", "operator", "paper"):
        a, b = (
            serialize_context(build_mass_shell(MassShellScenario(sign=s, ordering_mode=mode)))
            for s in (+1, -1)
        )
        assert a == b


def _scenario_contexts():
    for d in (1, 2, 3):
        for mode in ("commuting", "operator", "paper"):
            yield f"mass-shell d{d} {mode}", build_mass_shell(
                MassShellScenario(dimension=d, ordering_mode=mode))
    for mode in ("operator", "paper"):
        yield f"mass-shell feynman {mode}", build_mass_shell(
            MassShellScenario(dimension=3, ordering_mode=mode, feynman=True))
    for text in ("tp/2", "tp^3/10"):
        traj = parse_expr(text, [RETARDED_TP], lenient=True)
        yield f"retarded {text}", build_retarded(RetardedScenario(trajectory=traj))


@pytest.mark.parametrize("name, ctx", list(_scenario_contexts()),
                         ids=[n for n, _ in _scenario_contexts()])
def test_scenario_is_the_context_its_file_parses_to(name, ctx):
    """A scenario decides which momenta commute by the rule of the parser:
    its file parses back to the same symbols, classes and ordering."""
    text = serialize_context(ctx)
    back = parse_context(text)

    def table(c):
        return [(s.name, s.kind, s.klass) for s in c.all_symbols()]

    assert table(back) == table(ctx)
    assert back.ordering_mode == ctx.ordering_mode
    assert serialize_context(back) == text


# all_symbols() of each mass shell as name:<kind initial><klass>.  The
# momenta are noncommuting (klass 1) exactly where commutators are declared.
_MASS_SHELL_SYMBOLS = {
    (1, "commuting", False): "p1:i0 m:p0 E:d0 f:o0",
    (1, "operator", False): "p1:i0 m:p0 E:d0 f:o0",
    (1, "paper", False): "p1:i0 m:p0 E:d0 f:o0",
    (2, "commuting", False): "p1:i0 p2:i0 m:p0 E:d0 f:o0",
    (2, "operator", False): "p1:i1 p2:i1 m:p0 E:d0 f:o0 kappa12:c0",
    (2, "paper", False): "p1:i1 p2:i1 m:p0 E:d0 f:o0 kappa12:c0",
    (3, "commuting", False): "p1:i0 p2:i0 p3:i0 m:p0 E:d0 f:o0",
    (3, "operator", False): "p1:i1 p2:i1 p3:i1 m:p0 E:d0 f:o0 kappa12:c0 kappa13:c0 kappa23:c0",
    (3, "paper", False): "p1:i1 p2:i1 p3:i1 m:p0 E:d0 f:o0 kappa12:c0 kappa13:c0 kappa23:c0",
    (3, "operator", True): "p1:i1 p2:i1 p3:i1 m:p0 E:d0 f:o0 B3:c0 B1:c0 B2:c0",
    (3, "paper", True): "p1:i1 p2:i1 p3:i1 m:p0 E:d0 f:o0 B3:c0 B1:c0 B2:c0",
}


@pytest.mark.parametrize("d, mode, feynman", list(_MASS_SHELL_SYMBOLS))
def test_mass_shell_symbols_and_ordering_are_pinned(d, mode, feynman):
    ctx = build_mass_shell(MassShellScenario(dimension=d, ordering_mode=mode, feynman=feynman))
    table = " ".join(f"{s.name}:{s.kind[0]}{s.klass}" for s in ctx.all_symbols())
    assert table == _MASS_SHELL_SYMBOLS[d, mode, feynman]
    assert ctx.ordering_mode == mode


def test_one_momentum_commutes_in_every_mode():
    """With one momentum no commutator is declared, so p1 commutes, and
    W[p1] of sqrt(m^2 + p1^2) f is the commuting-mode result."""
    field = "sqrt(m^2+p1^2)*f(p1,E)"
    outs = []
    for mode in ("commuting", "operator", "paper"):
        ctx = build_mass_shell(MassShellScenario(dimension=1, ordering_mode=mode))
        assert ctx.find_symbol("p1").klass == 0
        p1 = ctx.find_symbol("p1")
        outs.append(apply(DifferentialOperator.whole(ctx, p1), parse_expr_in_context(field, ctx)))
    assert equals_canonical(outs[1], outs[0]) and equals_canonical(outs[2], outs[0])


def test_momentum_energy_commutator_d1():
    ctx = build_mass_shell(MassShellScenario(dimension=1, ordering_mode="commuting"))
    p1, E = syms(ctx, "p1", "E")
    fe = field_of(ctx)
    want = (Expr.symbol(p1) / Expr.symbol(E) ** 2) * fe.diff_plain(E)
    assert equals_canonical(momentum_energy_commutator(ctx, 1), want)


def test_momentum_momentum_commutator_modes(ms_commuting, ms_paper, ms_operator):
    assert momentum_momentum_commutator(ms_commuting, 1, 2).is_zero()

    ctx = ms_paper
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    EE = Expr.symbol(E)
    fe = field_of(ctx)
    fE = fe.diff_plain(E)
    k12 = ctx.commutators.lookup(p1, p2)
    assert equals_canonical(
        momentum_momentum_commutator(ctx, 1, 2), k12 / EE ** 3 * fE
    )

    ctx = ms_operator
    p1, p2, E = syms(ctx, "p1", "p2", "E")
    EE = Expr.symbol(E)
    fe = field_of(ctx)
    fE = fe.diff_plain(E)
    fEE = fE.diff_plain(E)
    k12 = ctx.commutators.lookup(p1, p2)
    want = k12 / EE ** 3 * fE - k12 / EE ** 2 * fEE
    assert equals_canonical(momentum_momentum_commutator(ctx, 1, 2), want)


def test_feynman_substitution():
    ctx = build_mass_shell(MassShellScenario(ordering_mode="paper", feynman=True))
    p1, p2, p3, E = syms(ctx, "p1", "p2", "p3", "E")
    EE = Expr.symbol(E)
    fe = field_of(ctx)
    fE = fe.diff_plain(E)
    i = Expr.imaginary_unit()
    B1, B2, B3 = (Expr.symbol(ctx.find_symbol(f"B{k}")) for k in (1, 2, 3))
    assert equals_canonical(ctx.commutators.lookup(p1, p2), i * B3)
    assert equals_canonical(ctx.commutators.lookup(p2, p3), i * B1)
    assert equals_canonical(ctx.commutators.lookup(p3, p1), i * B2)
    assert equals_canonical(
        momentum_momentum_commutator(ctx, 1, 2), i * B3 / EE ** 3 * fE
    )


def test_kappa_zero_reproduces_commuting(ms_paper, ms_commuting):
    from wholediff.symexpr import substitute

    got = momentum_momentum_commutator(ms_paper, 1, 2)
    k12 = ms_paper.find_symbol("kappa12")
    assert substitute(got, {k12: Expr.zero()}).is_zero()


def test_position_table_structure(ms_commuting):
    ctx = ms_commuting
    tab = position_commutator_table(ctx)
    assert tab.dimension == 3
    n = tab.dimension + 1
    for mu in range(n):
        assert tab.entries[mu][mu].is_zero() or op_equals(
            tab.entries[mu][mu], DifferentialOperator.zero(ctx)
        )
        for nu in range(n):
            assert op_equals(tab.entries[mu][nu], -tab.entries[nu][mu])


def test_position_table_time_space_entry(ms_commuting):
    ctx = ms_commuting
    tab = position_commutator_table(ctx)
    fe = field_of(ctx)
    E = ctx.find_symbol("E")
    for k in (1, 2, 3):
        pk = ctx.find_symbol(f"p{k}")
        got = apply(tab.entries[0][k], fe)
        want = -(Expr.symbol(pk) / Expr.symbol(E) ** 2) * fe.diff_plain(E)
        assert equals_canonical(got, want)


def test_position_table_feynman_space_space():
    ctx = build_mass_shell(MassShellScenario(ordering_mode="paper", feynman=True))
    tab = position_commutator_table(ctx)
    fe = field_of(ctx)
    E = ctx.find_symbol("E")
    EE = Expr.symbol(E)
    i = Expr.imaginary_unit()
    B3 = Expr.symbol(ctx.find_symbol("B3"))
    got = apply(tab.entries[1][2], fe)
    # (-i)(-i)[W1,W2] = -[W1,W2] -> -(i*B3/E^3) f_E
    want = -(i * B3 / EE ** 3) * fe.diff_plain(E)
    assert equals_canonical(got, want)


def test_retarded_linear_trajectory():
    v0 = Symbol("v0", SymbolKind.PARAMETER)
    traj = Expr.symbol(v0) * Expr.symbol(RETARDED_TP)
    ctx = build_retarded(RetardedScenario(trajectory=traj, parameters=(v0,)))
    one = Expr.one()
    V0 = Expr.symbol(v0)
    assert equals_canonical(ctx.representation(RETARDED_TP, RETARDED_T), one / (one - V0))
    assert equals_canonical(ctx.representation(RETARDED_TP, RETARDED_X), -one / (one - V0))


def test_retarded_half_speed_value():
    traj = Expr.const(Fraction(1, 2)) * Expr.symbol(RETARDED_TP)
    ctx = build_retarded(RetardedScenario(trajectory=traj))
    assert equals_canonical(ctx.representation(RETARDED_TP, RETARDED_T), Expr.const(2))


def test_retarded_static_source():
    ctx = build_retarded(RetardedScenario(trajectory=Expr.const(Fraction(1, 4))))
    assert equals_canonical(ctx.representation(RETARDED_TP, RETARDED_T), Expr.one())
    assert equals_canonical(ctx.representation(RETARDED_TP, RETARDED_X), -Expr.one())


def test_retarded_superluminal_rejected():
    traj = Expr.const(2) * Expr.symbol(RETARDED_TP)
    with pytest.raises(DegenerateConstraintError):
        build_retarded(RetardedScenario(trajectory=traj))


def test_retarded_trajectory_symbol_guard():
    with pytest.raises(ContextError):
        build_retarded(RetardedScenario(trajectory=Expr.symbol(RETARDED_X)))


def test_retarded_commutator_mechanism():
    # [W[x], D[tp]] g = (d/dtp of dtp/dx) * dg/dtp; with a linear trajectory
    # the representation is constant, so the commutator vanishes.
    from wholediff.diffop import commutator

    v0 = Symbol("v0", SymbolKind.PARAMETER)
    traj = Expr.symbol(v0) * Expr.symbol(RETARDED_TP)
    ctx = build_retarded(RetardedScenario(trajectory=traj, parameters=(v0,)))
    ge = field_of(ctx)
    C = commutator(
        DifferentialOperator.whole(ctx, RETARDED_X),
        DifferentialOperator.plain(ctx, RETARDED_TP),
    )
    rep = ctx.representation(RETARDED_TP, RETARDED_X)
    want = rep.diff_plain(RETARDED_TP) * ge.diff_plain(RETARDED_TP)
    assert equals_canonical(apply(C, ge), want)
    assert apply(C, ge).is_zero()  # constant-speed special case
