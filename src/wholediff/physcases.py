"""Prebuilt scenarios: relativistic mass shell (with optionally
noncommuting momentum components), the position-operator commutator
table, and the retarded-time constraint of a moving source.

Units are c = hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .depctx import DependencyContext, implicit_partial
from .diffop import DifferentialOperator, apply, commutator
from .errors import ContextError, DegenerateConstraintError
from .numcheck import NumericBinding, evaluate
from .symexpr import CommutatorTable, Expr, Symbol, SymbolKind

_NC_CLASS = 1  # momentum components share one noncommuting class


@dataclass(frozen=True)
class MassShellScenario:
    """E = ±sqrt(p^2 + m^2) with a chosen product-ordering convention."""

    dimension: int = 3
    sign: int = +1
    ordering_mode: str = "operator"
    feynman: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise ContextError("mass-shell scenario needs at least one momentum")
        if self.sign not in (+1, -1):
            raise ContextError("sign must be +1 or -1")


def build_mass_shell(s: MassShellScenario) -> DependencyContext:
    """Context with independents p1..pd, parameter m, dependent E solving
    E^2 - sum(p_i^2) - m^2 = 0, representations dE/dp_i = p_i/E, and an
    opaque field f(p1..pd, E).

    With feynman=True (3-D only) the momentum commutators are
    [p1,p2] = i*B3, [p2,p3] = i*B1, [p3,p1] = i*B2; otherwise a
    noncommuting ordering mode installs generic antisymmetric kappa_ij."""
    d = s.dimension
    noncommuting = s.ordering_mode != "commuting"
    if s.feynman and d != 3:
        raise ContextError("the B-field commutation relations need exactly 3 momenta")

    klass = _NC_CLASS if noncommuting else 0
    ps = tuple(Symbol(f"p{i}", SymbolKind.INDEPENDENT, klass=klass) for i in range(1, d + 1))
    m = Symbol("m", SymbolKind.PARAMETER)
    E = Symbol("E", SymbolKind.DEPENDENT)
    f = Symbol("f", SymbolKind.OPAQUE)

    EE = Expr.symbol(E)
    g = Expr.symbol(m) ** 2 - EE ** 2
    for p in ps:
        g = g + Expr.symbol(p) ** 2

    table = CommutatorTable()
    params = [m]
    if noncommuting:
        if s.feynman:
            bs = tuple(Symbol(f"B{k}", SymbolKind.COMMUTATOR) for k in (1, 2, 3))
            i_unit = Expr.imaginary_unit()
            table.declare(ps[0], ps[1], i_unit * Expr.symbol(bs[2]))
            table.declare(ps[1], ps[2], i_unit * Expr.symbol(bs[0]))
            table.declare(ps[2], ps[0], i_unit * Expr.symbol(bs[1]))
        else:
            for i in range(d):
                for j in range(i + 1, d):
                    k = Symbol(f"kappa{i + 1}{j + 1}", SymbolKind.COMMUTATOR)
                    table.declare(ps[i], ps[j], Expr.symbol(k))

    ctx = DependencyContext(
        independents=ps,
        parameters=tuple(params),
        dependents=(E,),
        constraints=((g, E),),
        opaques=((f, ps + (E,)),),
        commutators=table,
        ordering_mode=s.ordering_mode,
    )
    for p in ps:
        ctx.declare_representation(E, p, Expr.symbol(p) / EE)
    return ctx


def _field(ctx: DependencyContext) -> Expr:
    fn, args = ctx.opaques[0]
    return Expr.opaque(fn, args)


def _momentum(ctx: DependencyContext, i: int) -> Symbol:
    p = ctx.find_symbol(f"p{i}")
    if p is None or not ctx.is_independent(p):
        raise ContextError(f"context has no momentum component p{i}")
    return p


def momentum_energy_commutator(ctx: DependencyContext, i: int) -> Expr:
    """[W[p_i], D[E]] applied to the scenario field; with dE/dp_i = p_i/E
    this is (p_i/E^2) * df/dE."""
    E = ctx.find_symbol("E")
    A = DifferentialOperator.whole(ctx, _momentum(ctx, i))
    B = DifferentialOperator.plain(ctx, E)
    return apply(commutator(A, B), _field(ctx))


def momentum_momentum_commutator(ctx: DependencyContext, i: int, j: int) -> Expr:
    """[W[p_i], W[p_j]] applied to the scenario field, resolved under the
    context's ordering mode."""
    A = DifferentialOperator.whole(ctx, _momentum(ctx, i))
    B = DifferentialOperator.whole(ctx, _momentum(ctx, j))
    return apply(commutator(A, B), _field(ctx))


@dataclass(frozen=True)
class PositionCommutatorTable:
    """Antisymmetric table of position-operator commutators.

    Convention: x^0 = i*D[E], x^k = -i*W[p_k]; entries[mu][nu] is the
    commutator of the corresponding pair."""

    operators: Tuple[DifferentialOperator, ...]
    entries: Tuple[Tuple[DifferentialOperator, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.operators) - 1


def position_commutator_table(ctx: DependencyContext) -> PositionCommutatorTable:
    E = ctx.find_symbol("E")
    i_unit = Expr.imaginary_unit()
    ops = [DifferentialOperator.plain(ctx, E).scale(i_unit)]
    k = 1
    while ctx.find_symbol(f"p{k}") is not None:
        ops.append(DifferentialOperator.whole(ctx, _momentum(ctx, k)).scale(-i_unit))
        k += 1
    entries = tuple(
        tuple(commutator(a, b) for b in ops) for a in ops
    )
    return PositionCommutatorTable(operators=tuple(ops), entries=entries)


@dataclass(frozen=True)
class RetardedScenario:
    """Signal observed at (x, t) was emitted at the earlier time tp
    satisfying tp + R(tp) = t with R = x - x0(tp), x > x0 assumed."""

    trajectory: Expr  # x0 as an expression in tp and parameters
    parameters: Tuple[Symbol, ...] = ()


RETARDED_TP = Symbol("tp", SymbolKind.DEPENDENT)
RETARDED_X = Symbol("x", SymbolKind.INDEPENDENT)
RETARDED_T = Symbol("t", SymbolKind.INDEPENDENT)


def build_retarded(s: RetardedScenario) -> DependencyContext:
    """Context with independents x, t and dependent tp solving
    tp + (x - x0(tp)) - t = 0; representations come from the constraint."""
    tp, x, t = RETARDED_TP, RETARDED_X, RETARDED_T
    traj = Expr._coerce(s.trajectory)
    allowed = {tp.name} | {p.name for p in s.parameters}
    for sym in traj.symbols():
        if sym.name not in allowed:
            raise ContextError(
                f"trajectory may mention only tp and parameters, not '{sym.name}'"
            )
    speed = traj.diff_plain(tp)
    if not speed.symbols():
        v = evaluate(speed, NumericBinding(values={}))
        if abs(v) >= 1.0:
            raise DegenerateConstraintError(
                "trajectory speed |x0'| >= 1: the emission time is not "
                "determined by the constraint"
            )

    gfield = Symbol("g", SymbolKind.OPAQUE)
    con = Expr.symbol(tp) + (Expr.symbol(x) - traj) - Expr.symbol(t)
    ctx = DependencyContext(
        independents=(x, t),
        parameters=tuple(s.parameters),
        dependents=(tp,),
        constraints=((con, tp),),
        opaques=((gfield, (x, tp)),),
        ordering_mode="commuting",
    )
    for v in (x, t):
        ctx.declare_representation(tp, v, implicit_partial(con, tp, v))
    return ctx
