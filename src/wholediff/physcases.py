"""Prebuilt scenarios: relativistic mass shell (with optionally
noncommuting momentum components), the position-operator commutator
table, and the retarded-time constraint of a moving source.

A mass-shell scenario is the context its file parses to: build_mass_shell
writes the scenario's context statements and returns parse_context of
them, so the parser alone decides which momenta commute.

Units are c = hbar = 1 throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .depctx import ORDERING_MODES, DependencyContext, implicit_partial
from .diffop import DifferentialOperator, apply, commutator
from .errors import ContextError, DegenerateConstraintError
from .symexpr import Expr, Symbol, SymbolKind
from .textio import parse_context


@dataclass(frozen=True)
class MassShellScenario:
    """E = ±sqrt(p^2 + m^2) with a chosen product-ordering convention.

    `sign` names a sheet but does not change the context: the constraint
    and the representations dE/dp_i = p_i/E hold on both sheets, so both
    signs build the same context and write the same file.  The sheet is
    chosen where the context is sampled (`verify --sign`, SamplerSpec.sign)."""

    dimension: int = 3
    sign: int = +1
    ordering_mode: str = "operator"
    feynman: bool = False

    def __post_init__(self):
        if self.dimension < 1:
            raise ContextError("mass-shell scenario needs at least one momentum")
        if self.sign not in (+1, -1):
            raise ContextError("sign must be +1 or -1")
        if self.ordering_mode not in ORDERING_MODES:
            raise ContextError(f"unknown ordering mode '{self.ordering_mode}'")


def build_mass_shell(s: MassShellScenario) -> DependencyContext:
    """Context with independents p1..pd, parameter m, dependent E solving
    E^2 - sum(p_i^2) - m^2 = 0, representations dE/dp_i = p_i/E, and an
    opaque field f(p1..pd, E).

    With feynman=True (3-D only) the momentum commutators are
    [p1,p2] = i*B3, [p2,p3] = i*B1, [p3,p1] = i*B2; otherwise a
    noncommuting ordering mode declares generic antisymmetric kappa_ij."""
    d = s.dimension
    if s.feynman and d != 3:
        raise ContextError("the B-field commutation relations need exactly 3 momenta")
    ps = [f"p{i}" for i in range(1, d + 1)]
    lines = [
        "independent " + " ".join(ps),
        "param m",
        "dependent E",
        "constraint " + " + ".join(f"{p}^2" for p in ps) + " + m^2 - E^2 = 0 solves E",
        *(f"representation dE/d{p} = {p}/E" for p in ps),
        f"opaque f({','.join(ps)},E)",
    ]
    if s.ordering_mode != "commuting" and d >= 2:
        if s.feynman:
            lines += ["commutator [p1,p2] = i*B3", "commutator [p2,p3] = i*B1",
                      "commutator [p3,p1] = i*B2"]
        else:
            lines += [f"commutator [{a},{b}] = kappa{a[1:]}{b[1:]}"
                      for a, b in itertools.combinations(ps, 2)]
    lines.append(f"ordering {s.ordering_mode}")
    return parse_context("\n".join(lines))


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
    # Each pair once: the table is antisymmetric with a zero diagonal.
    entries = [[DifferentialOperator.zero(ctx)] * len(ops) for _ in ops]
    for mu, nu in itertools.combinations(range(len(ops)), 2):
        entries[mu][nu] = commutator(ops[mu], ops[nu])
        entries[nu][mu] = -entries[mu][nu]
    return PositionCommutatorTable(
        operators=tuple(ops), entries=tuple(map(tuple, entries))
    )


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
        from .numcheck import NumericBinding, evaluate

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
