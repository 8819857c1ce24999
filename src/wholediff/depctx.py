"""Dependency contexts: which variables are independent, which are
dependent, and how dependent-variable partials are represented.

A representation may be declared explicitly or derived from an implicit
constraint g = 0 via the implicit function theorem; when both exist, the
declared form wins in the derivative engine (representation choice is the
experiment) and the constraint is used for sampling and validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import (
    ContextError,
    DegenerateConstraintError,
    EvaluationError,
    RootSolveError,
)
from .numcheck import _compile, _program
from .symexpr import (
    CommutatorTable,
    Expr,
    Symbol,
    SymbolKind,
    equals_canonical,
)

ORDERING_MODES = ("commuting", "operator", "paper")

# Root-solve bracket on the positive sheet (mirrored for the negative one),
# and the smallest admissible |dependent| in an on-shell sample.
_BRACKET = (1e-6, 1e3)
_MIN_DEPENDENT = 1e-6

# validate() compares a declared representation with the constraint-derived
# one at this many on-shell samples per sheet, drawn from this seed, to this
# relative tolerance.
_AGREEMENT_SAMPLES = 8
_AGREEMENT_SEED = 0
_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.level}: {self.message}"


def implicit_partial(g: Expr, u: Symbol, v: Symbol) -> Expr:
    """du/dv implied by the constraint g(u, v, ...) = 0."""
    gu = Expr._coerce(g).diff_plain(u)
    if gu.is_zero():
        raise DegenerateConstraintError(
            f"constraint does not determine {u.name} (derivative in {u.name} vanishes)"
        )
    gv = Expr._coerce(g).diff_plain(v)
    return -gv / gu


@dataclass
class DependencyContext:
    independents: Tuple[Symbol, ...]
    parameters: Tuple[Symbol, ...] = ()
    dependents: Tuple[Symbol, ...] = ()
    # (dependent name, independent name) -> declared d(dependent)/d(independent)
    representations: Dict[Tuple[str, str], Expr] = field(default_factory=dict)
    constraints: Tuple[Tuple[Expr, Symbol], ...] = ()
    opaques: Tuple[Tuple[Symbol, Tuple[Symbol, ...]], ...] = ()
    commutators: CommutatorTable = field(default_factory=CommutatorTable)
    ordering_mode: str = "operator"
    # (constraints, dependents, plans) as _solve_plans last built them.
    _plans: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.independents = tuple(self.independents)
        self.parameters = tuple(self.parameters)
        self.dependents = tuple(self.dependents)
        self.constraints = tuple(self.constraints)
        self.opaques = tuple((f, tuple(a)) for f, a in self.opaques)
        if self.ordering_mode not in ORDERING_MODES:
            raise ContextError(f"unknown ordering mode {self.ordering_mode!r}")

    # -- lookups ---------------------------------------------------------

    def is_independent(self, s: Symbol) -> bool:
        return s in self.independents

    def is_dependent(self, s: Symbol) -> bool:
        return s in self.dependents

    def all_symbols(self) -> Tuple[Symbol, ...]:
        out = list(self.independents) + list(self.parameters) + list(self.dependents)
        out += [f for f, _ in self.opaques]
        for a, b, v in self.commutators.pairs():
            out += [s for s in v.symbols() if s not in out]
        return tuple(dict.fromkeys(out))

    def find_symbol(self, name: str) -> Optional[Symbol]:
        for s in self.all_symbols():
            if s.name == name:
                return s
        return None

    def constraint_for(self, u: Symbol):
        for g, solves in self.constraints:
            if solves == u:
                return g
        return None

    def representation(self, u: Symbol, v: Symbol) -> Optional[Expr]:
        """Declared representation if present, else one derived from the
        constraint solving u, else None."""
        rep = self.representations.get((u.name, v.name))
        if rep is not None:
            return rep
        g = self.constraint_for(u)
        if g is not None:
            return implicit_partial(g, u, v)
        return None

    def declare_representation(self, u: Symbol, v: Symbol, expr):
        self.representations[(u.name, v.name)] = Expr._coerce(expr)

    # -- validation ------------------------------------------------------

    def validate(self) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        names: Dict[str, str] = {}
        groups = (
            ("independent", self.independents),
            ("parameter", self.parameters),
            ("dependent", self.dependents),
            ("opaque", [f for f, _ in self.opaques]),
        )
        for role, syms in groups:
            for s in syms:
                if s.name in names:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"symbol '{s.name}' declared both {names[s.name]} and {role}",
                        )
                    )
                names.setdefault(s.name, role)

        for fn, args in self.opaques:
            for a in args:
                if a.name not in names:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"opaque {fn.name} argument '{a.name}' is not a declared symbol",
                        )
                    )

        seen_fns = set()
        for fn, args in self.opaques:
            key = fn.name
            if key in seen_fns:
                diags.append(Diagnostic("error", f"opaque '{fn.name}' declared twice"))
            seen_fns.add(key)

        for u in self.dependents:
            g = self.constraint_for(u)
            for v in self.independents:
                declared = self.representations.get((u.name, v.name))
                if declared is None and g is None:
                    diags.append(
                        Diagnostic(
                            "error", f"missing representation ({u.name},{v.name})"
                        )
                    )
                if declared is not None:
                    bad = [
                        s
                        for s in declared.symbols()
                        if s.kind == SymbolKind.OPAQUE
                        or (s in self.dependents and s != u)
                    ]
                    for s in bad:
                        diags.append(
                            Diagnostic(
                                "error",
                                f"representation d{u.name}/d{v.name} mentions "
                                f"disallowed symbol '{s.name}'",
                            )
                        )

        # numeric on-shell agreement of declared vs constraint-derived forms
        for u in self.dependents:
            g = self.constraint_for(u)
            if g is None:
                continue
            for v in self.independents:
                declared = self.representations.get((u.name, v.name))
                if declared is None:
                    continue
                try:
                    derived = implicit_partial(g, u, v)
                except DegenerateConstraintError as exc:
                    diags.append(Diagnostic("error", str(exc)))
                    break
                if equals_canonical(declared, derived):
                    continue
                try:
                    ok = self._numeric_agreement(declared, derived)
                except (RootSolveError, ContextError):
                    continue
                except EvaluationError as exc:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"declared representation d{u.name}/d{v.name} was not checked "
                            f"against the constraint-derived form: {exc}",
                        )
                    )
                    continue
                if not ok:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"declared representation d{u.name}/d{v.name} disagrees "
                            "with the constraint-derived form on the constraint surface",
                        )
                    )
        return diags

    def _numeric_agreement(self, a: Expr, b: Expr) -> bool:
        a_at, b_at = _program(a), _program(b)
        for sign in (+1, -1):
            try:
                points = sample_on_shell(self, _AGREEMENT_SAMPLES, _AGREEMENT_SEED, sign=sign)
            except (RootSolveError, DegenerateConstraintError):
                continue
            for vals in points:
                va, vb = a_at(vals, {}), b_at(vals, {})
                denom = max(abs(va), abs(vb), 1e-30)
                if abs(va - vb) / denom > _AGREEMENT_TOL:
                    return False
        return True


# ---------------------------------------------------------------------------
# On-shell sampling
# ---------------------------------------------------------------------------


def sample_on_shell(
    ctx: DependencyContext,
    count: int,
    seed: int,
    sign: int = +1,
    overrides: Optional[Dict[str, float]] = None,
) -> List[Dict[str, complex]]:
    """Deterministic numeric bindings on the constraint surface.

    Independents are drawn uniformly from [-2, 2], parameters from
    [1/2, 2]; each sample uses its own RNG stream derived from (seed,
    index).  Dependents with |value| < 1e-6 trigger a redraw."""
    import numpy as np

    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        for _attempt in range(64):
            vals = _draw_free(ctx, rng)
            if overrides:
                vals.update(overrides)
            try:
                dep_vals = solve_dependents(ctx, vals, sign=sign)
            except RootSolveError:
                continue
            if all(abs(v) >= _MIN_DEPENDENT for v in dep_vals.values()):
                vals.update(dep_vals)
                break
        else:
            raise RootSolveError(
                "could not draw an admissible on-shell sample", sample=vals
            )
        out.append(vals)
    return out


def _draw_free(ctx: DependencyContext, rng) -> Dict[str, complex]:
    """Independents uniform in [-2, 2], then parameters uniform in [1/2, 2],
    in declaration order."""
    vals: Dict[str, complex] = {}
    for s in ctx.independents:
        vals[s.name] = float(rng.uniform(-2.0, 2.0))
    for s in ctx.parameters:
        vals[s.name] = float(rng.uniform(0.5, 2.0))
    return vals


def solve_dependents(
    ctx: DependencyContext,
    vals: Dict[str, complex],
    sign: int = +1,
    near: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Solve each dependent from its constraint at the given independent and
    parameter values.  Linear and pure-quadratic constraints are solved in
    closed form; anything else falls back to a bracketed 1-D root solve."""
    out: Dict[str, float] = {}
    for u, plan in _solve_plans(ctx):
        if plan is None:
            raise RootSolveError(f"no constraint solves dependent '{u.name}'")
        out[u.name] = _solve_one(
            plan, u, {**vals, **out} if out else vals, sign,
            None if near is None else near.get(u.name),
        )
    return out


def _solve_plans(ctx: DependencyContext):
    """(dependent, plan or None without a constraint) for each dependent,
    made once per context and made again if its constraints or dependents
    are replaced."""
    made = ctx._plans
    if made is None or made[0] is not ctx.constraints or made[1] is not ctx.dependents:
        plans = []
        for u in ctx.dependents:
            g = ctx.constraint_for(u)
            plans.append((u, None if g is None else _constraint_derivatives(g, u)))
        made = ctx._plans = (ctx.constraints, ctx.dependents, tuple(plans))
    return made[2]


@lru_cache(maxsize=16)
def _constraint_derivatives(g: Expr, u: Symbol) -> tuple:
    """The solve plan of a (constraint, dependent) pair, derived and
    compiled once rather than at every sample and finite-difference probe:
    g, g_u and g_uu compiled as functions of (values, u), the last two None
    unless g_uuu is zero, so that the closed form applies (else brentq)."""
    gu = g.diff_plain(u)
    guu = gu.diff_plain(u)
    if guu.diff_plain(u).is_zero():
        return _compile(g, u.name), _compile(gu, u.name), _compile(guu, u.name)
    return _compile(g, u.name), None, None


def _solve_one(plan: tuple, u: Symbol, vals, sign, near) -> float:
    g, gu, guu = plan
    if guu is not None:
        a2 = 0.5 * guu(vals, 0.0).real
        a1 = gu(vals, 0.0).real
        a0 = g(vals, 0.0).real
        if abs(a2) < 1e-14:
            if abs(a1) < 1e-14:
                raise RootSolveError(
                    f"degenerate constraint for '{u.name}'", sample=dict(vals)
                )
            return -a0 / a1
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            raise RootSolveError(
                f"constraint for '{u.name}' has no real root", sample=dict(vals)
            )
        r1 = (-a1 + math.sqrt(disc)) / (2.0 * a2)
        r2 = (-a1 - math.sqrt(disc)) / (2.0 * a2)
        if near is not None:
            return r1 if abs(r1 - near) <= abs(r2 - near) else r2
        want = max(r1, r2) if sign >= 0 else min(r1, r2)
        return want

    from scipy.optimize import brentq

    lo, hi = _BRACKET
    if sign < 0:
        lo, hi = -hi, -lo
    if near is not None:
        width = max(1.0, abs(near))
        lo, hi = near - width, near + width
    f = lambda x: g(vals, x).real
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise RootSolveError(
            f"could not bracket a root for '{u.name}' in [{lo}, {hi}]",
            sample=dict(vals),
        )
    return float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
