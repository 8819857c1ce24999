"""Dependency contexts: which variables are independent, which are
dependent, and how dependent-variable partials are represented; a
context's validation; and implicit_partial.

A representation may be declared explicitly or derived from an implicit
constraint g = 0 via the implicit function theorem; when both exist, the
declared form wins in the derivative engine (representation choice is the
experiment); the constraint serves validation and numcheck's sampling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import (
    ContextError,
    DegenerateConstraintError,
    EvaluationError,
    RootSolveError,
)
from .symexpr import (
    CommutatorTable,
    Expr,
    Symbol,
    SymbolKind,
    _Frozen,
    equals_canonical,
)

ORDERING_MODES = ("commuting", "operator", "paper")

# validate() compares a declared representation with the constraint-derived
# one at this many on-shell samples per sheet, drawn from this seed, to this
# relative tolerance.
_AGREEMENT_SAMPLES = 8
_AGREEMENT_SEED = 0
_AGREEMENT_TOL = 1e-9


class Diagnostic(_Frozen):
    __slots__ = ("level", "message")

    def __init__(self, level: str, message: str):  # level: "error" | "warning"
        self._init(level, message)

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


class DependencyContext:
    __slots__ = ("independents", "parameters", "dependents", "representations",
                 "constraints", "opaques", "commutators", "ordering_mode", "_plans")

    # representations: (dependent, independent) symbol pair -> declared derivative
    def __init__(self, independents: Tuple[Symbol, ...], parameters: Tuple[Symbol, ...] = (),
                 dependents: Tuple[Symbol, ...] = (),
                 constraints: Tuple[Tuple[Expr, Symbol], ...] = (),
                 opaques: Tuple[Tuple[Symbol, Tuple[Symbol, ...]], ...] = (),
                 commutators: Optional[CommutatorTable] = None, ordering_mode: str = "operator"):
        if ordering_mode not in ORDERING_MODES:
            raise ContextError(f"unknown ordering mode {ordering_mode!r}")
        self.independents = tuple(independents)
        self.parameters = tuple(parameters)
        self.dependents = tuple(dependents)
        self.representations = {}
        self.constraints = tuple(constraints)
        self.opaques = tuple((f, tuple(a)) for f, a in opaques)
        self.commutators = CommutatorTable() if commutators is None else commutators
        self.ordering_mode = ordering_mode
        self._plans = None  # (constraints, dependents, plans) as numcheck._solve_plans built them

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
        rep = self.representations.get((u, v))
        if rep is not None:
            return rep
        g = self.constraint_for(u)
        if g is not None:
            return implicit_partial(g, u, v)
        return None

    def declare_representation(self, u: Symbol, v: Symbol, expr):
        self.representations[(u, v)] = Expr._coerce(expr)

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
                    how = "twice" if names[s.name] == role else f"both {names[s.name]} and {role}"
                    diags.append(Diagnostic("error", f"symbol '{s.name}' declared {how}"))
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

        for u in self.dependents:
            n = sum(dep == u for _, dep in self.constraints)
            if n > 1:
                msg = f"dependent '{u.name}' is solved by {n} constraints"
                diags.append(Diagnostic("error", msg))
            g = self.constraint_for(u)
            for v in self.independents:
                declared = self.representations.get((u, v))
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
                declared = self.representations.get((u, v))
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
                except ContextError:
                    continue
                except (EvaluationError, RootSolveError) as exc:
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
        """a and b agree at the on-shell samples of both sheets; a sheet that
        cannot be sampled is skipped, and RootSolveError, naming the last
        failure, says that neither could be."""
        from .numcheck import _program, sample_on_shell

        a_at, b_at = _program(a), _program(b)
        failures = []
        for sign in (+1, -1):
            try:
                points = sample_on_shell(self, _AGREEMENT_SAMPLES, _AGREEMENT_SEED, sign=sign)
            except (RootSolveError, DegenerateConstraintError) as exc:
                failures.append(exc)
                continue
            for vals in points:
                va, vb = a_at(vals, {}), b_at(vals, {})
                denom = max(abs(va), abs(vb), 1e-30)
                if abs(va - vb) / denom > _AGREEMENT_TOL:
                    return False
        if len(failures) == 2:
            raise RootSolveError("no on-shell sample could be drawn; the last failure: "
                                 f"{failures[-1]}")
        return True


def __getattr__(name):
    """numcheck's sample_on_shell and solve_dependents, imported on first read and kept."""
    if name not in ("sample_on_shell", "solve_dependents"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import numcheck

    value = globals()[name] = getattr(numcheck, name)
    return value
