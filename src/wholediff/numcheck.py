"""Numeric oracle: expression evaluation, finite-difference derivatives
along the constraint surface, nested-FD commutators, and identity
verification reports.

Evaluation is compiled.  The first evaluation of an Expr turns it into a
straight-line Python function, which is kept on the Expr and reused at
every later point.  The program does the IEEE operations of a walk over
the expression, in the walk's order: each term starts at its coefficient,
made a complex constant at compile time, and is multiplied by v**exp for
each factor; the terms are added to 0j in order; a sum denominator is
checked against 1e-300 and divided into the numerator.  Each distinct atom
(symbol value, opaque application, partial, power, representation marker)
is evaluated once per point, at its first use in that order, and later
uses read the value back; so an unbound name or a singularity raises the
same error, at the same point, as evaluating every occurrence would.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .errors import (
    EvaluationError,
    SingularityError,
    UnboundSymbolError,
)
from .symexpr import Expr, PartialAtom, PowAtom, RepAtom, Symbol

# depctx compiles its constraints with this module, so the sampling and
# solving functions of depctx are imported where they are called.
if TYPE_CHECKING:
    from .depctx import DependencyContext

DEFAULT_FD_STEP = 1e-5
DEFAULT_NESTED_FD_STEP = 1e-4
_TINY = 1e-300
# A compiled sum is split into lines of this many terms, which keeps deep
# sums within the bytecode compiler's recursion limit.
_TERMS_PER_LINE = 32


class OpaqueFn:
    """Concrete stand-in for an opaque function symbol.

    fn maps the argument values (in declared order) to a complex number.
    partials optionally maps a multi-index, given as a sorted tuple of
    (argument name, order) pairs, to an analytic derivative closure; plain
    partial atoms without an analytic entry are evaluated by nested
    central differences of fn.

    The closures must be pure: a compiled program calls each one once per
    point for each distinct application and reuses the value."""

    __slots__ = ("fn", "partials")

    def __init__(self, fn: Callable[..., complex],
                 partials: Optional[Dict[tuple, Callable[..., complex]]] = None):
        self.fn, self.partials = fn, {} if partials is None else partials


class NumericBinding:
    """Map from symbol names to numeric values plus opaque closures."""

    __slots__ = ("values", "opaques")

    def __init__(self, values: Optional[Dict[str, complex]] = None,
                 opaques: Optional[Dict[str, OpaqueFn]] = None):
        self.values = {} if values is None else values
        self.opaques = {} if opaques is None else opaques

    def value(self, name: str) -> complex:
        if name not in self.values:
            raise UnboundSymbolError(name)
        return complex(self.values[name])


def evaluate(e, b: NumericBinding) -> complex:
    """IEEE-double evaluation of an expression under a binding: the
    expression's compiled program called once (see the module docstring)."""
    return _program(Expr._coerce(e))(b.values, b.opaques)


def _program(e: Expr):
    """The compiled program of e, a function (values, opaques) -> complex.

    It is made on the first call and kept in the Expr's _compiled slot; an
    Expr is immutable, so the object itself determines its program."""
    prog = getattr(e, "_compiled", None)
    if prog is None:
        prog = _compile(e)
        object.__setattr__(e, "_compiled", prog)
    return prog


def _compile(e: Expr, dependent: Optional[str] = None):
    """Compile e into a function (values, opaques) -> complex; with a
    dependent name, into a function (values, x) -> complex that reads that
    symbol as complex(x) and has no opaque closures."""
    c = _Compiler(dependent)
    out = c.expr(e)
    args = "V, X" if dependent is not None else "V, O"
    src = f"def _program({args}):\n" + "".join(f"    {line}\n" for line in c.lines)
    src += f"    return {out}\n"
    if dependent is not None:
        c.ns["O"] = {}
    exec(compile(src, "<wholediff program>", "exec"), c.ns)
    # Taken out of its own globals, the program is no reference cycle and is
    # freed with the last Expr or plan that holds it.
    return c.ns.pop("_program")


def _raise(cls, *args):
    raise cls(*args)


class _Compiler:
    """Emits the lines of one program in walk order.

    Each line defines one local from an expression text over earlier locals,
    namespace constants and the arguments, and the text determines the
    value; so a text seen before (the same symbol, closure, atom, power,
    sum or quotient) reuses its local instead of a new line.  A check runs
    once, before the first use of the value it guards.  User names reach
    the source only as repr() literals; constants and closures are bound in
    the program's namespace `ns`."""

    def __init__(self, dependent: Optional[str]):
        self.dependent = dependent
        self.lines: List[str] = []
        self.locals: Dict[str, str] = {}
        self.checked: set = set()
        self.consts: Dict[object, str] = {}
        self.ns: Dict[str, object] = {
            "_raise": _raise,
            "_Unbound": UnboundSymbolError,
            "_Singular": SingularityError,
            "_fd_partial": _fd_partial,
            "_exp": cmath.exp,
            "_log": cmath.log,
        }

    def define(self, text: str) -> str:
        name = self.locals.get(text)
        if name is None:
            name = self.locals[text] = f"t{len(self.locals)}"
            self.lines.append(f"{name} = {text}")
        return name

    def check(self, condition: str, error: str) -> None:
        if condition not in self.checked:
            self.checked.add(condition)
            self.lines.append(f"if {condition}: _raise({error})")

    def const(self, key, value) -> str:
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"k{len(self.consts)}"
            self.ns[name] = value
        return name

    def expr(self, e: Expr) -> str:
        num = self.poly(e._num)
        if e.den_is_one():
            return num
        den = self.poly(e._den)
        self.check(f"abs({den}) < {_TINY!r}", "_Singular, 'denominator magnitude below 1e-300'")
        return self.define(f"{num} / {den}")

    def poly(self, p) -> str:
        """p as `0j + c*x**e*... + ...`, which adds and multiplies in the
        walk's order.  Neither operation raises, so it is enough that the
        atoms, checks and powers it reads come first, in walk order."""
        terms = []
        for coeff, factors in p:
            product = [self.const(("coeff", coeff.key), coeff.to_complex())]
            for a, exp in factors:
                product.append(self.power(self.atom(a), exp))
            terms.append(" * ".join(product))
        total = "0j"
        for i in range(0, len(terms), _TERMS_PER_LINE):
            total = self.define(" + ".join([total] + terms[i : i + _TERMS_PER_LINE]))
        return self.define(total) if not terms else total

    def power(self, v: str, exp) -> str:
        if exp < 0:
            self.check(
                f"abs({v}) < {_TINY!r}",
                "_Singular, 'division by a value of magnitude below 1e-300'",
            )
        x = repr(exp) if type(exp) is int else self.const(("exp", exp), exp)
        return self.define(f"{v}**{x}")

    def symbol(self, name: str) -> str:
        if name == self.dependent:
            return self.define("complex(X)")
        q = repr(name)
        return self.define(f"complex(V[{q}]) if {q} in V else _raise(_Unbound, {q})")

    def atom(self, a) -> str:
        if isinstance(a, Symbol):
            return self.symbol(a.name)
        if isinstance(a, RepAtom):
            return self.expr(a.expansion)
        if isinstance(a, PowAtom):
            base = self.expr(a.base)
            x = self.const(("float", a.exp), float(a.exp))
            return self.define(
                f"complex({base}.real ** {x}) if {base}.imag == 0 and {base}.real > 0 "
                f"else _exp({x} * _log({base})) if {base} else 0j"
            )
        if not isinstance(a, PartialAtom):
            raise EvaluationError(f"cannot evaluate atom {a!r}")
        q = repr(a.fn.name)
        fn = self.define(f"O.get({q})")
        self.check(f"{fn} is None", f"_Unbound, {q}")
        args = ", ".join([self.symbol(s.name) for s in a.args])
        if not a.orders:
            return self.define(f"complex({fn}.fn({args}))")
        idx = tuple((s.name, n) for s, n in a.orders)
        analytic = self.define(f"{fn}.partials.get({self.const(('index', idx), idx)})")
        names = [s.name for s in a.args]
        fd = (
            f"_fd_partial({fn}.fn, {self.const(('names', tuple(names)), names)}, [{args}], "
            f"{self.const(('orders', idx), list(idx))}, {self.const('step', DEFAULT_FD_STEP)})"
        )
        return self.define(f"complex({analytic}({args})) if {analytic} is not None else {fd}")


def _fd_partial(fn, names, args, orders, h) -> complex:
    if not orders:
        return complex(fn(*args))
    (name, n), rest = orders[0], orders[1:]
    if n > 1:
        rest = [(name, n - 1)] + rest
    i = names.index(name)

    def shifted(delta):
        pt = list(args)
        pt[i] = pt[i] + delta
        return _fd_partial(fn, names, pt, rest, h)

    return (shifted(h) - shifted(-h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Finite-difference whole derivative along the constraint surface
# ---------------------------------------------------------------------------


def fd_whole(
    e,
    v,
    ctx: DependencyContext,
    b: NumericBinding,
    h: float = DEFAULT_FD_STEP,
    sign: int = +1,
) -> complex:
    """Centered difference of e composed with the constraint embedding:
    dependents are re-solved (same sheet, nearest root) at each displaced
    point before evaluating."""
    if h <= 0:
        raise EvaluationError("finite-difference step must be positive")
    from .depctx import solve_dependents

    name = v.name if hasattr(v, "name") else str(v)
    prog = _program(Expr._coerce(e))
    near = {u.name: complex(b.values[u.name]).real for u in ctx.dependents if u.name in b.values}

    def at(delta: float) -> complex:
        vals = dict(b.values)
        vals[name] = complex(vals[name]).real + delta
        vals.update(solve_dependents(ctx, vals, sign=sign, near=near or None))
        return prog(vals, b.opaques)

    return (at(h) - at(-h)) / (2.0 * h)


def fd_commutator_pE(
    fclosure: Callable[..., complex],
    i: int,
    b: NumericBinding,
    h: float = DEFAULT_NESTED_FD_STEP,
    dim: int = 3,
) -> complex:
    """Nested-FD commutator of the whole momentum derivative and the plain
    energy derivative acting on an explicit function f(p1..pd, E).

    Realizes W_i g = d_i g + (p_i/E) dE g on closures and returns
    (W_i dE - dE W_i) f at the binding (off-shell allowed)."""
    names = [f"p{k}" for k in range(1, dim + 1)] + ["E"]
    point = [complex(b.values[n]).real for n in names]
    if abs(point[-1]) < 1e-12:
        raise SingularityError("E too close to zero for the nested-FD commutator")

    def d(fn, idx):
        def out(*args):
            lo = list(args)
            hi = list(args)
            hi[idx] += h
            lo[idx] -= h
            return (fn(*hi) - fn(*lo)) / (2.0 * h)

        return out

    dE = lambda fn: d(fn, dim)
    di = lambda fn: d(fn, i - 1)

    def whole_i(fn):
        dfn_i = di(fn)
        dfn_E = dE(fn)

        def out(*args):
            return dfn_i(*args) + (args[i - 1] / args[dim]) * dfn_E(*args)

        return out

    lhs = whole_i(dE(fclosure))
    rhs = dE(whole_i(fclosure))
    return complex(lhs(*point) - rhs(*point))


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------


class FailureDiagnostic:
    __slots__ = ("sample_index", "binding", "lhs", "rhs", "error")

    def __init__(self, sample_index: int, binding: Dict[str, complex], lhs: Optional[complex],
                 rhs: Optional[complex], error: Optional[str] = None):
        self.sample_index, self.binding, self.lhs, self.rhs = sample_index, binding, lhs, rhs
        self.error = error


class VerificationReport:
    __slots__ = ("samples", "failures", "max_abs_err", "max_rel_err", "tol_abs", "tol_rel",
                 "diagnostics")

    def __init__(self, samples: int, failures: int, max_abs_err: float, max_rel_err: float,
                 tol_abs: float, tol_rel: float,
                 diagnostics: Optional[List[FailureDiagnostic]] = None):
        self.samples, self.failures = samples, failures
        self.max_abs_err, self.max_rel_err = max_abs_err, max_rel_err
        self.tol_abs, self.tol_rel = tol_abs, tol_rel
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "failures": self.failures,
            "max_abs_err": _fmt_float(self.max_abs_err),
            "max_rel_err": _fmt_float(self.max_rel_err),
            "tol_abs": _fmt_float(self.tol_abs),
            "tol_rel": _fmt_float(self.tol_rel),
            "verdict": self.verdict,
            "diagnostics": [
                {
                    "sample": d.sample_index,
                    "binding": {k: _fmt_complex(v) for k, v in sorted(d.binding.items())},
                    "lhs": _fmt_complex(d.lhs),
                    "rhs": _fmt_complex(d.rhs),
                    "error": d.error,
                }
                for d in self.diagnostics
            ],
        }


def _fmt_float(x) -> str:
    return repr(float(x))

def _fmt_complex(z) -> Optional[str]:
    if z is None:
        return None
    return repr(complex(z))


class SamplerSpec:
    """Sampling strategy: 'on-shell' with a sheet sign, or 'box' drawing
    every non-opaque symbol from fixed ranges (dependents included,
    off-shell, sign times uniform in [1/2, 2]).  Each kind has one draw
    from a sample's own stream, which draw and verify_identity both use."""

    __slots__ = ("kind", "sign")

    def __init__(self, kind: str = "on-shell", sign: int = +1):  # kind: "on-shell" | "box"
        if kind not in ("on-shell", "box"):
            raise ValueError(f"unknown sampler kind {kind!r}")
        if sign not in (+1, -1):
            raise ValueError(f"sampler sign must be +1 or -1, not {sign!r}")
        self.kind, self.sign = kind, sign

    def draw(self, ctx: DependencyContext, index: int, seed: int) -> Dict[str, complex]:
        """Sample `index` of `seed`, the one verify_identity checks there."""
        return next(self._samples(ctx, seed, index, index + 1))

    def _samples(self, ctx: DependencyContext, seed: int, start: int, stop: int):
        """The samples of indices start..stop-1, each drawn from its own
        stream when it is asked for."""
        from .depctx import _draw_box, _draw_on_shell, _streams

        draw = _draw_on_shell if self.kind == "on-shell" else _draw_box
        return (draw(ctx, rng, self.sign) for rng in _streams(seed, start, stop))


def verify_identity(
    lhs,
    rhs,
    ctx: DependencyContext,
    sampler: SamplerSpec,
    tol_rel: float = 1e-9,
    tol_abs: float = 1e-8,
    seed: int = 0,
    samples: int = 100,
    opaques: Optional[Dict[str, OpaqueFn]] = None,
) -> VerificationReport:
    """Evaluate both sides at seeded samples, each drawn, checked and dropped
    before the next; a sample fails when both the absolute and the relative
    error exceed their tolerances.  Evaluation errors count as failures; the
    report keeps the diagnostics of the first 10."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if not (0 <= tol_rel < cmath.inf and 0 <= tol_abs < cmath.inf):
        raise ValueError(f"tolerances must be finite and non-negative, not {tol_rel}, {tol_abs}")
    failures = 0
    max_abs = 0.0
    max_rel = 0.0
    diags: List[FailureDiagnostic] = []
    lhs_at, rhs_at = _program(Expr._coerce(lhs)), _program(Expr._coerce(rhs))
    closures = opaques or {}
    for k, vals in enumerate(sampler._samples(ctx, seed, 0, samples)):
        try:
            lv = lhs_at(vals, closures)
            rv = rhs_at(vals, closures)
        except EvaluationError as exc:
            failures += 1
            if len(diags) < 10:
                diags.append(FailureDiagnostic(k, vals, None, None, error=str(exc)))
            continue
        abs_err = abs(lv - rv)
        rel_err = abs_err / max(abs(lv), abs(rv), 1e-30)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        if abs_err > tol_abs and rel_err > tol_rel:
            failures += 1
            if len(diags) < 10:
                diags.append(FailureDiagnostic(k, vals, lv, rv))
    return VerificationReport(
        samples=samples,
        failures=failures,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        diagnostics=diags,
    )


# ---------------------------------------------------------------------------
# Shipped opaque test closures (smooth, analytically differentiable)
# ---------------------------------------------------------------------------


def shipped_closures(dim: int = 3) -> Dict[str, OpaqueFn]:
    """Three concrete stand-ins for the opaque function f(p1..pd, E):
    polynomial E^2*p1, rational p1/(1+E^2), exponential exp(E)*p1."""
    import cmath as _cm

    def poly(*a):
        return a[dim] ** 2 * a[0]

    def rational(*a):
        return a[0] / (1.0 + a[dim] ** 2)

    def expo(*a):
        return _cm.exp(a[dim]) * a[0]

    E = "E"
    p1 = "p1"
    poly_partials = {
        ((E, 1),): lambda *a: 2.0 * a[dim] * a[0],
        ((E, 2),): lambda *a: 2.0 * a[0],
        ((p1, 1),): lambda *a: a[dim] ** 2,
        ((E, 1), (p1, 1)): lambda *a: 2.0 * a[dim],
    }
    rational_partials = {
        ((E, 1),): lambda *a: -2.0 * a[dim] * a[0] / (1.0 + a[dim] ** 2) ** 2,
        ((E, 2),): lambda *a: a[0] * (6.0 * a[dim] ** 2 - 2.0) / (1.0 + a[dim] ** 2) ** 3,
        ((p1, 1),): lambda *a: 1.0 / (1.0 + a[dim] ** 2),
        ((E, 1), (p1, 1)): lambda *a: -2.0 * a[dim] / (1.0 + a[dim] ** 2) ** 2,
    }
    expo_partials = {
        ((E, 1),): lambda *a: _cm.exp(a[dim]) * a[0],
        ((E, 2),): lambda *a: _cm.exp(a[dim]) * a[0],
        ((p1, 1),): lambda *a: _cm.exp(a[dim]),
        ((E, 1), (p1, 1)): lambda *a: _cm.exp(a[dim]),
    }
    return {
        "poly": OpaqueFn(poly, poly_partials),
        "rational": OpaqueFn(rational, rational_partials),
        "exponential": OpaqueFn(expo, expo_partials),
    }
