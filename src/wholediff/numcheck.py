"""Numeric oracle: expression evaluation, finite-difference derivatives
along the constraint surface, nested-FD commutators, and identity
verification reports."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .depctx import DependencyContext, _draw_free, sample_on_shell, solve_dependents
from .errors import (
    EvaluationError,
    SingularityError,
    UnboundSymbolError,
)
from .symexpr import (
    Expr,
    OpaqueAtom,
    PartialAtom,
    PowAtom,
    RepAtom,
    SymbolAtom,
)

DEFAULT_FD_STEP = 1e-5
DEFAULT_NESTED_FD_STEP = 1e-4
_TINY = 1e-300


@dataclass
class OpaqueFn:
    """Concrete stand-in for an opaque function symbol.

    fn maps the argument values (in declared order) to a complex number.
    partials optionally maps a multi-index, given as a sorted tuple of
    (argument name, order) pairs, to an analytic derivative closure; plain
    partial atoms without an analytic entry are evaluated by nested
    central differences of fn."""

    fn: Callable[..., complex]
    partials: Dict[tuple, Callable[..., complex]] = field(default_factory=dict)


@dataclass
class NumericBinding:
    """Map from symbol names to numeric values plus opaque closures."""

    values: Dict[str, complex] = field(default_factory=dict)
    opaques: Dict[str, OpaqueFn] = field(default_factory=dict)

    def value(self, name: str) -> complex:
        if name not in self.values:
            raise UnboundSymbolError(name)
        return complex(self.values[name])


def evaluate(e, b: NumericBinding) -> complex:
    """IEEE-double evaluation of an expression under a binding."""
    e = Expr._coerce(e)
    num = _eval_poly(e._num, b)
    if e.den_is_one():
        return num
    den = _eval_poly(e._den, b)
    if abs(den) < _TINY:
        raise SingularityError("denominator magnitude below 1e-300")
    return num / den


def _eval_poly(p, b: NumericBinding) -> complex:
    total = 0j
    for c, f in p:
        term = c.to_complex()
        for a, exp in f:
            v = _eval_atom(a, b)
            if exp < 0 and abs(v) < _TINY:
                raise SingularityError("division by a value of magnitude below 1e-300")
            term *= v**exp
        total += term
    return total


def _eval_atom(a, b: NumericBinding) -> complex:
    if isinstance(a, SymbolAtom):
        return b.value(a.symbol.name)
    if isinstance(a, PowAtom):
        base = evaluate(a.base, b)
        if base == 0 and a.exp < 0:
            raise SingularityError("zero base with negative exponent")
        return _cpow(base, a.exp)
    if isinstance(a, OpaqueAtom):
        closure = b.opaques.get(a.fn.name)
        if closure is None:
            raise UnboundSymbolError(a.fn.name)
        args = [b.value(s.name) for s in a.args]
        return complex(closure.fn(*args))
    if isinstance(a, PartialAtom):
        closure = b.opaques.get(a.fn.name)
        if closure is None:
            raise UnboundSymbolError(a.fn.name)
        args = [b.value(s.name) for s in a.args]
        idx = tuple((s.name, n) for s, n in a.orders)
        analytic = closure.partials.get(idx)
        if analytic is not None:
            return complex(analytic(*args))
        names = [s.name for s in a.args]
        return _fd_partial(closure.fn, names, args, list(idx), DEFAULT_FD_STEP)
    if isinstance(a, RepAtom):
        return evaluate(a.expansion, b)
    raise EvaluationError(f"cannot evaluate atom {a!r}")


def _cpow(base: complex, exp: Fraction) -> complex:
    if base.imag == 0 and base.real > 0:
        return complex(base.real ** float(exp))
    return cmath.exp(float(exp) * cmath.log(base))


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
    name = v.name if hasattr(v, "name") else str(v)

    def at(delta: float) -> complex:
        vals = {k: val for k, val in b.values.items()}
        vals[name] = complex(vals[name]).real + delta
        near = {u.name: complex(b.values[u.name]).real for u in ctx.dependents if u.name in b.values}
        solved = solve_dependents(ctx, vals, sign=sign, near=near or None)
        vals.update(solved)
        return evaluate(e, NumericBinding(values=vals, opaques=b.opaques))

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


@dataclass
class FailureDiagnostic:
    sample_index: int
    binding: Dict[str, complex]
    lhs: Optional[complex]
    rhs: Optional[complex]
    error: Optional[str] = None


@dataclass
class VerificationReport:
    samples: int
    failures: int
    max_abs_err: float
    max_rel_err: float
    tol_abs: float
    tol_rel: float
    diagnostics: List[FailureDiagnostic] = field(default_factory=list)

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


@dataclass
class SamplerSpec:
    """Sampling strategy: 'on-shell' with a sheet sign, or 'box' drawing
    every non-opaque symbol from fixed ranges (dependents included,
    off-shell, sign times uniform in [1/2, 2])."""

    kind: str = "on-shell"  # "on-shell" | "box"
    sign: int = +1

    def __post_init__(self):
        if self.kind not in ("on-shell", "box"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sampler sign must be +1 or -1, not {self.sign!r}")

    def draw(self, ctx: DependencyContext, index: int, seed: int) -> Dict[str, complex]:
        import numpy as np

        rng = np.random.default_rng([seed, index])
        vals = _draw_free(ctx, rng)
        for s in ctx.dependents:
            vals[s.name] = float(self.sign) * float(rng.uniform(0.5, 2.0))
        return vals


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
    """Evaluate both sides at seeded samples; a sample fails when both the
    absolute and the relative error exceed their tolerances.  Evaluation
    errors count as failures with diagnostics."""
    if sampler.kind == "on-shell":
        points = sample_on_shell(ctx, samples, seed, sign=sampler.sign)
    else:
        points = [sampler.draw(ctx, k, seed) for k in range(samples)]

    failures = 0
    max_abs = 0.0
    max_rel = 0.0
    diags: List[FailureDiagnostic] = []
    for k, vals in enumerate(points):
        binding = NumericBinding(values=dict(vals), opaques=dict(opaques or {}))
        try:
            lv = evaluate(lhs, binding)
            rv = evaluate(rhs, binding)
        except EvaluationError as exc:
            failures += 1
            diags.append(FailureDiagnostic(k, dict(vals), None, None, error=str(exc)))
            continue
        abs_err = abs(lv - rv)
        rel_err = abs_err / max(abs(lv), abs(rv), 1e-30)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        if abs_err > tol_abs and rel_err > tol_rel:
            failures += 1
            diags.append(FailureDiagnostic(k, dict(vals), lv, rv))
    return VerificationReport(
        samples=len(points),
        failures=failures,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        diagnostics=diags[:10],
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
