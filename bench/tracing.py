"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the wholediff modules from
outside the package: every binding of a wrapped function in any wholediff
module is replaced, so calls through names imported with
``from .x import y`` are caught as well.  Each call records one span
(name, start, end, parent span, op id) in flat arrays kept in memory; the
spans are written out once, when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped to record a span; after(args, result) runs once
        the span is closed, to take counts from the call."""
        nid = self.name_id(name)
        stack = self.stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = _perf()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self, modules, name: str, owner, attr: str, after=None) -> None:
        """Wrap owner.attr and rebind every module-level reference to it."""
        orig = getattr(owner, attr)
        wrapped = self.wrap(name, orig, after)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per span name: (calls, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def calls_under(self, child: str, parent_name: str) -> int:
        """Number of `child` spans whose direct parent is a `parent_name` span."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        mask = (name == self._ids[child]) & (parent >= 0)
        return int(np.count_nonzero(name[parent[mask]] == self._ids[parent_name]))

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install_layers(tracer: Tracer, mods) -> None:
    """Wrap the layer boundaries that the per-layer metrics name."""
    import scipy.optimize

    modules = mods.all_modules
    sx, wdv, dop = mods.symexpr, mods.wholederiv, mods.diffop
    dep, nc, tio, phys = mods.depctx, mods.numcheck, mods.textio, mods.physcases

    def term_count(e):
        return len(e._num) + (0 if e.den_is_one() else len(e._den))

    def on_finalize(args, out):
        tracer.count("wholederiv.raw_terms", term_count(sx.Expr._coerce(args[0])))
        tracer.count("wholederiv.final_terms", term_count(out))

    def on_sample(args, out):
        tracer.count("depctx.accepted_samples", len(out))

    for attr in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    ):
        tracer.install(modules, "symexpr.expr_arith", sx.Expr, attr)
    tracer.install(modules, "symexpr.diff_plain", sx.Expr, "diff_plain")
    for fn in ("expand_rep_atoms", "normal_order", "equals_canonical"):
        tracer.install(modules, f"symexpr.{fn}", sx, fn)
    tracer.install(modules, "wholederiv.finalize", wdv, "finalize", on_finalize)
    tracer.install(modules, "wholederiv.whole_partial_raw", wdv, "whole_partial_raw")
    tracer.install(modules, "depctx.representation", dep.DependencyContext, "representation")
    tracer.install(modules, "diffop.compose", dop, "compose")
    tracer.install(
        modules, "diffop.expand_to_plain", dop, "expand_to_plain",
        lambda args, out: tracer.count("diffop.plain_terms", len(out.terms)),
    )
    tracer.install(modules, "diffop.op_equals", dop, "op_equals")
    tracer.install(modules, "diffop.apply", dop, "apply")
    tracer.install(modules, "physcases.position_commutator_table", phys, "position_commutator_table")
    tracer.install(modules, "depctx.sample_on_shell", dep, "sample_on_shell", on_sample)
    tracer.install(modules, "depctx.solve_dependents", dep, "solve_dependents")
    # _solve_one imports brentq from scipy.optimize at each call.
    tracer.install([], "depctx.brentq", scipy.optimize, "brentq")
    tracer.install(modules, "numcheck.evaluate", nc, "evaluate")
    tracer.install(modules, "numcheck.fd_whole", nc, "fd_whole")
    tracer.install(modules, "numcheck.fd_commutator_pE", nc, "fd_commutator_pE")
    tracer.install(modules, "numcheck.verify_identity", nc, "verify_identity")
    for fn in ("parse_expr", "parse_expr_in_context", "parse_operator", "parse_context"):
        tracer.install(modules, "textio.parse", tio, fn)
    for fn in ("print_expr", "print_operator", "serialize_context"):
        tracer.install(modules, "textio.print", tio, fn)


# (metric name, unit); `.calls` and `.self_s` are read from the spans of the
# name before them, the rest are counts or measured by the caller.
LAYER_METRICS = [
    ("symexpr.expr_arith.calls", "count"),
    ("symexpr.expr_arith.self_s", "s"),
    ("symexpr.diff_plain.calls", "count"),
    ("symexpr.diff_plain.self_s", "s"),
    ("symexpr.expand_rep_atoms.self_s", "s"),
    ("symexpr.normal_order.self_s", "s"),
    ("symexpr.equals_canonical.calls", "count"),
    ("symexpr.equals_canonical.self_s", "s"),
    ("wholederiv.finalize.calls", "count"),
    ("wholederiv.finalize.self_s", "s"),
    ("wholederiv.whole_partial_raw.calls", "count"),
    ("wholederiv.whole_partial_raw.self_s", "s"),
    ("depctx.representation.calls", "count"),
    ("depctx.representation.self_s", "s"),
    ("diffop.compose.calls", "count"),
    ("diffop.compose.self_s", "s"),
    ("diffop.expand_to_plain.self_s", "s"),
    ("diffop.op_equals.self_s", "s"),
    ("diffop.apply.self_s", "s"),
    ("physcases.position_commutator_table.self_s", "s"),
    ("depctx.sample_on_shell.self_s", "s"),
    ("depctx.solve_dependents.calls", "count"),
    ("depctx.solve_dependents.self_s", "s"),
    ("depctx.brentq.calls", "count"),
    ("depctx.draws_per_sample", "draws/sample"),
    ("numcheck.evaluate.calls", "count"),
    ("numcheck.evaluate.self_s", "s"),
    ("numcheck.fd_whole.self_s", "s"),
    ("numcheck.verify_identity.self_s", "s"),
    ("numcheck.eval_failures", "count"),
    ("textio.parse.self_s", "s"),
    ("textio.print.self_s", "s"),
    ("cli.startup_s", "s"),
    ("wholederiv.raw_terms", "count"),
    ("wholederiv.final_terms", "count"),
    ("diffop.plain_terms", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def layer_values(tracer: Tracer) -> dict:
    """Every per-layer metric the spans and the tracer's counts give; the
    caller fills in cli.startup_s, trace.overhead_ratio and the workload's
    own counts."""
    spans = tracer.summary()
    out = {metric: 0 for metric, _unit in LAYER_METRICS}
    for metric, _unit in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = spans.get(span, (0, 0.0))[0]
        elif field == "self_s":
            out[metric] = spans.get(span, (0, 0.0))[1]
    accepted = tracer.counts.get("depctx.accepted_samples", 0)
    draws = tracer.calls_under("depctx.solve_dependents", "depctx.sample_on_shell")
    out["depctx.draws_per_sample"] = draws / accepted if accepted else 0.0
    for key in ("wholederiv.raw_terms", "wholederiv.final_terms", "diffop.plain_terms"):
        out[key] = tracer.counts.get(key, 0)
    return out
