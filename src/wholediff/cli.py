"""Command-line front end: derivatives, operator commutators, scenario
presets, and numeric identity verification.

Exit codes: 0 success/verified, 1 verification failed, 2 parse or usage
error, 3 context error or an expression the engine does not support
(UnsupportedExpressionError, NormalOrderError), 4 numeric failure, 141
stdout closed before the output was written (128 + SIGPIPE).  JSON output
is a stable tree {"command", "context", "result"}; identical invocation
and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Optional

from .depctx import DependencyContext, ORDERING_MODES
from .errors import (
    ContextError,
    EvaluationError,
    ParseError,
    RootSolveError,
    WholediffError,
)
from .symexpr import Expr
from .textio import (
    SourceSpan,
    parse_context,
    parse_expr,
    parse_expr_in_context,
    parse_operator,
    print_expr,
    print_operator,
    serialize_context,
)
from .wholederiv import plain_partial, whole_partial, whole_partial_wrt_dependent

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CONTEXT = 3
EXIT_NUMERIC = 4
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_context(path: str, ordering: Optional[str] = None) -> DependencyContext:
    """Parse a context file, printing its warnings; an --ordering stands in
    for the file's ordering statement."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read context file: {exc}") from None
    return parse_context(text, ordering, _warn)


def _write_out(out_dir: str, name: str, text: str) -> str:
    """Write a scenario file into --out, creating missing directories."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise _UsageError(f"--out {out_dir} is not a directory")
    path = os.path.join(out_dir, name)
    try:
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None
    return path


def _emit(args, command: str, context_name: str, result, text_lines) -> None:
    if args.format == "json":
        import json

        doc = {"command": command, "context": context_name, "result": result}
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        for line in text_lines:
            print(line)
    sys.stdout.flush()


def _emit_expr(args, command: str, out: Expr) -> None:
    """Print a result expression, rendered once: in the requested format,
    or as text inside the JSON result."""
    if args.format == "json":
        _emit(args, command, args.ctx, {"expression": print_expr(out, "text")}, ())
    else:
        _emit(args, command, args.ctx, None, [print_expr(out, args.format)])


def _apply_target(text: str, ctx: DependencyContext) -> Expr:
    """An opaque function named bare (e.g. just `f`) means its declared
    application."""
    name = text.strip()
    for fn, fargs in ctx.opaques:
        if fn.name == name:
            return Expr.opaque(fn, fargs)
    return parse_expr_in_context(text, ctx)


# ---------------------------------------------------------------------------
# Subcommands.  Each imports the modules that only it runs, so a process
# loads no more of the package than its subcommand needs.
# ---------------------------------------------------------------------------


def cmd_derive(args) -> int:
    ctx = _load_context(args.ctx)
    e = _apply_target(args.expr, ctx)
    v = ctx.find_symbol(args.wrt)
    if v is None:
        raise ParseError(f"unknown identifier '{args.wrt}'", _span_of(args.wrt))
    if args.plain:
        out = plain_partial(e, v)
    elif ctx.is_dependent(v):
        out = whole_partial_wrt_dependent(e, v, ctx)
    elif ctx.is_independent(v):
        out = whole_partial(e, v, ctx)
    else:
        out = plain_partial(e, v)
    _emit_expr(args, "derive", out)
    return EXIT_OK


def cmd_commutator(args) -> int:
    from .diffop import apply, commutator

    ctx = _load_context(args.ctx, args.ordering)
    if args.feynman:
        from .physcases import MassShellScenario, build_mass_shell

        dim = 0
        while ctx.find_symbol(f"p{dim + 1}") is not None:
            dim += 1
        ctx = build_mass_shell(
            MassShellScenario(dimension=dim, ordering_mode=ctx.ordering_mode, feynman=True)
        )
    A = parse_operator(args.a, ctx)
    B = parse_operator(args.b, ctx)
    C = commutator(A, B)
    if args.apply is not None:
        _emit_expr(args, "commutator", apply(C, _apply_target(args.apply, ctx)))
    else:
        rendered = print_operator(C)
        _emit(args, "commutator", args.ctx, {"operator": rendered}, [rendered])
    return EXIT_OK


def cmd_scenario(args) -> int:
    from .physcases import (
        RETARDED_TP,
        MassShellScenario,
        RetardedScenario,
        build_mass_shell,
        build_retarded,
        position_commutator_table,
    )

    unread = {"mass-shell": ("trajectory",), "retarded": ("dim", "ordering", "feynman")}
    for option in unread.get(args.name, ()):
        if getattr(args, option) not in (None, False):
            raise _UsageError(f"scenario {args.name} has no use for --{option}")
    if args.name == "mass-shell":
        s = MassShellScenario(
            dimension=3 if args.dim is None else args.dim,
            sign=args.sign,
            ordering_mode=args.ordering or "operator",
            feynman=args.feynman,
        )
        ctx = build_mass_shell(s)
        ctx_path = _write_out(args.out, "mass-shell.ctx", serialize_context(ctx))
        table = position_commutator_table(ctx)
        entries = [[print_operator(op) for op in row] for row in table.entries]
        result = {"ctx_file": ctx_path, "position_commutators": entries}
        lines = [f"wrote {ctx_path}", "position commutator table:"] + [
            f"  [{mu}][{nu}] = {e}" for mu, row in enumerate(entries) for nu, e in enumerate(row)]
        _emit(args, "scenario", args.name, result, lines)
        return EXIT_OK
    if args.name == "retarded":
        if args.trajectory is None:
            raise _UsageError("scenario retarded requires --trajectory")
        table: Dict[str, object] = {"tp": RETARDED_TP}
        traj = parse_expr(args.trajectory, list(table.values()), lenient=True)
        params = tuple(
            sorted((s for s in traj.symbols() if s.name != "tp"), key=lambda s: s.name)
        )
        ctx = build_retarded(RetardedScenario(trajectory=traj, parameters=params))
        ctx_path = _write_out(args.out, "retarded.ctx", serialize_context(ctx))
        reps = {
            f"d{u.name}/d{v.name}": print_expr(rep, "text")
            for (u, v), rep in sorted(ctx.representations.items(),
                                      key=lambda kv: (kv[0][0].name, kv[0][1].name))
        }
        result = {"ctx_file": ctx_path, "representations": reps}
        lines = [f"wrote {ctx_path}"] + [f"  {k} = {v}" for k, v in reps.items()]
        _emit(args, "scenario", args.name, result, lines)
        return EXIT_OK
    raise _UsageError(f"unknown scenario '{args.name}'")


def cmd_verify(args) -> int:
    from .numcheck import SamplerSpec, shipped_closures, verify_identity

    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, not {args.seed}")
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, not {args.samples}")
    for flag, tol in (("--tol", args.tol), ("--tol-abs", args.tol_abs)):
        if not 0 <= tol < float("inf"):
            raise _UsageError(f"{flag} must be finite and non-negative, not {tol}")
    ctx = _load_context(args.ctx)
    lhs = _apply_target(args.lhs, ctx)
    rhs = _apply_target(args.rhs, ctx)
    spec = SamplerSpec(kind=args.sampler, sign=args.sign)
    if args.closure not in shipped_closures():
        raise _UsageError(f"unknown closure '{args.closure}'")
    mentioned = lhs.symbols() | rhs.symbols()
    opaques = {}
    for fn, fargs in ctx.opaques:  # a shipped closure stands in for f(p1,...,pd,E) only
        names = [a.name for a in fargs]
        if names == [f"p{i}" for i in range(1, len(names))] + ["E"]:
            opaques[fn.name] = shipped_closures(len(names) - 1)[args.closure]
        elif fn in mentioned:
            raise _UsageError(f"closure '{args.closure}' stands in for f(p1,...,pd,E) only, "
                              f"not for opaque {fn.name}({','.join(names)})")
    report = verify_identity(
        lhs,
        rhs,
        ctx,
        spec,
        tol_rel=args.tol,
        tol_abs=args.tol_abs,
        seed=args.seed,
        samples=args.samples,
        opaques=opaques,
    )
    result = report.to_json_dict()
    lines = [
        f"samples: {report.samples}",
        f"failures: {report.failures}",
        f"max_abs_err: {result['max_abs_err']}",
        f"max_rel_err: {result['max_rel_err']}",
        f"verdict: {report.verdict}",
    ]
    _emit(args, "verify", args.ctx, result, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _span_of(text: str):
    return SourceSpan(0, len(text))


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # argparse reads a word that starts with '-' as an option unless it looks
        # like a negative number, which means only -12 or -1.5.  Read every word
        # that starts with one '-' and names no option (-p1*f(p1,E), -1e-9) as a
        # value, as it reads -12.
        self._negative_number_matcher = re.compile("-(?!-)")

    def _get_option_tuples(self, option_string):
        # Only an exact -h is help: -h1*f(p1,E) is a value, not -h with 1*f(p1,E).
        return [] if option_string[1] != "-" else super()._get_option_tuples(option_string)

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="wholediff", description=__doc__)
    sub = p.add_subparsers(dest="subcommand")

    def common(sp):
        sp.add_argument("--format", choices=("text", "json", "latex"), default="text")

    d = sub.add_parser("derive", help="whole or plain partial derivative")
    d.add_argument("ctx")
    d.add_argument("--expr", required=True)
    d.add_argument("--wrt", required=True)
    d.add_argument("--plain", action="store_true")
    common(d)
    d.set_defaults(fn=cmd_derive)

    c = sub.add_parser("commutator", help="commutator of two operator literals")
    c.add_argument("ctx")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.add_argument("--apply", default=None)
    c.add_argument("--ordering", choices=ORDERING_MODES, default=None)
    c.add_argument("--feynman", action="store_true")
    common(c)
    c.set_defaults(fn=cmd_commutator)

    s = sub.add_parser("scenario", help="prebuilt scenario bundles")
    s.add_argument("name")
    s.add_argument("--dim", type=int, default=None, help="mass-shell dimension (default 3)")
    s.add_argument(
        "--sign", type=int, choices=(1, -1), default=1,
        help="mass-shell sheet; the file is the same on both sheets, "
        "the sheet is chosen by verify --sign",
    )
    s.add_argument("--ordering", choices=ORDERING_MODES, default=None)
    s.add_argument("--feynman", action="store_true")
    s.add_argument("--trajectory", default=None)
    s.add_argument("--out", default=".")
    common(s)
    s.set_defaults(fn=cmd_scenario)

    v = sub.add_parser("verify", help="numeric identity verification")
    v.add_argument("ctx")
    v.add_argument("--lhs", required=True)
    v.add_argument("--rhs", required=True)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--tol-abs", type=float, default=1e-8)
    v.add_argument("--sampler", choices=("on-shell", "box"), default="on-shell")
    v.add_argument("--sign", type=int, choices=(1, -1), default=1)
    v.add_argument("--closure", default="poly")
    v.add_argument("--seed", type=int, default=0)
    common(v)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required")
        # Only expressions have a LaTeX form: derive and commutator --apply print one.
        if args.format == "latex" and not (args.fn is cmd_derive or getattr(args, "apply", None)):
            raise _UsageError(f"{args.subcommand} has no LaTeX output")
        return args.fn(args)
    except BrokenPipeError:  # stdout was closed: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ContextError as exc:
        print(f"context error: {exc}", file=sys.stderr)
        return EXIT_CONTEXT
    except (EvaluationError, RootSolveError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WholediffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTEXT


if __name__ == "__main__":
    sys.exit(main())
