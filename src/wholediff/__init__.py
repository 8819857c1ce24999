"""Symbolic whole-partial derivatives, operator commutators, and their
numeric verification.

Submodules load on first use: `from wholediff import X` (or `wholediff.X`)
imports only the submodule that defines X, so a process pays to compile
just the modules it runs.
"""

import importlib

_EXPORTS = {
    "depctx": ("DependencyContext", "Diagnostic", "implicit_partial"),
    "diffop": (
        "DerivativeGenerator",
        "DifferentialOperator",
        "apply",
        "commutator",
        "compose",
        "expand_to_plain",
        "op_equals",
    ),
    "errors": (
        "ContextError",
        "ContextMismatchError",
        "DegenerateConstraintError",
        "EvaluationError",
        "ExpressionError",
        "MissingRepresentationError",
        "NormalOrderError",
        "ParseError",
        "RootSolveError",
        "SingularityError",
        "SubstitutionCycleError",
        "UnboundSymbolError",
        "UnsupportedExpressionError",
        "WholediffError",
    ),
    "numcheck": (
        "NumericBinding",
        "OpaqueFn",
        "SamplerSpec",
        "VerificationReport",
        "evaluate",
        "fd_commutator_pE",
        "fd_whole",
        "sample_on_shell",
        "shipped_closures",
        "solve_dependents",
        "verify_identity",
    ),
    "physcases": (
        "MassShellScenario",
        "PositionCommutatorTable",
        "RetardedScenario",
        "build_mass_shell",
        "build_retarded",
        "momentum_energy_commutator",
        "momentum_momentum_commutator",
        "position_commutator_table",
    ),
    "scalars": ("QC",),
    "symexpr": (
        "CommutatorTable",
        "Expr",
        "Symbol",
        "SymbolKind",
        "equals_canonical",
        "normal_order",
        "substitute",
    ),
    "textio": (
        "SourceSpan",
        "parse_context",
        "parse_expr",
        "parse_expr_in_context",
        "parse_operator",
        "print_expr",
        "print_operator",
        "serialize_context",
    ),
    "wholederiv": (
        "finalize",
        "mixed_difference",
        "plain_partial",
        "whole_partial",
        "whole_partial_wrt_dependent",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    """Import an exported name's submodule when the name is first read.  A
    submodule read as an attribute (`wholediff.numcheck`) is imported too;
    any other name raises AttributeError, which `from wholediff import
    <submodule>` relies on to fall back to the import system."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
