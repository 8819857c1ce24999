"""Symbolic whole-partial derivatives, operator commutators, and their
numeric verification."""

from .depctx import (
    DependencyContext,
    Diagnostic,
    implicit_partial,
    sample_on_shell,
    solve_dependents,
)
from .diffop import (
    DerivativeGenerator,
    DifferentialOperator,
    apply,
    commutator,
    compose,
    expand_to_plain,
    op_equals,
)
from .errors import (
    ContextError,
    ContextMismatchError,
    DegenerateConstraintError,
    EvaluationError,
    ExpressionError,
    MissingRepresentationError,
    NormalOrderError,
    ParseError,
    RootSolveError,
    SingularityError,
    SubstitutionCycleError,
    UnboundSymbolError,
    UnsupportedExpressionError,
    WholediffError,
)
from .numcheck import (
    NumericBinding,
    OpaqueFn,
    SamplerSpec,
    VerificationReport,
    evaluate,
    fd_commutator_pE,
    fd_whole,
    shipped_closures,
    verify_identity,
)
from .physcases import (
    MassShellScenario,
    PositionCommutatorTable,
    RetardedScenario,
    build_mass_shell,
    build_retarded,
    momentum_energy_commutator,
    momentum_momentum_commutator,
    position_commutator_table,
)
from .scalars import QC
from .symexpr import (
    CommutatorTable,
    Expr,
    Symbol,
    SymbolKind,
    equals_canonical,
    normal_order,
    substitute,
)
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
from .wholederiv import (
    finalize,
    mixed_difference,
    plain_partial,
    whole_partial,
    whole_partial_wrt_dependent,
)

__version__ = "0.1.0"
