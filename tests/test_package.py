"""The package namespace: `from wholediff import X` for every exported
name, with submodules loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wholediff

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Every name the package exported when it imported its submodules eagerly.
EXPORTED = """
    DependencyContext Diagnostic implicit_partial sample_on_shell solve_dependents
    DerivativeGenerator DifferentialOperator apply commutator compose expand_to_plain
    op_equals ContextError ContextMismatchError DegenerateConstraintError EvaluationError
    ExpressionError MissingRepresentationError NormalOrderError ParseError RootSolveError
    SingularityError SubstitutionCycleError UnboundSymbolError UnsupportedExpressionError
    WholediffError NumericBinding OpaqueFn SamplerSpec VerificationReport evaluate
    fd_commutator_pE fd_whole shipped_closures verify_identity MassShellScenario
    PositionCommutatorTable RetardedScenario build_mass_shell build_retarded
    momentum_energy_commutator momentum_momentum_commutator position_commutator_table QC
    CommutatorTable Expr Symbol SymbolKind equals_canonical normal_order substitute
    SourceSpan parse_context parse_expr parse_expr_in_context parse_operator print_expr
    print_operator serialize_context finalize mixed_difference plain_partial whole_partial
    whole_partial_wrt_dependent
""".split()


def run_fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_exported_names():
    assert sorted(wholediff.__all__) == sorted(EXPORTED)
    assert len(set(EXPORTED)) == len(EXPORTED)


def test_each_name_is_its_submodule_object():
    for name in EXPORTED:
        obj = getattr(wholediff, name)
        assert obj.__module__.startswith("wholediff."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_name():
    ns = {}
    exec("from wholediff import *", ns)
    assert set(EXPORTED) <= set(ns)
    assert all(ns[name] is getattr(wholediff, name) for name in EXPORTED)


def test_submodules_resolve_as_attributes_and_by_from_import():
    from wholediff import cli, numcheck

    assert wholediff.numcheck is numcheck is sys.modules["wholediff.numcheck"]
    assert cli is sys.modules["wholediff.cli"]
    assert "Expr" in dir(wholediff) and "numcheck" in dir(wholediff)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wholediff.no_such_name


def test_import_loads_no_submodule_until_a_name_is_read():
    out = run_fresh(
        "import sys, wholediff\n"
        "print(sorted(m for m in sys.modules if m.startswith('wholediff.')))\n"
        "wholediff.Expr\n"
        "print(sorted(m for m in sys.modules if m.startswith('wholediff.')))\n"
        "print(wholediff.numcheck.__name__)\n"
    )
    before, after, numcheck = out.splitlines()
    assert before == "[]"
    assert after == "['wholediff.errors', 'wholediff.scalars', 'wholediff.symexpr']"
    assert numcheck == "wholediff.numcheck"


def test_star_import_in_a_fresh_process():
    out = run_fresh(
        "from wholediff import *\n"
        "import wholediff\n"
        "print(all(globals()[n] is getattr(wholediff, n) for n in wholediff.__all__))\n"
    )
    assert out.strip() == "True"
