"""The package namespace: `from wholediff import X` for every exported
name, with submodules loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wholediff
from test_cli import MASS_SHELL_SRC

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


@pytest.mark.parametrize("argv, absent", [
    (["derive", "{ctx}", "--expr", "f", "--wrt", "p1"],
     {"dataclasses", "inspect", "json", "wholediff.numcheck"}),
    (["commutator", "{ctx}", "--a", "W[p1]", "--b", "D[E]", "--apply", "f"],
     {"dataclasses", "inspect", "json", "wholediff.numcheck"}),
    (["scenario", "mass-shell", "--dim", "1", "--out", "{out}"],
     {"dataclasses", "inspect", "json", "wholediff.numcheck"}),
    (["verify", "{ctx}", "--lhs", "E^2", "--rhs", "p1^2+p2^2+p3^2+m^2", "--samples", "50"],
     {"dataclasses", "inspect"}),
], ids=["derive", "commutator", "scenario", "verify"])
def test_cli_start_up_loads_no_code_generation_or_json(tmp_path, argv, absent):
    """A fresh process pays for every module it imports: a command loads
    neither dataclasses nor inspect, text output does not load json, and
    only verify loads the numeric checker with its sampling code."""
    ctx = tmp_path / "mass-shell.ctx"
    ctx.write_text(MASS_SHELL_SRC)
    argv = [a.format(ctx=ctx, out=tmp_path / "out") for a in argv]
    out = run_fresh(
        "import sys\n"
        "from wholediff.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    loaded = set(out.splitlines()[-1].split())
    assert "wholediff.cli" in loaded
    assert not absent & loaded
def test_star_import_in_a_fresh_process():
    out = run_fresh(
        "from wholediff import *\n"
        "import wholediff\n"
        "print(all(globals()[n] is getattr(wholediff, n) for n in wholediff.__all__))\n"
    )
    assert out.strip() == "True"


def test_validate_samples_a_disagreeing_representation_in_a_fresh_process():
    """parse_context loads the sampler only for validate's numeric check: a
    representation that disagrees with its constraint on the shell is still
    warned about."""
    src = MASS_SHELL_SRC.replace("= p1/E", "= 2*p1/E")
    out = run_fresh(
        "import sys\n"
        "from wholediff.textio import parse_context\n"
        f"diags = parse_context({src!r}).validate()\n"
        "print([d.level for d in diags], 'disagrees' in diags[0].message)\n"
        "print('wholediff.numcheck' in sys.modules)\n"
    )
    assert out.splitlines() == ["['warning'] True", "True"]


def test_depctx_reads_only_the_two_sampling_names_from_numcheck():
    from wholediff import depctx, numcheck

    assert depctx.sample_on_shell is numcheck.sample_on_shell
    assert depctx.solve_dependents is numcheck.solve_dependents
    for name in ("_streams", "_brent"):
        with pytest.raises(AttributeError, match=name):
            getattr(depctx, name)
