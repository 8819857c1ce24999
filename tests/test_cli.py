import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import wholediff.cli
from wholediff import parse_context
from wholediff.cli import build_parser, main

MASS_SHELL_SRC = """\
independent p1 p2 p3
param m
dependent E
constraint E^2 - p1^2 - p2^2 - p3^2 - m^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
representation dE/dp3 = p3/E
opaque f(p1,p2,p3,E)
"""


@pytest.fixture()
def ctx_file(tmp_path):
    path = tmp_path / "massshell.ctx"
    path.write_text(MASS_SHELL_SRC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_whole(ctx_file, capsys):
    code, out, _ = run(capsys, "derive", ctx_file, "--expr", "f", "--wrt", "p1")
    assert code == 0
    assert out.strip() == "p1*D[f,E]/E + D[f,p1]"


def test_derive_representation(ctx_file, capsys):
    code, out, _ = run(capsys, "derive", ctx_file, "--expr", "E", "--wrt", "p1")
    assert code == 0
    assert out.strip() == "p1/E"


def test_derive_plain_flag(ctx_file, capsys):
    code, out, _ = run(capsys, "derive", ctx_file, "--expr", "E", "--wrt", "p1", "--plain")
    assert code == 0
    assert out.strip() == "0"


def test_derive_unknown_variable_exit2(ctx_file, capsys):
    code, _, err = run(capsys, "derive", ctx_file, "--expr", "f", "--wrt", "q")
    assert code == 2
    assert "q" in err and "at 0..1" in err


def test_commutator_apply(ctx_file, capsys):
    code, out, _ = run(
        capsys, "commutator", ctx_file, "--a", "W[p1]", "--b", "D[E]", "--apply", "f"
    )
    assert code == 0
    assert out.strip() == "p1*D[f,E]/E^2"


def test_commutator_commuting_zero(ctx_file, capsys):
    code, out, _ = run(
        capsys, "commutator", ctx_file, "--a", "W[p1]", "--b", "W[p2]", "--apply", "f"
    )
    assert code == 0
    assert out.strip() == "0"


def test_commutator_feynman(ctx_file, capsys):
    code, out, _ = run(
        capsys,
        "commutator", ctx_file,
        "--a", "W[p1]", "--b", "W[p2]", "--apply", "f",
        "--ordering", "paper", "--feynman",
    )
    assert code == 0
    assert out.strip() == "i*B3*D[f,E]/E^3"


@pytest.mark.parametrize("scenario", [["retarded", "--trajectory", "tp^3/10"],
                                      ["mass-shell", "--dim", "2"]])
def test_commutator_feynman_needs_three_momenta_in_the_file(tmp_path, capsys, scenario):
    """--feynman builds the mass shell with the file's momenta; a file with
    none or two of them is a context error (exit 3)."""
    assert run(capsys, "scenario", *scenario, "--out", str(tmp_path))[0] == 0
    (path,) = tmp_path.glob("*.ctx")
    code, out, err = run(capsys, "commutator", str(path), "--a", "W[x]", "--b", "W[t]",
                         "--feynman")
    assert (code, out) == (3, "")
    assert err.startswith("context error:")


def test_commutator_ordering_option_overrides_the_file(tmp_path, capsys):
    """--ordering without --feynman reorders the file's own context: the
    result is that of the file with the ordering line."""
    outs = []
    for name, extra in (("operator", ""), ("paper", "ordering paper\n")):
        path = tmp_path / f"{name}.ctx"
        path.write_text(MASS_SHELL_SRC + "commutator [p1, p2] = kappa12\n" + extra)
        argv = ["commutator", str(path), "--a", "W[p1]", "--b", "W[p2]", "--apply", "f"]
        code, out, _ = run(capsys, *argv, *(["--ordering", "paper"] if not extra else []))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "kappa12*D[f,E]/E^3\n"


def test_commuting_ordering_makes_declared_commutators_change_nothing(tmp_path, capsys):
    """Under ordering commuting every momentum commutes, so [W[p1], W[p2]] f
    is 0 whether the file or --ordering says so; the commutator line is
    still read."""
    for name, extra, option in (("option", "", ["--ordering", "commuting"]),
                                ("file", "ordering commuting\n", [])):
        path = tmp_path / f"{name}.ctx"
        path.write_text(MASS_SHELL_SRC + "commutator [p1, p2] = kappa12\n" + extra)
        code, out, _ = run(capsys, "commutator", str(path), "--a", "W[p1]", "--b", "W[p2]",
                           "--apply", "f", *option)
        assert (code, out) == (0, "0\n")
    path = tmp_path / "bad.ctx"
    path.write_text(MASS_SHELL_SRC + "commutator [p1, p2] = 1\n")
    code, _, err = run(capsys, "commutator", str(path), "--a", "W[p1]", "--b", "W[p2]",
                       "--apply", "f", "--ordering", "commuting")
    assert code == 3 and "[p1, p2]" in err


def test_noncommuting_momenta_form_one_class(tmp_path, capsys):
    """With [p1, p2] and [q1, q2] declared, q1 and p1 do not commute either:
    ordering q1 p1 needs [q1, p1], which is not declared (exit 3)."""
    path = tmp_path / "two-pairs.ctx"
    path.write_text("independent p1 p2 q1 q2\nparam m\ndependent E\n"
                    "constraint E^2 - p1^2 - p2^2 - q1^2 - q2^2 - m^2 = 0 solves E\n"
                    "opaque f(p1,p2,q1,q2,E)\n"
                    "commutator [p1,p2] = kappa\ncommutator [q1,q2] = lam\n")
    code, out, err = run(capsys, "derive", str(path), "--expr", "q1*p1*f(p1,p2,q1,q2,E)",
                         "--wrt", "p2")
    assert (code, out) == (3, "")
    assert err == "error: no commutator declared for noncommuting pair (q1, p1)\n"


def test_commutator_without_a_commutator_symbol_is_a_context_error(tmp_path, capsys):
    """[p1, p2] = 1 is not of first order in a commutator symbol, so normal
    ordering would drop its second-order terms (p2^2 p1^2 would lose its
    constant 2): the context is refused, exit 3."""
    path = tmp_path / "const.ctx"
    path.write_text(MASS_SHELL_SRC + "commutator [p1, p2] = 1\n")
    code, out, err = run(capsys, "commutator", str(path), "--a", "W[p1]", "--b", "W[p2]",
                         "--apply", "f")
    assert code == 3 and out == ""
    assert err.startswith("context error:") and "[p1, p2]" in err and "term 1 " in err


def test_commutator_operator_output(ctx_file, capsys):
    code, out, _ = run(capsys, "commutator", ctx_file, "--a", "W[p1]", "--b", "D[E]")
    assert code == 0
    assert "W[p1]" in out and "D[E]" in out


def test_scenario_mass_shell(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "scenario", "mass-shell",
        "--dim", "3", "--feynman", "--ordering", "paper",
        "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "scenario"
    assert (tmp_path / "mass-shell.ctx").exists()
    entries = doc["result"]["position_commutators"]
    assert len(entries) == 4 and entries[0][0] == "0"


_SCENARIO_FILES = {
    "--dim 1 --ordering operator": """\
independent p1
param m
dependent E
constraint -E^2 + m^2 + p1^2 = 0 solves E
representation dE/dp1 = p1/E
opaque f(p1,E)
ordering operator
""",
    "--dim 2 --ordering operator": """\
independent p1 p2
param m
dependent E
constraint -E^2 + m^2 + p1^2 + p2^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
opaque f(p1,p2,E)
commutator [p1,p2] = kappa12
ordering operator
""",
    "--dim 3 --ordering commuting": """\
independent p1 p2 p3
param m
dependent E
constraint -E^2 + m^2 + p1^2 + p2^2 + p3^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
representation dE/dp3 = p3/E
opaque f(p1,p2,p3,E)
ordering commuting
""",
    "--dim 3 --ordering paper --feynman": """\
independent p1 p2 p3
param m
dependent E
constraint -E^2 + m^2 + p1^2 + p2^2 + p3^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
representation dE/dp3 = p3/E
opaque f(p1,p2,p3,E)
commutator [p1,p2] = i*B3
commutator [p2,p3] = i*B1
commutator [p3,p1] = i*B2
ordering paper
""",
}


@pytest.mark.parametrize("options", list(_SCENARIO_FILES))
def test_scenario_mass_shell_file_is_pinned(tmp_path, capsys, options):
    code, _, _ = run(capsys, "scenario", "mass-shell", *options.split(), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "mass-shell.ctx").read_text() == _SCENARIO_FILES[options]


def test_scenario_retarded(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "scenario", "retarded", "--trajectory", "0.5*tp",
        "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["representations"]["dtp/dt"] == "2"
    assert doc["result"]["representations"]["dtp/dx"] == "-2"
    assert (tmp_path / "retarded.ctx").exists()


def test_scenario_retarded_output_ignores_hash_seed(tmp_path):
    """The trajectory's parameters are written in name order, so the context
    file and stdout do not depend on the interpreter's hash seed."""
    src = str(Path(wholediff.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("1", "2"):
        workdir = tmp_path / f"hashseed-{seed}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "wholediff", "scenario", "retarded",
             "--trajectory", "a*tp + b*tp^2/10 + c", "--out", "."],
            cwd=workdir, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, (workdir / "retarded.ctx").read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"\nparam a b c\n" in outputs[0][1]


@pytest.mark.parametrize(
    "argv, written",
    [
        (("mass-shell", "--dim", "1"), "mass-shell.ctx"),
        (("retarded", "--trajectory", "0.5*tp"), "retarded.ctx"),
    ],
)
def test_scenario_out_missing_directory_is_created(tmp_path, capsys, argv, written):
    out_dir = tmp_path / "missing" / "nested"
    code, out, err = run(capsys, "scenario", *argv, "--out", str(out_dir))
    assert code == 0, err
    assert (out_dir / written).is_file()
    assert f"wrote {out_dir / written}" in out

    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("keep me")
    code, out, err = run(capsys, "scenario", *argv, "--out", str(not_a_dir))
    assert code == 2
    assert err.startswith("usage error:") and "not a directory" in err
    assert not_a_dir.read_text() == "keep me"


def test_scenario_unknown_exit2(capsys):
    code, _, err = run(capsys, "scenario", "unknown")
    assert code == 2


def test_verify_closure_only_stands_in_for_the_mass_shell_field(tmp_path, capsys):
    """The shipped closures are functions of (p1, ..., pd, E): an identity
    over the retarded scenario's g(x, tp) is a usage error naming g, and one
    that mentions no opaque still runs."""
    run(capsys, "scenario", "retarded", "--trajectory", "tp/2", "--out", str(tmp_path))
    ctx = str(tmp_path / "retarded.ctx")
    code, out, err = run(capsys, "verify", ctx, "--lhs", "g(x,tp)", "--rhs", "g(x,tp)",
                         "--samples", "3")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "g(x,tp)" in err
    code, out, _ = run(capsys, "verify", ctx, "--lhs", "2*tp", "--rhs", "tp+tp", "--samples", "3")
    assert code == 0 and out.endswith("verdict: pass\n")


def test_scenario_retarded_superluminal_exit3(tmp_path, capsys):
    code, _, err = run(
        capsys, "scenario", "retarded", "--trajectory", "2*tp", "--out", str(tmp_path)
    )
    assert code == 3


def test_verify_pass(ctx_file, capsys):
    code, out, _ = run(
        capsys,
        "verify", ctx_file,
        "--lhs", "D[f,p1] + p1*D[f,E]/E",
        "--rhs", "D[f,p1] + D[f,E]*p1/E",
        "--samples", "20",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_verify_fail_exit1(ctx_file, capsys):
    code, out, _ = run(
        capsys, "verify", ctx_file, "--lhs", "p1", "--rhs", "p2", "--samples", "10"
    )
    assert code == 1
    assert "verdict: fail" in out


def test_verify_numeric_error_exit4(ctx_file, capsys):
    code, _, err = run(
        capsys, "verify", ctx_file, "--lhs", "1/(E-E)", "--rhs", "p1", "--samples", "3"
    )
    assert code == 4


def test_verify_overflowing_root_solve_exit4(tmp_path, capsys):
    """u^120 overflows complex exponentiation at the bracket end 1e3: each
    draw is a failed root solve, and verify exits 4, not 1 (failed)."""
    path = tmp_path / "u120.ctx"
    path.write_text(
        "independent x\ndependent u\nconstraint u^120 - x^2 - 1 = 0 solves u\n"
        "representation du/dx = 2*x/(120*u^119)\nopaque f(x,u)\n"
    )
    code, out, err = run(
        capsys, "verify", str(path), "--lhs", "u^120", "--rhs", "x^2+1", "--samples", "5"
    )
    assert (code, out) == (4, "")
    assert err == (
        "numeric error: could not draw an admissible on-shell sample; the last draw: "
        "constraint for 'u' overflows or is not finite at u = 1000.0\n"
    )


def test_verify_positive_power_of_zero_base(ctx_file, capsys):
    """sqrt(m^2) - m is exactly 0 at every sample; its square root is 0,
    not a math domain error."""
    code, out, _ = run(
        capsys,
        "verify", ctx_file, "--lhs", "sqrt(sqrt(m^2) - m)", "--rhs", "0", "--samples", "5",
    )
    assert "failures: 0" in out
    assert code == 0


@pytest.mark.xfail(strict=True, reason="nested fixed-step _fd_partial (ROADMAP item 1)")
def test_verify_third_energy_partial_of_poly_closure_is_zero(ctx_file, capsys):
    """The poly closure is E^2*p1, so D[f,E,E,E] is 0 at every sample; the
    nested central differences at h = 1e-5 lose it to rounding."""
    code, out, _ = run(
        capsys,
        "verify", ctx_file, "--lhs", "D[f,E,E,E]", "--rhs", "0",
        "--closure", "poly", "--samples", "20",
    )
    assert "failures: 0" in out
    assert code == 0


@pytest.mark.parametrize(
    "flag, value", [("--seed", "-1"), ("--samples", "0"), ("--samples", "-3")]
)
def test_verify_rejects_negative_seed_and_no_samples_exit2(ctx_file, capsys, flag, value):
    """A negative seed and fewer than one sample are usage errors, not a
    traceback under the "verification failed" code, nor a pass."""
    code, out, err = run(
        capsys, "verify", ctx_file, "--lhs", "E^2", "--rhs", "p1^2+p2^2+p3^2+m^2", flag, value
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--tol", "nan", "--tol-abs", "nan"], ["--tol", "nan"], ["--tol-abs", "nan"],
    ["--tol-abs", "inf"], ["--tol", "inf"], ["--tol", "-0.5"], ["--tol-abs", "-1"],
])
def test_verify_rejects_tolerances_that_are_not_finite_and_non_negative(ctx_file, capsys, flags):
    """E^2 = p1^2 is false on the shell: a NaN or infinite tolerance made
    every sample pass, and a negative one means nothing, so each is a usage
    error (exit 2), not a verdict."""
    code, out, err = run(capsys, "verify", ctx_file, "--lhs", "E^2", "--rhs", "p1^2", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {flags[0]} must be finite and non-negative, not ")


def test_verify_accepts_zero_tolerances(ctx_file, capsys):
    code, out, _ = run(capsys, "verify", ctx_file, "--lhs", "E^2", "--rhs", "p1^2",
                       "--tol", "0", "--tol-abs", "0", "--samples", "5")
    assert code == 1 and "verdict: fail" in out


@pytest.mark.parametrize("argv, code", [
    (["derive", "{ctx}", "--expr", "-p1*f(p1,p2,p3,E)", "--wrt", "p1"], 0),
    (["commutator", "{ctx}", "--a", "-W[p1]", "--b", "-D[E]", "--apply", "-f(p1,p2,p3,E)"], 0),
    (["verify", "{ctx}", "--lhs", "-E^2", "--rhs", "-p1^2-p2^2-p3^2-m^2", "--samples", "5",
      "--sign", "-1"], 0),
    (["verify", "{ctx}", "--lhs", "E^2", "--rhs", "p1^2", "--tol", "-1e-9"], 2),
    (["verify", "{ctx}", "--lhs", "E^2", "--rhs", "p1^2", "--tol-abs", "-1e-9"], 2),
    (["scenario", "retarded", "--trajectory", "-tp/2", "--out", "{out}"], 0),
    (["scenario", "mass-shell", "--dim", "1", "--sign", "-1", "--out", "{out}"], 0),
], ids=["derive", "commutator", "verify", "tol", "tol-abs", "trajectory", "sign"])
def test_option_value_may_start_with_a_dash(ctx_file, tmp_path, capsys, argv, code):
    """argparse reads -p1*f(...) or -1e-9 as an option string; each reaches
    its option instead, exactly as the --option=value spelling does."""
    argv = [a.format(ctx=ctx_file, out=tmp_path) for a in argv]
    joined = []
    for a in argv:
        if a[:1] == "-" and a[:2] != "--":
            a = f"{joined.pop()}={a}"
        joined.append(a)
    got = run(capsys, *argv)
    assert got[0] == code and got == run(capsys, *joined)
    if code:
        assert got[2].startswith(f"usage error: {argv[-2]} must be finite and non-negative")


@pytest.mark.parametrize("value", ["--wrt", "-h"])
def test_an_option_is_not_read_as_the_value_of_another(ctx_file, capsys, value):
    """A missing value is still a usage error: the next option is not taken
    for it."""
    code, out, err = run(capsys, "derive", ctx_file, "--expr", value, "p1")
    assert (code, out) == (2, "")
    assert err == "usage error: argument --expr: expected one argument\n"


def test_h1_is_a_value_not_the_help_option(ctx_file, capsys):
    """Only an exact -h is the help option: -h1*f(...) is the expression,
    as its --expr=-h1*f(...) spelling is."""
    with open(ctx_file, "a") as fh:
        fh.write("param h1\n")
    got = run(capsys, "derive", ctx_file, "--expr", "-h1*f(p1,p2,p3,E)", "--wrt", "p1")
    assert got == (0, "-h1*p1*D[f,E]/E - h1*D[f,p1]\n", "")
    assert got == run(capsys, "derive", ctx_file, "--expr=-h1*f(p1,p2,p3,E)", "--wrt", "p1")


@pytest.mark.parametrize("argv, option", [
    (["retarded", "--trajectory", "tp/2", "--dim", "2"], "--dim"),
    (["retarded", "--trajectory", "tp/2", "--dim", "3"], "--dim"),
    (["retarded", "--trajectory", "tp/2", "--ordering", "paper"], "--ordering"),
    (["retarded", "--trajectory", "tp/2", "--feynman"], "--feynman"),
    (["mass-shell", "--trajectory", "tp/2"], "--trajectory"),
], ids=["retarded-dim", "retarded-dim-3", "retarded-ordering", "retarded-feynman",
        "mass-shell-trajectory"])
def test_scenario_refuses_an_option_it_does_not_read(tmp_path, capsys, argv, option):
    """Each of these options left the output byte-identical; now it is a
    usage error that names the option, and nothing is written."""
    code, out, err = run(capsys, "scenario", *argv, "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"usage error: scenario {argv[0]} has no use for {option}\n"
    assert not (tmp_path / "out").exists()


def test_scenario_mass_shell_dimension_defaults_to_3(tmp_path, capsys):
    written = []
    for dim in ([], ["--dim", "3"]):
        out_dir = tmp_path / str(len(dim))
        assert run(capsys, "scenario", "mass-shell", *dim, "--out", str(out_dir))[0] == 0
        written.append((out_dir / "mass-shell.ctx").read_text())
    assert written[0] == written[1] and "independent p1 p2 p3\n" in written[0]


@pytest.mark.parametrize("argv", [
    ["scenario", "mass-shell", "--out", "{out}"],
    ["scenario", "retarded", "--trajectory", "tp/2", "--out", "{out}"],
    ["commutator", "{ctx}", "--a", "W[p1]", "--b", "D[E]"],
    ["verify", "{ctx}", "--lhs", "E^2", "--rhs", "p1^2+p2^2+p3^2+m^2", "--samples", "3"],
], ids=["mass-shell", "retarded", "commutator", "verify"])
def test_latex_is_refused_where_nothing_is_rendered_in_latex(ctx_file, tmp_path, capsys, argv):
    """Scenario tables, unapplied commutators and verify reports have no
    LaTeX form: --format latex is a usage error there, and nothing is
    written, where it used to print the text form."""
    argv = [a.format(ctx=ctx_file, out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv, "--format", "latex")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "LaTeX" in err
    assert not (tmp_path / "out").exists()


_NC_SRC = MASS_SHELL_SRC + """\
commutator [p1, p2] = kappa12
commutator [p1, p3] = kappa13
commutator [p2, p3] = kappa23
"""
_OFF = "E + 1/1000000"  # E, off by more than the default tolerances
_DERIVE = ["derive", "ms.ctx", "--expr", "E*p1", "--wrt", "p1"]
_COMMUTATOR = ["commutator", "nc.ctx", "--a", "W[p1]", "--b", "W[p2]", "--apply", "f"]
_SCENARIO = ["scenario", "mass-shell", "--out", "out"]
_VERIFY = ["verify", "ms.ctx", "--lhs", "E", "--rhs", _OFF, "--samples", "4"]

# (subcommand, option) -> (baseline argv, argv with the option changed); the
# two must differ in exit code, stdout or the files written.
_OPTION_ROWS = {
    ("derive", "--expr"): (_DERIVE, _DERIVE[:3] + ["E"] + _DERIVE[4:]),
    ("derive", "--wrt"): (_DERIVE, _DERIVE[:5] + ["p2"]),
    ("derive", "--plain"): (_DERIVE, _DERIVE + ["--plain"]),
    ("derive", "--format"): (_DERIVE, _DERIVE + ["--format", "json"]),
    ("commutator", "--a"): (_COMMUTATOR, _COMMUTATOR[:3] + ["W[p3]"] + _COMMUTATOR[4:]),
    ("commutator", "--b"): (_COMMUTATOR, _COMMUTATOR[:5] + ["D[E]"] + _COMMUTATOR[6:]),
    ("commutator", "--apply"): (_COMMUTATOR, _COMMUTATOR[:6]),
    ("commutator", "--ordering"): (_COMMUTATOR, _COMMUTATOR + ["--ordering", "paper"]),
    ("commutator", "--feynman"): (_COMMUTATOR, _COMMUTATOR + ["--feynman"]),
    ("commutator", "--format"): (_COMMUTATOR, _COMMUTATOR + ["--format", "json"]),
    ("scenario", "--dim"): (_SCENARIO, _SCENARIO + ["--dim", "2"]),
    ("scenario", "--sign"): (_SCENARIO, _SCENARIO + ["--sign", "-1"]),
    ("scenario", "--ordering"): (_SCENARIO, _SCENARIO + ["--ordering", "paper"]),
    ("scenario", "--feynman"): (_SCENARIO, _SCENARIO + ["--feynman"]),
    ("scenario", "--trajectory"): (
        ["scenario", "retarded", "--trajectory", "tp/2"],
        ["scenario", "retarded", "--trajectory", "tp^3/10"]),
    ("scenario", "--out"): (_SCENARIO, _SCENARIO[:3] + ["elsewhere"]),
    ("scenario", "--format"): (_SCENARIO, _SCENARIO + ["--format", "json"]),
    ("verify", "--lhs"): (_VERIFY, _VERIFY[:3] + [_OFF] + _VERIFY[4:]),
    ("verify", "--rhs"): (_VERIFY, _VERIFY[:5] + ["E"] + _VERIFY[6:]),
    ("verify", "--samples"): (_VERIFY, _VERIFY[:7] + ["5"]),
    ("verify", "--tol"): (_VERIFY, _VERIFY + ["--tol", "1"]),
    ("verify", "--tol-abs"): (_VERIFY, _VERIFY + ["--tol-abs", "1"]),
    ("verify", "--sampler"): (_VERIFY, _VERIFY + ["--sampler", "box"]),
    ("verify", "--sign"): (
        ["verify", "ms.ctx", "--lhs", "E", "--rhs", "sqrt(p1^2+p2^2+p3^2+m^2)"],
        ["verify", "ms.ctx", "--lhs", "E", "--rhs", "sqrt(p1^2+p2^2+p3^2+m^2)", "--sign", "-1"]),
    ("verify", "--closure"): (
        ["verify", "ms.ctx", "--lhs", "f", "--rhs", "0", "--samples", "2"],
        ["verify", "ms.ctx", "--lhs", "f", "--rhs", "0", "--samples", "2",
         "--closure", "exponential"]),
    ("verify", "--seed"): (_VERIFY, _VERIFY + ["--seed", "1"]),
    ("verify", "--format"): (_VERIFY, _VERIFY + ["--format", "json"]),
}
_SILENT_OPTIONS = {
    ("scenario", "--sign"): "scenario --sign writes the same file on both sheets; deleting "
    "or refusing it changes the cli golden digests, so it lands with a benchmark change "
    "(ROADMAP item 16)",
}


def _parser_options():
    """(subcommand, first option string) of every option but --help."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, action.option_strings[0])
        for name, sp in sub.choices.items()
        for action in sp._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_every_option_has_a_coverage_row():
    """A new option needs a row below, so it cannot be accepted and ignored
    unnoticed; a row for an option that is gone fails too."""
    assert set(_OPTION_ROWS) == _parser_options()


def _cli_outcome(argv, workdir, capsys):
    """(exit code, stdout, {path: text} of the files written) of argv run in
    a fresh directory that holds ms.ctx and nc.ctx."""
    workdir.mkdir()
    (workdir / "ms.ctx").write_text(MASS_SHELL_SRC)
    (workdir / "nc.ctx").write_text(_NC_SRC)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = {
        str(path.relative_to(workdir)): path.read_text()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name not in ("ms.ctx", "nc.ctx")
    }
    return code, capsys.readouterr().out, written


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=_SILENT_OPTIONS[row]))
    if row in _SILENT_OPTIONS else row
    for row in _OPTION_ROWS
], ids=" ".join)
def test_each_option_changes_the_outcome(row, tmp_path, capsys):
    """Changing one option changes the exit code, stdout or a written file
    (metamorphic check, ROADMAP item 16)."""
    baseline, changed = _OPTION_ROWS[row]
    assert row[1] in baseline + changed
    base = _cli_outcome(baseline, tmp_path / "baseline", capsys)
    other = _cli_outcome(changed, tmp_path / "changed", capsys)
    assert base[0] in (0, 1) and other[0] in (0, 1), (base, other)
    assert other != base


@pytest.mark.parametrize("argv", [
    ["derive", "{ctx}", "--expr", "f", "--wrt", "p1"],
    ["commutator", "{ctx}", "--a", "W[p1]", "--b", "D[E]"],
    ["scenario", "mass-shell", "--dim", "1", "--out", "{out}"],
], ids=["derive", "commutator", "scenario"])
def test_seed_is_an_option_of_verify_only(ctx_file, tmp_path, capsys, argv):
    """Only verify draws samples; elsewhere --seed is a usage error, not a
    flag that is accepted and ignored."""
    argv = [a.format(ctx=ctx_file, out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "--seed" in err
    assert not (tmp_path / "out").exists()


def test_closed_stdout_exits_141_quietly(ctx_file):
    """A reader that closes the pipe before the output is written (`| head`)
    ends the command with 128 + SIGPIPE and no traceback; exit 1 would read
    as "verification failed"."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wholediff", "verify", ctx_file, "--lhs", "E^2",
             "--rhs", "p1^2+p2^2+p3^2+m^2", "--samples", "10"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def _verify_in_a_fresh_process(ctx_file, lhs, rhs):
    """Run verify in a new interpreter; assert it passes and loads neither
    numpy nor scipy."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from wholediff.cli import main\n"
        f"rc = main(['verify', {ctx_file!r}, '--lhs', {lhs!r},"
        f" '--rhs', {rhs!r}, '--samples', '50'])\n"
        "assert rc == 0, rc\n"
        "assert not {'numpy', 'scipy'} & set(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: pass" in proc.stdout


def test_verify_does_not_import_numpy(ctx_file):
    """The sampling stream is pure Python, and the mass shell is solved in
    closed form."""
    _verify_in_a_fresh_process(ctx_file, "E^2", "p1^2+p2^2+p3^2+m^2")


def test_verify_on_the_retarded_cubic_does_not_import_numpy_or_scipy(tmp_path):
    """The retarded cubic takes the bracketed root solve, also pure Python."""
    assert main(["scenario", "retarded", "--trajectory", "tp^3/10", "--out", str(tmp_path)]) == 0
    _verify_in_a_fresh_process(str(tmp_path / "retarded.ctx"), "tp^3", "10*(tp + x - t)")


@pytest.mark.parametrize("argv, loaded, absent", [
    (["derive", "{ctx}", "--expr", "f", "--wrt", "p1"],
     {"cli", "textio", "wholederiv"}, {"numcheck", "physcases", "diffop"}),
    (["verify", "{ctx}", "--lhs", "E^2", "--rhs", "p1^2+p2^2+p3^2+m^2", "--samples", "5"],
     {"numcheck"}, {"physcases", "diffop"}),
    (["commutator", "{ctx}", "--a", "W[p1]", "--b", "D[E]", "--apply", "f"],
     {"diffop"}, {"physcases", "numcheck"}),
    (["scenario", "mass-shell", "--out", "{out}"], {"physcases", "diffop"}, {"numcheck"}),
], ids=["derive", "verify", "commutator", "scenario"])
def test_each_subcommand_imports_only_the_modules_it_runs(
    ctx_file, tmp_path, argv, loaded, absent
):
    """A process compiles what it imports, so each subcommand loads its own
    modules only: numcheck for verify, physcases for scenarios."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [a.format(ctx=ctx_file, out=str(tmp_path)) for a in argv]
    code = (
        "import sys\n"
        "from wholediff.cli import main\n"
        f"rc = main({argv!r})\n"
        "assert rc == 0, rc\n"
        "print(' '.join(m[len('wholediff.'):] for m in sys.modules"
        " if m.startswith('wholediff.')), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.split())
    assert loaded <= modules
    assert not absent & modules


def test_verify_json_byte_stable(ctx_file, capsys):
    argv = [
        "verify", ctx_file,
        "--lhs", "p1*D[f,E]/E^2", "--rhs", "p1*D[f,E]/E^2",
        "--samples", "25", "--seed", "7", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"command", "context", "result"}
    assert {"samples", "failures", "max_abs_err", "max_rel_err", "verdict"} <= set(
        doc["result"]
    )


def test_invalid_context_exit3(tmp_path, capsys):
    bad = tmp_path / "bad.ctx"
    bad.write_text(MASS_SHELL_SRC + "dependent E\n")
    code, _, err = run(capsys, "derive", str(bad), "--expr", "E", "--wrt", "p1")
    assert code == 3


def test_malformed_context_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.ctx"
    bad.write_text("frobnicate\n")
    code, _, _ = run(capsys, "derive", str(bad), "--expr", "E", "--wrt", "p1")
    assert code == 2


@pytest.mark.parametrize("solved", ["p1", "m"])
@pytest.mark.parametrize("command", [
    ("derive", "--expr", "f", "--wrt", "p1"),
    ("verify", "--lhs", "p1", "--rhs", "p1", "--samples", "5"),
], ids=["derive", "verify"])
def test_constraint_solving_no_dependent_exit2(tmp_path, capsys, solved, command):
    """A constraint is imposed only through the dependent it solves, so one
    that solves an independent or a parameter is refused, not ignored."""
    bad = tmp_path / "bad.ctx"
    bad.write_text(MASS_SHELL_SRC + f"constraint p1 - m = 0 solves {solved}\n")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and f"'{solved}' is not one" in err


CHAIN_SRC = (
    "independent x\ndependent w\ndependent u\n"
    "constraint w - x^2 = 0 solves w\nconstraint u - w = 0 solves u\n"
)
CHAIN_REVERSED_SRC = (
    "independent x\ndependent u\ndependent w\n"
    "constraint u - w = 0 solves u\nconstraint w - x^2 = 0 solves w\n"
)


@pytest.mark.parametrize("src, command", [
    (CHAIN_SRC, ("derive", "--expr", "u", "--wrt", "x")),
    (CHAIN_SRC + "opaque f(x,u,w)\n", ("derive", "--expr", "f(x,u,w)", "--wrt", "x")),
    (CHAIN_REVERSED_SRC, ("verify", "--lhs", "u", "--rhs", "x^2", "--samples", "5")),
], ids=["derive-u", "derive-f", "verify-reversed"])
def test_constraint_mentioning_another_dependent_exit2(tmp_path, capsys, src, command):
    """The representation -g_x/g_u of a constraint g that also holds w is
    not du/dx: derive printed 0 for u and dropped 2*x*D[f,u], and verify
    could not bind w.  Refused, with the span on that w."""
    path = tmp_path / "chain.ctx"
    path.write_text(src)
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    start = src.index("constraint u - w") + len("constraint u - ")
    assert err == ("parse error: constraint solving 'u' mentions another dependent, 'w' "
                   f"(at {start}..{start + 1})\n")


def test_missing_subcommand_exit2(capsys):
    assert run(capsys)[0] == 2


def test_bad_flag_exit2(ctx_file, capsys):
    code, _, _ = run(capsys, "derive", ctx_file, "--expr", "E", "--wrt", "p1", "--format", "xml")
    assert code == 2


def test_representation_with_commutator_symbol_warns(tmp_path, capsys):
    """A declared representation that mentions a commutator symbol cannot be
    checked numerically against the constraint; that is a warning, not a
    numeric error."""
    src = MASS_SHELL_SRC.replace("= p1/E", "= kappa*p1/E") + "commutator [p1, p2] = kappa\n"
    warnings = [d.message for d in parse_context(src).validate() if d.level == "warning"]
    assert len(warnings) == 1
    assert "dE/dp1 was not checked" in warnings[0] and "'kappa'" in warnings[0]
    path = tmp_path / "kappa.ctx"
    path.write_text(src)
    code, out, _ = run(capsys, "derive", str(path), "--expr", "f", "--wrt", "p1")
    assert code == 0
    assert out == "kappa*p1*D[f,E]/E + D[f,p1]\n"


def test_cli_matches_golden_digests(bench_workloads, tmp_path):
    """Every derive, commutator --apply and scenario mass-shell command of
    the cli benchmark, and one verify per identity, prints exactly what the
    benchmark's golden digests (bench/golden.json) recorded."""
    w = bench_workloads
    golden = w.load_golden()["cli"]
    w.write_contexts(tmp_path)
    m = SimpleNamespace(cli=wholediff.cli)
    argvs = [argv for argv in w.cli_domain() if argv[0] != "verify"]
    assert len(argvs) == 96
    argvs += [w.cli_verify(k, "poly", 0, 1) for k in range(len(w.VERIFY_IDENTITIES))]
    for argv in argvs:
        rc, out = w.cli_in_process(m, argv, tmp_path)
        assert w.cli_digest(rc, out) == golden[w.cli_key(argv)], w.cli_key(argv)


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10; no newer syntax."""
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "bench", "tests") for p in sorted((root / d).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
