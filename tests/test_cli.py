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
from wholediff.cli import main

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


def test_verify_does_not_import_numpy(ctx_file):
    """The sampling stream is pure Python; numpy is reached only through
    scipy's root solver, which the closed-form mass shell never calls."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "from wholediff.cli import main\n"
        f"rc = main(['verify', {ctx_file!r}, '--lhs', 'E^2',"
        " '--rhs', 'p1^2+p2^2+p3^2+m^2', '--samples', '50'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: pass" in proc.stdout


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
