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
