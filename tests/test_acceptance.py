"""Acceptance gate: the ten shipped criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; tolerances are pinned in the assertions below.
"""

import json
import random
from fractions import Fraction

import pytest

import test_properties as props
from conftest import field_of
from wholediff import (
    DifferentialOperator,
    Expr,
    MassShellScenario,
    NumericBinding,
    RetardedScenario,
    SamplerSpec,
    build_mass_shell,
    build_retarded,
    commutator,
    equals_canonical,
    evaluate,
    fd_commutator_pE,
    fd_whole,
    momentum_energy_commutator,
    momentum_momentum_commutator,
    op_equals,
    parse_expr,
    position_commutator_table,
    print_expr,
    sample_on_shell,
    shipped_closures,
    verify_identity,
    whole_partial,
)
from wholediff.cli import main as cli_main
from wholediff.diffop import apply
from wholediff.physcases import RETARDED_T, RETARDED_TP


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {verdict}  {self.title}")
        return False


def _ctx(mode="commuting", dim=3, **kw):
    return build_mass_shell(MassShellScenario(dimension=dim, ordering_mode=mode, **kw))


def _pieces(ctx):
    ps = [s for s in ctx.independents]
    E = ctx.find_symbol("E")
    return ps, ctx.find_symbol("m"), E, field_of(ctx)


def test_criterion_1_whole_derivative_structure():
    with _Criterion(1, "whole derivative structure, dimensions 1-3"):
        for dim in (1, 2, 3):
            ctx = _ctx(dim=dim)
            ps, m, E, fe = _pieces(ctx)
            EE = Expr.symbol(E)
            for p in ps:
                got = whole_partial(fe, p, ctx)
                want = fe.diff_plain(p) + fe.diff_plain(E) * (Expr.symbol(p) / EE)
                assert equals_canonical(got, want)


def test_criterion_2_momentum_energy_commutator():
    with _Criterion(2, "momentum-energy commutator closed form + numeric"):
        ctx = _ctx()
        ps, m, E, fe = _pieces(ctx)
        EE = Expr.symbol(E)
        fE = fe.diff_plain(E)
        for i, p in enumerate(ps, start=1):
            got = momentum_energy_commutator(ctx, i)
            assert equals_canonical(got, (Expr.symbol(p) / EE ** 2) * fE)
        lhs = momentum_energy_commutator(ctx, 1)
        rhs = (Expr.symbol(ps[0]) / EE ** 2) * fE
        for closure in shipped_closures(3).values():
            report = verify_identity(
                lhs, rhs, ctx, SamplerSpec(kind="box"),
                tol_rel=1e-9, samples=100, seed=0, opaques={"f": closure},
            )
            assert report.passed, report.to_json_dict()


def test_criterion_3_representation_sensitivity():
    with _Criterion(3, "E-free representation kills the commutator"):
        ctx = _ctx()
        ps, m, E, fe = _pieces(ctx)
        root = (Expr.symbol(m) ** 2 + sum(
            (Expr.symbol(p) ** 2 for p in ps), Expr.zero()
        )) ** Fraction(-1, 2)
        for p in ps:
            ctx.declare_representation(E, p, Expr.symbol(p) * root)
        for i in (1, 2, 3):
            assert momentum_energy_commutator(ctx, i).is_zero()


def test_criterion_4_momentum_momentum_commutator_modes():
    with _Criterion(4, "momentum-momentum commutator in all ordering modes"):
        assert momentum_momentum_commutator(_ctx("commuting"), 1, 2).is_zero()
        for mode in ("paper", "operator"):
            ctx = _ctx(mode)
            ps, m, E, fe = _pieces(ctx)
            EE = Expr.symbol(E)
            fE = fe.diff_plain(E)
            fEE = fE.diff_plain(E)
            k12 = ctx.commutators.lookup(ps[0], ps[1])
            want = k12 / EE ** 3 * fE
            if mode == "operator":
                want = want - k12 / EE ** 2 * fEE
            assert equals_canonical(momentum_momentum_commutator(ctx, 1, 2), want)


def test_criterion_5_feynman_substitution():
    with _Criterion(5, "Feynman substitution kappa12 -> i*B3"):
        ctx = _ctx("paper", feynman=True)
        ps, m, E, fe = _pieces(ctx)
        EE = Expr.symbol(E)
        B3 = Expr.symbol(ctx.find_symbol("B3"))
        want = Expr.imaginary_unit() * B3 / EE ** 3 * fe.diff_plain(E)
        assert equals_canonical(momentum_momentum_commutator(ctx, 1, 2), want)


def test_criterion_6_position_commutator_table():
    with _Criterion(6, "position-operator table antisymmetric, 0k entries"):
        ctx = _ctx()
        ps, m, E, fe = _pieces(ctx)
        EE = Expr.symbol(E)
        tab = position_commutator_table(ctx)
        n = tab.dimension + 1
        zero = DifferentialOperator.zero(ctx)
        for mu in range(n):
            assert op_equals(tab.entries[mu][mu], zero)
            for nu in range(n):
                assert op_equals(tab.entries[mu][nu], -tab.entries[nu][mu])
        i = Expr.imaginary_unit()
        phases = [Expr.one(), -Expr.one(), i, -i]
        for k, p in enumerate(ps, start=1):
            got = apply(tab.entries[0][k], fe)
            base = (Expr.symbol(p) / EE ** 2) * fe.diff_plain(E)
            assert any(equals_canonical(got, ph * base) for ph in phases)


def test_criterion_7_finite_difference_agreement():
    with _Criterion(7, "FD vs symbolic whole derivative + nested-FD commutator"):
        ctx = _ctx()
        ps, m, E, fe = _pieces(ctx)
        EE, M = Expr.symbol(E), Expr.symbol(m)
        P1, P2, P3 = (Expr.symbol(p) for p in ps)
        probes = [EE, P1 * EE, (M ** 2 + P1 ** 2 + P2 ** 2 + P3 ** 2) ** Fraction(1, 2) * P2]
        for sign in (+1, -1):
            points = sample_on_shell(ctx, 50, seed=11, sign=sign)
            for e in probes:
                sym = whole_partial(e, ps[0], ctx)
                for vals in points:
                    b = NumericBinding(values=dict(vals))
                    num = fd_whole(e, ps[0], ctx, b, h=1e-5, sign=sign)
                    ref = evaluate(sym, b)
                    assert abs(num - ref) <= 1e-6 * max(abs(ref), 1.0)

        closures = shipped_closures(3)
        fE_expr = (P1 / EE ** 2) * fe.diff_plain(E)
        spec = SamplerSpec(kind="box")
        for closure in closures.values():
            for k in range(50):
                vals = spec.draw(ctx, k, seed=23)
                b = NumericBinding(values=vals, opaques={"f": closure})
                num = fd_commutator_pE(closure.fn, 1, b, h=1e-4)
                ref = evaluate(fE_expr, b)
                assert abs(num - ref) <= 1e-3 * max(abs(ref), 1e-8)

        spot = NumericBinding(values={"p1": 3.0, "p2": 0.0, "p3": 0.0, "E": 5.0})
        got = fd_commutator_pE(lambda *a: a[3] ** 2, 1, spot, h=1e-4)
        assert got == pytest.approx(1.2, rel=1e-4)


def test_criterion_8_retarded_time():
    with _Criterion(8, "retarded time: representation = 2, FD agreement"):
        traj = Expr.const(Fraction(1, 2)) * Expr.symbol(RETARDED_TP)
        ctx = build_retarded(RetardedScenario(trajectory=traj))
        rep = ctx.representation(RETARDED_TP, RETARDED_T)
        assert equals_canonical(rep, Expr.const(2))
        points = sample_on_shell(ctx, 20, seed=31)
        for vals in points:
            b = NumericBinding(values=dict(vals))
            num = fd_whole(Expr.symbol(RETARDED_TP), RETARDED_T, ctx, b, h=1e-5)
            assert abs(num - 2.0) <= 1e-5 * 2.0


def test_criterion_9_algebraic_property_suite(property_outcomes):
    with _Criterion(9, "randomized algebraic property suite (>=200 cases each)"):
        failed = {
            name: exc
            for name in props.PROPERTIES
            if (exc := property_outcomes.get(name)) is not None
        }
        assert not failed, failed


def test_criterion_10_parser_round_trip_and_cli(tmp_path, capsys):
    with _Criterion(10, "parser round-trip corpus, CLI exit codes, JSON stability"):
        ctx = _ctx()
        pool = props._expr_pool(ctx)
        rng = random.Random(99)
        syms = list(ctx.all_symbols())
        opaques = {f.name: args for f, args in ctx.opaques}
        for _ in range(1000):
            e = props._rand_expr(rng, pool, depth=3)
            text = print_expr(e, "text")
            assert equals_canonical(parse_expr(text, syms, opaques), e)

        ctx_file = tmp_path / "ms.ctx"
        ctx_file.write_text(
            "independent p1 p2 p3\nparam m\ndependent E\n"
            "constraint E^2 - p1^2 - p2^2 - p3^2 - m^2 = 0 solves E\n"
            "representation dE/dp1 = p1/E\nrepresentation dE/dp2 = p2/E\n"
            "representation dE/dp3 = p3/E\nopaque f(p1,p2,p3,E)\n"
        )
        cf = str(ctx_file)
        assert cli_main(["derive", cf, "--expr", "E", "--wrt", "p1"]) == 0
        assert cli_main(["verify", cf, "--lhs", "p1", "--rhs", "p2", "--samples", "5"]) == 1
        assert cli_main(["derive", cf, "--expr", "f", "--wrt", "q"]) == 2
        bad = tmp_path / "bad.ctx"
        bad.write_text(ctx_file.read_text() + "dependent E\n")
        assert cli_main(["derive", str(bad), "--expr", "E", "--wrt", "p1"]) == 3
        assert (
            cli_main(["verify", cf, "--lhs", "1/(E-E)", "--rhs", "p1", "--samples", "3"])
            == 4
        )
        capsys.readouterr()
        argv = [
            "verify", cf, "--lhs", "p1*D[f,E]/E^2", "--rhs", "p1*D[f,E]/E^2",
            "--samples", "25", "--seed", "7", "--format", "json",
        ]
        assert cli_main(argv) == 0
        out1 = capsys.readouterr().out
        assert cli_main(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        doc = json.loads(out1)
        assert set(doc) == {"command", "context", "result"}
