"""The benchmark's workloads.

Every workload is a fixed cycle of ops; a run repeats whole cycles until its
time is up, so each run executes the same mix of op kinds.  Cycle ``c`` of
seed ``s`` draws its inputs from ``random.Random(f"{s}/{c}")``.

Where the cost of an op depends strongly on the shape of its input (the
length and letter pattern of an operator word, the number of terms and
generators of a random operator), the shape is fixed by the cycle and the
seed varies the input only along symmetries that leave the cost nearly
unchanged: which momentum plays which role, and the order of the operands.
A free draw of shapes makes ops_per_s swing by tens of percent from seed
to seed, which would hide any change smaller than that.  Numeric ops draw
their sample points freely from the seed.

Each op returns True when its output is right.  Outputs with a
hand-written closed form (the paper's commutators) are checked against it;
the rest of derive-tower and every cli output are checked byte for byte
against ``golden.json`` (see record_golden.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

# ordering mode label -> (MassShellScenario.ordering_mode, feynman)
MODES = {
    "commuting": ("commuting", False),
    "operator": ("operator", False),
    "paper": ("paper", False),
    "paper+feynman": ("paper", True),
}
# Letter pattern of the operator word W[v_k]...W[v_1] for each order k.
PATTERNS = {1: "a", 2: "ab", 3: "abc", 4: "abca", 5: "ababa"}
FORMATS = ("text", "latex", "json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def relabelings():
    """The six assignments of p1, p2, p3 to the letters a, b, c."""
    return [dict(zip("abc", perm)) for perm in itertools.permutations((1, 2, 3))]


def word_text(k: int, sigma: dict) -> str:
    return "".join(f"W[p{sigma[ch]}]" for ch in PATTERNS[k])


def tower_domain(max_order: int = 5):
    """Every (mode, word) a derive-tower cycle can draw."""
    for mode in MODES:
        for k in range(1, max_order + 1):
            for text in sorted({word_text(k, s) for s in relabelings()}):
                yield mode, text


def tower_output(m, ctx, text: str) -> str:
    """Apply the parsed word to the scenario field; all three printings."""
    f = m.wd.Expr.opaque(*ctx.opaques[0])
    out = m.diffop.apply(m.wd.parse_operator(text, ctx), f)
    return "\n".join(m.wd.print_expr(out, fmt) for fmt in FORMATS)


def mass_shell(m, mode: str, dim: int = 3):
    ordering, feynman = MODES[mode]
    return m.wd.build_mass_shell(
        m.wd.MassShellScenario(dimension=dim, ordering_mode=ordering, feynman=feynman)
    )


# ---------------------------------------------------------------------------
# Hand-written closed forms
# ---------------------------------------------------------------------------


def _pieces(m, ctx):
    Expr = m.wd.Expr
    E = ctx.find_symbol("E")
    fn, args = ctx.opaques[0]
    fE = Expr.partial_atom(fn, args, ((E, 1),))
    fEE = Expr.partial_atom(fn, args, ((E, 2),))
    return Expr.symbol(E), fE, fEE


def closed_pE(m, ctx, i: int):
    """[W[p_i], D[E]] f = p_i/E^2 * D[f,E]."""
    EE, fE, _ = _pieces(m, ctx)
    return m.wd.Expr.symbol(ctx.find_symbol(f"p{i}")) / EE ** 2 * fE


_FEYNMAN_B = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def closed_pp(m, ctx, mode: str, i: int, j: int):
    """[W[p_i], W[p_j]] f: 0 when commuting, kappa_ij/E^3 D[f,E] in paper
    mode, kappa_ij/E^3 D[f,E] - kappa_ij/E^2 D[f,E,E] in operator mode;
    the Feynman variant substitutes kappa_ij -> i*eps_ijk*B_k."""
    Expr, Symbol, Kind = m.wd.Expr, m.wd.Symbol, m.wd.SymbolKind
    if mode == "commuting":
        return Expr.zero()
    EE, fE, fEE = _pieces(m, ctx)
    if mode == "paper+feynman":
        if (i, j) in _FEYNMAN_B:
            kappa = Expr.imaginary_unit() * Expr.symbol(Symbol(f"B{_FEYNMAN_B[(i, j)]}", Kind.COMMUTATOR))
        else:
            kappa = -Expr.imaginary_unit() * Expr.symbol(Symbol(f"B{_FEYNMAN_B[(j, i)]}", Kind.COMMUTATOR))
    else:
        lo, hi = min(i, j), max(i, j)
        kappa = Expr.symbol(Symbol(f"kappa{lo}{hi}", Kind.COMMUTATOR))
        if i > j:
            kappa = -kappa
    out = kappa / EE ** 3 * fE
    if mode == "operator":
        out = out - kappa / EE ** 2 * fEE
    return out


# ---------------------------------------------------------------------------
# derive-tower
# ---------------------------------------------------------------------------


class DeriveTower:
    name = "derive-tower"
    tail_percentile = 80
    cycles_per_pass = 2

    def setup(self, m, seed: int, tiny: bool):
        self.m, self.seed = m, seed
        self.max_order = 3 if tiny else 5
        self.ctxs = {mode: mass_shell(m, mode) for mode in MODES}
        self.golden = load_golden()["derive-tower"]
        self.counts = {}

    def cycle(self, c: int, in_process: bool = False):
        """Cycles come in pairs that draw the same momenta; the second of a
        pair swaps the letters a and b, so that a pass holds both
        orientations of each word (their costs differ by up to 1.4x in the
        noncommuting modes)."""
        rng = random.Random(f"{self.seed}/{c // 2}")
        sigmas = relabelings()
        ops = []
        for mode, ctx in self.ctxs.items():
            for k in range(1, self.max_order + 1):
                sigma = rng.choice(sigmas)
                if c % 2:
                    sigma = dict(sigma, a=sigma["b"], b=sigma["a"])
                text = word_text(k, sigma)
                ops.append((f"{mode} order {k}", self._tower(mode, ctx, text)))
            i = rng.randint(1, 3)
            ops.append((f"{mode} [W,D[E]]", self._known(ctx, i, "E", closed_pE(self.m, ctx, i))))
            i, j = rng.sample((1, 2, 3), 2)
            ops.append((f"{mode} [W,W]",
                        self._known(ctx, i, f"p{j}", closed_pp(self.m, ctx, mode, i, j))))
        return ops

    def _tower(self, mode, ctx, text):
        key = f"{mode}|{text}"
        return lambda: digest(tower_output(self.m, ctx, text)) == self.golden[key]

    def _known(self, ctx, i, second, closed):
        """[W[p_i], D[E]] f (second "E") or [W[p_i], W[p_j]] f (second
        "p<j>") against its closed form."""
        m = self.m

        def op():
            D = m.diffop.DifferentialOperator
            v = ctx.find_symbol(second)
            B = D.plain(ctx, v) if second == "E" else D.whole(ctx, v)
            C = m.diffop.commutator(D.whole(ctx, ctx.find_symbol(f"p{i}")), B)
            got = m.diffop.apply(C, m.wd.Expr.opaque(*ctx.opaques[0]))
            return m.wd.equals_canonical(got, closed)

        return op


# ---------------------------------------------------------------------------
# operator-algebra
# ---------------------------------------------------------------------------

# Operator shapes, drawn once as random.Random draws with the shape of the
# property suite's random operators: 1-2 terms, each a coefficient from an
# 8-entry pool times 0-2 generators over (p1, p2, p3, E), whole or plain
# (E only plain).  Generator variables are letters; the cycle's seed maps
# them to momenta.
_N_PER_CHECK = 12
_OPERANDS = {"antisymmetry": 2, "bilinearity": 3, "jacobi": 3}


def _operator_shapes():
    rng = random.Random("operator-algebra shapes")
    shapes = []
    for check, n in _OPERANDS.items():
        for _ in range(_N_PER_CHECK):
            ops = []
            for _ in range(n):
                terms = []
                for _ in range(rng.randint(1, 2)):
                    coeff = rng.randrange(8)
                    gens = []
                    for _ in range(rng.randint(0, 2)):
                        var = rng.choice("abcE")
                        mode = "plain" if var == "E" else rng.choice(("plain", "whole"))
                        gens.append((var, mode))
                    terms.append((coeff, tuple(gens)))
                ops.append(tuple(terms))
            shapes.append((check, tuple(ops)))
    return shapes


class OperatorAlgebra:
    name = "operator-algebra"
    tail_percentile = 90
    cycles_per_pass = 3

    def setup(self, m, seed: int, tiny: bool):
        self.m, self.seed = m, seed
        self.ctx = mass_shell(m, "commuting")
        self.tables = {d: mass_shell(m, "commuting", dim=d) for d in (2, 3)}
        shapes = _operator_shapes()
        if tiny:
            shapes = [s for k, s in enumerate(shapes) if k % _N_PER_CHECK == 0]
        self.shapes = shapes
        self.counts = {}

    def _coeffs(self, sigma):
        Expr, ctx = self.m.wd.Expr, self.ctx
        P = {ch: Expr.symbol(ctx.find_symbol(f"p{sigma[ch]}")) for ch in "abc"}
        M, EE = Expr.symbol(ctx.find_symbol("m")), Expr.symbol(ctx.find_symbol("E"))
        return [Expr.one(), Expr.const(2), P["a"], M, EE, P["a"] / EE, M * EE, P["b"] + M]

    def cycle(self, c: int, in_process: bool = False):
        rng = random.Random(f"{self.seed}/{c}")
        sigma = rng.choice(relabelings())
        coeffs = self._coeffs(sigma)
        ops = []
        for check, operands in self.shapes:
            operands = list(operands)
            rng.shuffle(operands)
            ops.append((check, self._identity(check, operands, coeffs, sigma)))
        start = rng.randrange(len(ops))
        ops = ops[start:] + ops[:start]
        for d, ctx in self.tables.items():
            ops.append((f"position table d={d}", self._table(ctx)))
        return ops

    def _build(self, terms, coeffs, sigma):
        m, ctx = self.m, self.ctx
        Gen = m.diffop.DerivativeGenerator
        out = []
        for coeff, gens in terms:
            g = tuple(
                Gen(ctx.find_symbol("E" if v == "E" else f"p{sigma[v]}"), mode) for v, mode in gens
            )
            out.append((coeffs[coeff], g))
        return m.diffop.DifferentialOperator(ctx, out)

    def _identity(self, check, operands, coeffs, sigma):
        m = self.m

        def op():
            dop = m.diffop
            com, eq = dop.commutator, dop.op_equals
            X = [self._build(t, coeffs, sigma) for t in operands]
            zero = dop.DifferentialOperator.zero(self.ctx)
            if check == "antisymmetry":
                A, B = X
                return eq(com(A, B), -com(B, A)) and eq(com(A, A), zero)
            A, B, C = X
            if check == "bilinearity":
                return eq(com(A + B, C), com(A, C) + com(B, C)) and eq(
                    com(A, B + C), com(A, B) + com(A, C)
                )
            J = com(A, com(B, C)) + com(B, com(C, A)) + com(C, com(A, B))
            return eq(J, zero)

        return op

    def _table(self, ctx):
        m = self.m

        def op():
            dop = m.diffop
            tab = m.physcases.position_commutator_table(ctx)
            n = tab.dimension + 1
            zero = dop.DifferentialOperator.zero(ctx)
            for mu in range(n):
                if not dop.op_equals(tab.entries[mu][mu], zero):
                    return False
                for nu in range(mu + 1, n):
                    if not dop.op_equals(tab.entries[mu][nu], -tab.entries[nu][mu]):
                        return False
            f = m.wd.Expr.opaque(*ctx.opaques[0])
            # [x^0, x^k] = [i D[E], -i W[p_k]] = -[W[p_k], D[E]]
            for k in range(1, n):
                got = dop.apply(tab.entries[0][k], f)
                if not m.wd.equals_canonical(got, -closed_pE(m, ctx, k)):
                    return False
            return True

        return op


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------


class VerifySweep:
    name = "verify-sweep"
    tail_percentile = 90
    cycles_per_pass = 10

    def setup(self, m, seed: int, tiny: bool):
        self.m, self.seed = m, seed
        self.scale = 4 if tiny else 1
        wd = m.wd
        Expr = wd.Expr
        ctx = self.ctx = mass_shell(m, "commuting")
        E, M = ctx.find_symbol("E"), ctx.find_symbol("m")
        EE, MM = Expr.symbol(E), Expr.symbol(M)
        ps = [ctx.find_symbol(f"p{i}") for i in (1, 2, 3)]
        P = [Expr.symbol(p) for p in ps]
        f = Expr.opaque(*ctx.opaques[0])
        self.comm = [wd.momentum_energy_commutator(ctx, i) for i in (1, 2, 3)]
        self.comm_closed = [closed_pE(m, ctx, i) for i in (1, 2, 3)]
        self.wE = [wd.whole_partial(EE, p, ctx) for p in ps]
        self.wE_closed = [Pi / EE for Pi in P]
        self.wf = [wd.whole_partial(f, p, ctx) for p in ps]
        self.df = [wd.plain_partial(f, p) for p in ps]
        self.P = P
        root = (MM ** 2 + P[0] ** 2 + P[1] ** 2 + P[2] ** 2) ** Fraction(1, 2)
        probes = [EE, P[0] * EE, root * P[1]]
        self.probes = [(e, [wd.whole_partial(e, p, ctx) for p in ps]) for e in probes]
        self.fE_over = [Pi / EE ** 2 * _pieces(m, ctx)[1] for Pi in P]
        self.closures = wd.shipped_closures(3)

        self.tp, self.t = m.physcases.RETARDED_TP, m.physcases.RETARDED_T
        TP = Expr.symbol(self.tp)
        self.cubic = wd.build_retarded(wd.RetardedScenario(trajectory=TP ** 3 / 10))
        self.cubic_w = wd.whole_partial(TP, self.t, self.cubic)
        # tp + x - tp^3/10 = t  =>  d tp/dt = 1/(1 - 3 tp^2/10)
        self.cubic_closed = Expr.one() / (Expr.one() - Fraction(3, 10) * TP ** 2)
        self.half = wd.build_retarded(wd.RetardedScenario(trajectory=TP / 2))
        self.half_w = wd.whole_partial(TP, self.t, self.half)
        self.counts = {"numcheck.eval_failures": 0}

    def n(self, samples: int) -> int:
        return max(2, samples // self.scale)

    def cycle(self, c: int, in_process: bool = False):
        rng = random.Random(f"{self.seed}/{c}")
        s = lambda: rng.randrange(2 ** 31)
        names = list(self.closures)
        i = rng.randrange(3)
        ops = []
        for sign in (+1, -1):
            ops.append((f"verify [W,D[E]] on-shell {sign:+d}",
                        self._verify(self.comm[i], self.comm_closed[i], self.ctx, "on-shell", sign,
                                     rng.choice(names), s(), 60, True)))
        ops.append(("verify [W,D[E]] box",
                    self._verify(self.comm[i], self.comm_closed[i], self.ctx, "box", 1,
                                 rng.choice(names), s(), 60, True)))
        ops.append(("verify W[p]E on-shell",
                    self._verify(self.wE[i], self.wE_closed[i], self.ctx, "on-shell",
                                 rng.choice((1, -1)), None, s(), 60, True)))
        ops.append(("must fail: W[p]f vs D[f,p]",
                    self._verify(self.wf[i], self.df[i], self.ctx, "on-shell", 1,
                                 rng.choice(names), s(), 60, False)))
        j = (i + rng.randint(1, 2)) % 3
        ops.append(("must fail: p_i vs p_j",
                    self._verify(self.P[i], self.P[j], self.ctx, "box", 1, None, s(), 60, False)))
        for sign in (+1, -1):
            ops.append((f"fd_whole batch {sign:+d}", self._fd_batch(i, sign, s())))
        ops.append(("fd_commutator_pE batch", self._fd_comm_batch(i, s())))
        ops.append(("retarded cubic verify",
                    self._verify(self.cubic_w, self.cubic_closed, self.cubic, "on-shell", 1,
                                 None, s(), 30, True)))
        ops.append(("retarded cubic fd_whole batch", self._fd_retarded(s())))
        ops.append(("retarded half-speed verify",
                    self._verify(self.half_w, self.m.wd.Expr.const(2), self.half, "on-shell", 1,
                                 None, s(), 60, True)))
        return ops

    def _verify(self, lhs, rhs, ctx, kind, sign, closure, seed, samples, holds):
        m = self.m

        def op():
            opaques = {"f": self.closures[closure]} if closure else None
            report = m.numcheck.verify_identity(
                lhs, rhs, ctx, m.numcheck.SamplerSpec(kind=kind, sign=sign),
                seed=seed, samples=self.n(samples), opaques=opaques,
            )
            if holds:
                self.counts["numcheck.eval_failures"] += report.failures
                return report.passed
            return not report.passed

        return op

    def _fd_batch(self, i, sign, seed):
        m = self.m

        def op():
            nc = m.numcheck
            points = m.depctx.sample_on_shell(self.ctx, self.n(8), seed, sign=sign)
            v = self.ctx.find_symbol(f"p{i + 1}")
            for e, sym in self.probes:
                for vals in points:
                    b = nc.NumericBinding(values=dict(vals))
                    num = nc.fd_whole(e, v, self.ctx, b, h=1e-5, sign=sign)
                    ref = nc.evaluate(sym[i], b)
                    if not abs(num - ref) <= 1e-6 * max(abs(ref), 1.0):
                        return False
            return True

        return op

    def _fd_comm_batch(self, i, seed):
        m = self.m

        def op():
            nc = m.numcheck
            spec = nc.SamplerSpec(kind="box")
            for closure in self.closures.values():
                for k in range(self.n(8)):
                    b = nc.NumericBinding(values=spec.draw(self.ctx, k, seed), opaques={"f": closure})
                    num = nc.fd_commutator_pE(closure.fn, i + 1, b, h=1e-4)
                    ref = nc.evaluate(self.fE_over[i], b)
                    if not abs(num - ref) <= 1e-3 * max(abs(ref), 1e-8):
                        return False
            return True

        return op

    def _fd_retarded(self, seed):
        m = self.m

        def op():
            nc = m.numcheck
            TP = m.wd.Expr.symbol(self.tp)
            for vals in m.depctx.sample_on_shell(self.cubic, self.n(12), seed):
                b = nc.NumericBinding(values=dict(vals))
                num = nc.fd_whole(TP, self.t, self.cubic, b, h=1e-5)
                ref = nc.evaluate(self.cubic_closed, b)
                if not abs(num - ref) <= 1e-5 * max(abs(ref), 1.0):
                    return False
            return True

        return op


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

MASS_SHELL_CTX = """\
independent p1 p2 p3
param m
dependent E
constraint E^2 - p1^2 - p2^2 - p3^2 - m^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
representation dE/dp3 = p3/E
opaque f(p1,p2,p3,E)
"""
NONCOMMUTING_CTX = MASS_SHELL_CTX + """\
commutator [p1, p2] = kappa12
commutator [p1, p3] = kappa13
commutator [p2, p3] = kappa23
ordering paper
"""
DERIVE_EXPRS = ("f", "E", "p1*E^2/(m+E)", "f*E^2", "sqrt(m^2+p1^2)*f", "D[f,E]*p2/E")
# Identities that hold on both sheets of the mass shell.
VERIFY_IDENTITIES = (
    ("E^2", "p1^2+p2^2+p3^2+m^2"),
    ("p1*D[f,E]/E^2", "p1*D[f,E]/(p1^2+p2^2+p3^2+m^2)"),
    ("E^2*D[f,p1]", "D[f,p1]*(p1^2+p2^2+p3^2+m^2)"),
)
# Placeholders in golden keys and outputs for the run's own directory.
CTX, NC_CTX, OUT = "<ctx>", "<nc-ctx>", "<out>"


def cli_derive(expr, wrt, fmt):
    return ["derive", CTX, "--expr", expr, "--wrt", wrt, "--format", fmt]


def cli_commutator(i, b, feynman):
    argv = ["commutator", NC_CTX, "--a", f"W[p{i}]", "--b", b, "--apply", "f", "--ordering", "paper"]
    return argv + (["--feynman"] if feynman else [])


def cli_scenario(sign, ordering):
    return ["scenario", "mass-shell", "--dim", "3", "--sign", str(sign), "--ordering", ordering,
            "--format", "json", "--out", OUT]


def cli_verify(identity, closure, seed, sign):
    lhs, rhs = VERIFY_IDENTITIES[identity]
    return ["verify", CTX, "--lhs", lhs, "--rhs", rhs, "--samples", "1000", "--seed", str(seed),
            "--closure", closure, "--sign", str(sign)]


def _commutator_bs(i):
    return ["D[E]"] + [f"W[p{j}]" for j in (1, 2, 3) if j != i]


def cli_domain():
    """Every command line a cli cycle can draw."""
    for expr in DERIVE_EXPRS:
        for wrt in ("p1", "p2", "p3", "E"):
            for fmt in FORMATS:
                yield cli_derive(expr, wrt, fmt)
    for i in (1, 2, 3):
        for b in _commutator_bs(i):
            for feynman in (False, True):
                yield cli_commutator(i, b, feynman)
    for sign in (1, -1):
        for ordering in ("commuting", "operator", "paper"):
            yield cli_scenario(sign, ordering)
    for identity in range(len(VERIFY_IDENTITIES)):
        for closure in ("poly", "rational", "exponential"):
            for seed in range(4):
                for sign in (1, -1):
                    yield cli_verify(identity, closure, seed, sign)


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_in_process(m, argv, workdir: Path):
    """Run the CLI inside this process: (exit code, normalized stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main(_localize(argv, workdir))
    return rc, _normalize(buf.getvalue(), workdir)


def write_contexts(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "ms.ctx").write_text(MASS_SHELL_CTX, encoding="utf-8")
    (workdir / "nc.ctx").write_text(NONCOMMUTING_CTX, encoding="utf-8")


def _localize(argv, workdir: Path):
    sub = {CTX: str(workdir / "ms.ctx"), NC_CTX: str(workdir / "nc.ctx"), OUT: str(workdir)}
    return [sub.get(a, a) for a in argv]


def _normalize(stdout: str, workdir: Path) -> str:
    return stdout.replace(str(workdir), OUT)


def cli_digest(rc: int, stdout: str) -> str:
    return digest(f"exit {rc}\n{stdout}")


class Cli:
    """Two of the six commands in a cycle are `verify`, so that p75 falls
    inside the group of verify runs and p50 inside the group of the shorter
    commands, not on the edge between them."""

    name = "cli"
    tail_percentile = 75
    cycles_per_pass = 2

    def setup(self, m, seed: int, tiny: bool):
        self.m, self.seed = m, seed
        self.src = Path(m.wd.__file__).resolve().parent.parent
        self.workdir = BENCH_DIR / "out" / f"cli-{os.getpid()}"
        write_contexts(self.workdir)
        self.golden = load_golden()["cli"]
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.counts = {}

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def cycle(self, c: int, in_process: bool = False):
        rng = random.Random(f"{self.seed}/{c}")
        i = rng.randint(1, 3)

        def derive(formats):
            return cli_derive(rng.choice(DERIVE_EXPRS), rng.choice(("p1", "p2", "p3", "E")),
                              rng.choice(formats))

        def verify():
            return cli_verify(rng.randrange(len(VERIFY_IDENTITIES)),
                              rng.choice(("poly", "rational", "exponential")),
                              rng.randrange(4), rng.choice((1, -1)))

        commands = [
            ("derive", derive(("text", "latex"))),
            ("commutator --apply", cli_commutator(i, rng.choice(_commutator_bs(i)), rng.random() < 0.5)),
            ("scenario mass-shell", cli_scenario(rng.choice((1, -1)),
                                                 rng.choice(("commuting", "operator", "paper")))),
            ("verify --samples 1000", verify()),
            ("derive --format json", derive(("json",))),
            ("verify --samples 1000", verify()),
        ]
        run = self._in_process if in_process else self._subprocess
        return [(label, run(argv)) for label, argv in commands]

    def _subprocess(self, argv):
        def op():
            proc = subprocess.run(
                [sys.executable, "-m", "wholediff", *_localize(argv, self.workdir)],
                capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120,
            )
            out = _normalize(proc.stdout, self.workdir)
            return cli_digest(proc.returncode, out) == self.golden[cli_key(argv)]

        return op

    def _in_process(self, argv):
        def op():
            rc, out = cli_in_process(self.m, argv, self.workdir)
            return cli_digest(rc, out) == self.golden[cli_key(argv)]

        return op


WORKLOADS = {w.name: w for w in (DeriveTower, OperatorAlgebra, VerifySweep, Cli)}
