import math
import random
from fractions import Fraction

import pytest

from wholediff.depctx import (
    DependencyContext,
    _Stream,
    _brent,
    _streams,
    implicit_partial,
    sample_on_shell,
    solve_dependents,
)
from wholediff.errors import DegenerateConstraintError, RootSolveError
from wholediff.numcheck import NumericBinding, evaluate
from wholediff.textio import parse_context, serialize_context
from wholediff.symexpr import Expr, Symbol, SymbolKind, equals_canonical

p1 = Symbol("p1", SymbolKind.INDEPENDENT)
p2 = Symbol("p2", SymbolKind.INDEPENDENT)
m = Symbol("m", SymbolKind.PARAMETER)
E = Symbol("E", SymbolKind.DEPENDENT)
P1, P2, M, EE = (Expr.symbol(s) for s in (p1, p2, m, E))

G = M ** 2 + P1 ** 2 + P2 ** 2 - EE ** 2


def make_ctx():
    ctx = DependencyContext(
        independents=(p1, p2),
        parameters=(m,),
        dependents=(E,),
        constraints=((G, E),),
        ordering_mode="commuting",
    )
    return ctx


def test_implicit_partial_mass_shell():
    assert equals_canonical(implicit_partial(G, E, p1), P1 / EE)


def test_implicit_partial_degenerate():
    with pytest.raises(DegenerateConstraintError):
        implicit_partial(P1 ** 2, E, p1)


def test_declared_representation_wins():
    ctx = make_ctx()
    ctx.declare_representation(E, p1, 2 * P1 / EE)
    assert equals_canonical(ctx.representation(E, p1), 2 * P1 / EE)
    # the other component still falls back to the constraint
    assert equals_canonical(ctx.representation(E, p2), P2 / EE)


def test_derived_representation_is_made_once_per_pair():
    """A representation that is not declared is implicit_partial of the
    constraint that solves u, for each (u, v); a declared one wins, and
    replacing the constraints changes the derived ones."""
    ctx = make_ctx()
    assert equals_canonical(ctx.representation(E, p1), P1 / EE)
    assert equals_canonical(ctx.representation(E, p2),
                            implicit_partial(ctx.constraint_for(E), E, p2))
    assert ctx.representation(m, p1) is None

    ctx.declare_representation(E, p1, 2 * P1 / EE)
    assert equals_canonical(ctx.representation(E, p1), 2 * P1 / EE)
    del ctx.representations[(E, p1)]
    assert equals_canonical(ctx.representation(E, p1), P1 / EE)

    ctx.constraints = ((P1 ** 2 - EE ** 2, E),)
    assert equals_canonical(ctx.representation(E, p2), Expr.zero())
    assert equals_canonical(ctx.representation(E, p1), P1 / EE)


def test_representations_are_keyed_by_symbol():
    """A declared representation belongs to its dependent and independent,
    not to every symbol that shares their names; the context file still
    lists the representations sorted by name."""
    ctx = make_ctx()
    ctx.declare_representation(E, p2, 3 * P2 / EE)
    ctx.declare_representation(E, p1, 2 * P1 / EE)
    E_param = Symbol("E", SymbolKind.PARAMETER)
    p1_param = Symbol("p1", SymbolKind.PARAMETER)
    assert ctx.representation(E_param, p1) is None
    assert equals_canonical(ctx.representation(E, p1_param), Expr.zero())
    assert equals_canonical(ctx.representation(E, p1), 2 * P1 / EE)
    assert set(ctx.representations) == {(E, p1), (E, p2)}
    lines = [ln for ln in serialize_context(ctx).splitlines() if ln.startswith("representation")]
    assert lines == ["representation dE/dp1 = 2*p1/E", "representation dE/dp2 = 3*p2/E"]


def test_validate_clean_and_warning():
    ctx = make_ctx()
    assert all(d.level != "error" for d in ctx.validate())
    ctx.declare_representation(E, p1, 2 * P1 / EE)  # disagrees on-shell
    diags = ctx.validate()
    assert any(d.level == "warning" and "disagrees" in d.message for d in diags)


@pytest.mark.parametrize("power, verdict", [
    (120, "was not checked against the constraint-derived form: no on-shell sample could "
          "be drawn; the last failure: could not draw an admissible on-shell sample; the last "
          "draw: constraint for 'u' overflows or is not finite at u = -1000.0"),
    (3, "disagrees with the constraint-derived form on the constraint surface"),
])
def test_validate_warns_about_a_wrong_representation_it_cannot_sample(power, verdict):
    """du/dx = 3*x is wrong for u^k = x^2 + 1.  With k = 3 sampling shows it;
    with k = 120 every draw on both sheets overflows, and validate says that
    it could not check the representation instead of approving it."""
    ctx = parse_context(f"independent x\ndependent u\nconstraint u^{power} - x^2 - 1 = 0 "
                        "solves u\nrepresentation du/dx = 3*x\nopaque f(x,u)\n")
    assert [(d.level, d.message) for d in ctx.validate()] == [
        ("warning", f"declared representation du/dx {verdict}")]


def test_validate_missing_representation():
    ctx = DependencyContext(
        independents=(p1,), dependents=(E,), ordering_mode="commuting"
    )
    diags = ctx.validate()
    assert any("missing representation" in d.message for d in diags)


def test_validate_duplicate_names():
    clash = Symbol("p1", SymbolKind.PARAMETER)
    ctx = DependencyContext(
        independents=(p1,), parameters=(clash,), ordering_mode="commuting"
    )
    assert any("declared both" in d.message for d in ctx.validate())


def test_sample_on_shell_deterministic_and_exact():
    ctx = make_ctx()
    pts1 = sample_on_shell(ctx, 10, seed=3)
    pts2 = sample_on_shell(ctx, 10, seed=3)
    assert pts1 == pts2
    for vals in pts1:
        g = evaluate(G, NumericBinding(values=vals))
        assert abs(g) <= 1e-12
        assert vals["E"].real > 0


def test_sample_on_shell_negative_sheet():
    ctx = make_ctx()
    for vals in sample_on_shell(ctx, 5, seed=1, sign=-1):
        assert vals["E"].real < 0
        assert abs(evaluate(G, NumericBinding(values=vals))) <= 1e-12


def test_sample_overrides_345():
    """At p1 = 3, p2 = 0, m = 4 the positive sheet has E = 5."""
    ctx = make_ctx()
    sol = solve_dependents(ctx, {"p1": 3.0, "p2": 0.0, "m": 4.0})
    assert sol["E"] == pytest.approx(5.0, abs=1e-12)


def test_solve_dependents_near_keeps_sheet():
    ctx = make_ctx()
    vals = {"p1": 3.0, "p2": 0.0, "m": 4.0}
    sol = solve_dependents(ctx, vals, near={"E": -5.2})
    assert sol["E"] == pytest.approx(-5.0)


def test_solve_dependents_follows_replaced_constraints():
    """The per-context solve plan is made again when the constraints or the
    dependents of the context are replaced."""
    ctx = make_ctx()
    vals = {"p1": 3.0, "p2": 0.0, "m": 4.0}
    assert solve_dependents(ctx, vals)["E"] == 5.0
    ctx.constraints = ((G - Expr.const(11), E),)  # E^2 = 16 + 9 - 11
    assert solve_dependents(ctx, vals)["E"] == pytest.approx(math.sqrt(14.0))
    ctx.dependents = ()
    assert solve_dependents(ctx, vals) == {}


def test_solve_dependents_nonpolynomial_falls_back_to_bracketing():
    # constraint E^3 - p1 = 0 is cubic in the dependent: no closed form path
    t = Symbol("t", SymbolKind.DEPENDENT)
    T = Expr.symbol(t)
    ctx = DependencyContext(
        independents=(p1,),
        dependents=(t,),
        constraints=((T ** 3 - P1, t),),
        ordering_mode="commuting",
    )
    sol = solve_dependents(ctx, {"p1": 8.0})
    assert sol["t"] == pytest.approx(2.0, rel=1e-12)


def test_solve_dependents_no_real_root():
    ctx = make_ctx()
    with pytest.raises(RootSolveError):
        # E^2 = m^2 + p^2 always has real roots; force failure via a
        # constraint with none: E^2 + m^2 + 1 = 0
        bad = DependencyContext(
            independents=(p1,),
            parameters=(m,),
            dependents=(E,),
            constraints=((EE ** 2 + M ** 2 + Expr.one(), E),),
            ordering_mode="commuting",
        )
        solve_dependents(bad, {"p1": 1.0, "m": 1.0})


def test_sample_on_shell_gives_up_after_64_draws(monkeypatch):
    """E^2 + p1^2 + m^2 = 0 has no real point: each sample is drawn 64
    times, then the sampler raises with the last draw."""
    import wholediff.depctx as depctx

    draws = []
    draw_free = depctx._draw_free
    monkeypatch.setattr(depctx, "_draw_free", lambda c, r: draws.append(1) or draw_free(c, r))
    ctx = DependencyContext(
        independents=(p1,), parameters=(m,), dependents=(E,),
        constraints=((EE ** 2 + P1 ** 2 + M ** 2, E),), ordering_mode="commuting",
    )
    with pytest.raises(RootSolveError, match="could not draw") as exc:
        sample_on_shell(ctx, 3, seed=0)
    assert len(draws) == 64
    assert set(exc.value.sample) == {"p1", "m"}


def test_solve_dependents_brackets_the_negative_sheet():
    """A cubic constraint goes to the bracketed Brent solve; sign=-1 mirrors
    the bracket to [-1e3, -1e-6], where E^3 = p1^3 + m^3 = -7 has its root."""
    ctx = DependencyContext(
        independents=(p1,), parameters=(m,), dependents=(E,),
        constraints=((EE ** 3 - P1 ** 3 - M ** 3, E),), ordering_mode="commuting",
    )
    sol = solve_dependents(ctx, {"p1": -2.0, "m": 1.0}, sign=-1)
    assert sol["E"] == pytest.approx(-(7 ** (1 / 3)), rel=1e-12)
    assert sol["E"] == pytest.approx(-1.9129, abs=1e-4)


def _overflow(x):
    raise OverflowError("complex exponentiation")


@pytest.mark.parametrize("f", [
    lambda x: _overflow(x) if x > 9 else x - 3,
    lambda x: _overflow(x) if 2 < x < 4 else x - 3,
    lambda x: math.nan if x < 1 else x - 3,
    lambda x: math.nan if 2 < x < 4 else x - 3,
    lambda x: -math.inf if 2 < x < 4 else x - 3,
], ids=["overflow-at-an-end", "overflow-inside", "nan-at-an-end", "nan-inside", "inf-inside"])
def test_brent_refuses_a_probe_that_overflows_or_is_not_finite(f):
    """On [0, 10] the first step is the secant to x = 3, so the inner cases
    fail there: RootSolveError, whichever probe it is."""
    with pytest.raises(RootSolveError, match="overflows or is not finite") as exc:
        _brent(lambda vals, x: f(x), {"x": 0.5}, 0.0, 10.0, "u")
    assert exc.value.sample == {"x": 0.5}


def test_brent_reads_the_bracket_from_the_signs_not_their_product():
    """Values of 1e-200 multiply to 0, which a product test reads as a sign
    change: ends of one sign are refused, ends of two are a bracket."""
    assert 1e-200 * 2e-200 == 0.0
    with pytest.raises(RootSolveError, match=r"could not bracket a root for 'u' in \[1.0, 2.0\]"):
        _brent(lambda vals, x: 1e-200 * (1 + x * x), {}, 1.0, 2.0, "u")
    assert _brent(lambda vals, x: 1e-200 * (x - 1.5), {}, 1.0, 2.0, "u") == 1.5


def test_brent_gives_up_after_100_steps():
    """A step function on [-1e300, 1e300] needs about a thousand halvings:
    the two ends and 100 steps are probed, then RootSolveError."""
    probes = []
    step = lambda vals, x: probes.append(x) or (-1.0 if x < 0.1 else 1.0)
    with pytest.raises(RootSolveError, match="did not converge in 100 steps"):
        _brent(step, {}, -1e300, 1e300, "u")
    assert len(probes) == 102


# ---------------------------------------------------------------------------
# The per-sample stream against numpy's default_rng([seed, index])
# ---------------------------------------------------------------------------

STREAM_SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200)
STREAM_INDICES = (0, 999, 2**32 + 1)
# The two ranges the samplers draw from, alternated.
RANGES = ((-2.0, 2.0), (0.5, 2.0))


def _draws(rng, n):
    return [rng.uniform(*RANGES[j % 2]) for j in range(n)]


# numpy's SeedSequence and PCG64 seeding, one 32-bit word at a time, as
# numpy/random/bit_generator.pyx and pcg64.h write them: the reference for
# the lane kernel, with no numpy needed.
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _reference_seed(seed, index):
    """(state, inc) of PCG64 seeded by default_rng([seed, index])."""
    def words(n):
        out = [n & _M32]
        while n > _M32:
            n >>= 32
            out.append(n & _M32)
        return out

    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    entropy = words(seed) + words(index)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    const, state = INIT_B, []
    for i in range(8):  # generate_state(4, uint64): eight words, little-endian pairs
        value = pool[i % 4] ^ const
        const = const * MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    s64 = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    inc = (s64[2] << 64 | s64[3]) << 1 & _M128 | 1
    return (inc + (s64[0] << 64 | s64[1])) * PCG_MULT + inc & _M128, inc


def _seeded(rngs):
    return [(rng.state, rng.inc) for rng in rngs]


@pytest.mark.parametrize("index", STREAM_INDICES)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_matches_scalar_reference(seed, index):
    assert (_Stream(seed, index).state, _Stream(seed, index).inc) == _reference_seed(seed, index)


@pytest.mark.parametrize("count", (1, 2, 61, 1025))
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_streams_seeded_together_match_scalar_reference(seed, count):
    """Every lane of a batch, 1025 crossing a chunk, is the stream of its
    own index."""
    want = [_reference_seed(seed, k) for k in range(count)]
    assert _seeded(_streams(seed, 0, count)) == want


@pytest.mark.parametrize("start, stop", [
    (2**32 - 3, 2**32 + 4),  # one word, then two
    (2**64 - 1, 2**64 + 2),  # two words, then three
    (2**128 - 2, 2**128 + 1),  # four words, then five: lanes wider than 128 bits
    (5, 5),
])
def test_streams_split_where_the_index_gains_a_word(start, stop):
    for seed in (7, 2**64 + 3):
        want = [_reference_seed(seed, k) for k in range(start, stop)]
        assert _seeded(_streams(seed, start, stop)) == want


def test_sample_on_shell_draws_each_sample_from_its_index_stream(monkeypatch):
    """The batch-seeded sampler gives the points that per-index streams
    give, redraws included (seed 4: some samples of the narrow shell are
    drawn again)."""
    import wholediff.depctx as depctx

    narrow = DependencyContext(
        independents=(p1, p2), parameters=(m,), dependents=(E,),
        constraints=((EE ** 2 - P1 ** 2 - P2 ** 2 + M ** 2, E),), ordering_mode="commuting",
    )
    for ctx in (make_ctx(), narrow):
        got = sample_on_shell(ctx, 70, seed=4, sign=-1)
        monkeypatch.setattr(depctx, "_streams",
                            lambda seed, start, stop: (_Stream(seed, k) for k in range(start, stop)))
        assert sample_on_shell(ctx, 70, seed=4, sign=-1) == got
        monkeypatch.undo()


@pytest.mark.parametrize("index", STREAM_INDICES)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_matches_numpy_default_rng(seed, index):
    """First draws and a run as long as the 64 redraws of four values each
    that sample_on_shell can make, equal to the last bit; seeds and indices
    of one, two and seven 32-bit words."""
    np = pytest.importorskip("numpy")
    n = 64 * 4
    assert _draws(_Stream(seed, index), n) == _draws(np.random.default_rng([seed, index]), n)


def test_stream_matches_numpy_default_rng_random_pairs():
    np = pytest.importorskip("numpy")
    rnd = random.Random(20)
    for _ in range(3000):
        seed = rnd.getrandbits(rnd.choice((3, 16, 32, 33, 64, 96)))
        index = rnd.getrandbits(rnd.choice((4, 10, 32, 40)))
        got = _draws(_Stream(seed, index), 5)
        assert got == _draws(np.random.default_rng([seed, index]), 5), (seed, index)


def test_stream_rejects_invalid_seeds_as_numpy_did():
    np = pytest.importorskip("numpy")
    for make in (_Stream, lambda seed, index: np.random.default_rng([seed, index])):
        with pytest.raises(ValueError):
            make(-1, 0)
        with pytest.raises(ValueError):
            make(0, -5)
        with pytest.raises(TypeError):
            make(1.0, 0)
