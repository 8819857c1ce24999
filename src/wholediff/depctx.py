"""Dependency contexts: which variables are independent, which are
dependent, and how dependent-variable partials are represented.

A representation may be declared explicitly or derived from an implicit
constraint g = 0 via the implicit function theorem; when both exist, the
declared form wins in the derivative engine (representation choice is the
experiment) and the constraint is used for sampling and validation.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Tuple

from .errors import (
    ContextError,
    DegenerateConstraintError,
    EvaluationError,
    RootSolveError,
)
from .symexpr import (
    CommutatorTable,
    Expr,
    Symbol,
    SymbolKind,
    _Frozen,
    equals_canonical,
)

ORDERING_MODES = ("commuting", "operator", "paper")

# Root-solve bracket on the positive sheet (mirrored for the negative one),
# and the smallest admissible |dependent| in an on-shell sample.
_BRACKET = (1e-6, 1e3)
_MIN_DEPENDENT = 1e-6

# validate() compares a declared representation with the constraint-derived
# one at this many on-shell samples per sheet, drawn from this seed, to this
# relative tolerance.
_AGREEMENT_SAMPLES = 8
_AGREEMENT_SEED = 0
_AGREEMENT_TOL = 1e-9


class Diagnostic(_Frozen):
    __slots__ = ("level", "message")

    def __init__(self, level: str, message: str):  # level: "error" | "warning"
        self._init(level, message)

    def __str__(self):
        return f"{self.level}: {self.message}"


def implicit_partial(g: Expr, u: Symbol, v: Symbol) -> Expr:
    """du/dv implied by the constraint g(u, v, ...) = 0."""
    gu = Expr._coerce(g).diff_plain(u)
    if gu.is_zero():
        raise DegenerateConstraintError(
            f"constraint does not determine {u.name} (derivative in {u.name} vanishes)"
        )
    gv = Expr._coerce(g).diff_plain(v)
    return -gv / gu


class DependencyContext:
    __slots__ = ("independents", "parameters", "dependents", "representations",
                 "constraints", "opaques", "commutators", "ordering_mode", "_plans")

    # representations: (dependent, independent) symbol pair -> declared derivative
    def __init__(self, independents: Tuple[Symbol, ...], parameters: Tuple[Symbol, ...] = (),
                 dependents: Tuple[Symbol, ...] = (),
                 constraints: Tuple[Tuple[Expr, Symbol], ...] = (),
                 opaques: Tuple[Tuple[Symbol, Tuple[Symbol, ...]], ...] = (),
                 commutators: Optional[CommutatorTable] = None, ordering_mode: str = "operator"):
        if ordering_mode not in ORDERING_MODES:
            raise ContextError(f"unknown ordering mode {ordering_mode!r}")
        self.independents = tuple(independents)
        self.parameters = tuple(parameters)
        self.dependents = tuple(dependents)
        self.representations = {}
        self.constraints = tuple(constraints)
        self.opaques = tuple((f, tuple(a)) for f, a in opaques)
        self.commutators = CommutatorTable() if commutators is None else commutators
        self.ordering_mode = ordering_mode
        self._plans = None  # (constraints, dependents, plans) as _solve_plans last built them

    # -- lookups ---------------------------------------------------------

    def is_independent(self, s: Symbol) -> bool:
        return s in self.independents

    def is_dependent(self, s: Symbol) -> bool:
        return s in self.dependents

    def all_symbols(self) -> Tuple[Symbol, ...]:
        out = list(self.independents) + list(self.parameters) + list(self.dependents)
        out += [f for f, _ in self.opaques]
        for a, b, v in self.commutators.pairs():
            out += [s for s in v.symbols() if s not in out]
        return tuple(dict.fromkeys(out))

    def find_symbol(self, name: str) -> Optional[Symbol]:
        for s in self.all_symbols():
            if s.name == name:
                return s
        return None

    def constraint_for(self, u: Symbol):
        for g, solves in self.constraints:
            if solves == u:
                return g
        return None

    def representation(self, u: Symbol, v: Symbol) -> Optional[Expr]:
        """Declared representation if present, else one derived from the
        constraint solving u, else None."""
        rep = self.representations.get((u, v))
        if rep is not None:
            return rep
        g = self.constraint_for(u)
        if g is not None:
            return implicit_partial(g, u, v)
        return None

    def declare_representation(self, u: Symbol, v: Symbol, expr):
        self.representations[(u, v)] = Expr._coerce(expr)

    # -- validation ------------------------------------------------------

    def validate(self) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        names: Dict[str, str] = {}
        groups = (
            ("independent", self.independents),
            ("parameter", self.parameters),
            ("dependent", self.dependents),
            ("opaque", [f for f, _ in self.opaques]),
        )
        for role, syms in groups:
            for s in syms:
                if s.name in names:
                    how = "twice" if names[s.name] == role else f"both {names[s.name]} and {role}"
                    diags.append(Diagnostic("error", f"symbol '{s.name}' declared {how}"))
                names.setdefault(s.name, role)

        for fn, args in self.opaques:
            for a in args:
                if a.name not in names:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"opaque {fn.name} argument '{a.name}' is not a declared symbol",
                        )
                    )

        for u in self.dependents:
            n = sum(dep == u for _, dep in self.constraints)
            if n > 1:
                msg = f"dependent '{u.name}' is solved by {n} constraints"
                diags.append(Diagnostic("error", msg))
            g = self.constraint_for(u)
            for v in self.independents:
                declared = self.representations.get((u, v))
                if declared is None and g is None:
                    diags.append(
                        Diagnostic(
                            "error", f"missing representation ({u.name},{v.name})"
                        )
                    )
                if declared is not None:
                    bad = [
                        s
                        for s in declared.symbols()
                        if s.kind == SymbolKind.OPAQUE
                        or (s in self.dependents and s != u)
                    ]
                    for s in bad:
                        diags.append(
                            Diagnostic(
                                "error",
                                f"representation d{u.name}/d{v.name} mentions "
                                f"disallowed symbol '{s.name}'",
                            )
                        )

        # numeric on-shell agreement of declared vs constraint-derived forms
        for u in self.dependents:
            g = self.constraint_for(u)
            if g is None:
                continue
            for v in self.independents:
                declared = self.representations.get((u, v))
                if declared is None:
                    continue
                try:
                    derived = implicit_partial(g, u, v)
                except DegenerateConstraintError as exc:
                    diags.append(Diagnostic("error", str(exc)))
                    break
                if equals_canonical(declared, derived):
                    continue
                try:
                    ok = self._numeric_agreement(declared, derived)
                except ContextError:
                    continue
                except (EvaluationError, RootSolveError) as exc:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"declared representation d{u.name}/d{v.name} was not checked "
                            f"against the constraint-derived form: {exc}",
                        )
                    )
                    continue
                if not ok:
                    diags.append(
                        Diagnostic(
                            "warning",
                            f"declared representation d{u.name}/d{v.name} disagrees "
                            "with the constraint-derived form on the constraint surface",
                        )
                    )
        return diags

    def _numeric_agreement(self, a: Expr, b: Expr) -> bool:
        """a and b agree at the on-shell samples of both sheets; a sheet that
        cannot be sampled is skipped, and RootSolveError, naming the last
        failure, says that neither could be."""
        from .numcheck import _program

        a_at, b_at = _program(a), _program(b)
        failures = []
        for sign in (+1, -1):
            try:
                points = sample_on_shell(self, _AGREEMENT_SAMPLES, _AGREEMENT_SEED, sign=sign)
            except (RootSolveError, DegenerateConstraintError) as exc:
                failures.append(exc)
                continue
            for vals in points:
                va, vb = a_at(vals, {}), b_at(vals, {})
                denom = max(abs(va), abs(vb), 1e-30)
                if abs(va - vb) / denom > _AGREEMENT_TOL:
                    return False
        if len(failures) == 2:
            raise RootSolveError("no on-shell sample could be drawn; the last failure: "
                                 f"{failures[-1]}")
        return True


# ---------------------------------------------------------------------------
# On-shell sampling
# ---------------------------------------------------------------------------


# The stream of numpy's default_rng([seed, index]), reproduced bit for bit:
# SeedSequence hashes the 32-bit words of seed and index into a pool of four
# words and mixes them, the pool seeds PCG64, and each draw is one 128-bit
# LCG step and the XSL-RR output (O'Neill, HMC-CS-2014-0905).  The hash
# constants do not depend on the data, so they are made once.
#
# The samples of one call share the seed and differ only in the index, so
# _seed_lanes runs the same 32-bit steps once for all of them, as lanes of
# one Python integer (SIMD within a register; Fisher & Dietz, LCPC 1998).
# Each index still gets exactly the stream of default_rng([seed, index]).
_M16, _M32, _M64, _M128 = (1 << 16) - 1, (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# (initial value, multiplier) of the hash constants for mixing the pool and
# for reading the state words out of it.
_HASH_MIX = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)
# Lanes seeded together by _streams; bounds its memory at any sample count.
_CHUNK = 1024


def _hash_consts(init: int, mult: int, n: int) -> List[Tuple[int, int]]:
    """(xor, multiplier) of the first n SeedSequence hash steps."""
    out = []
    for _ in range(n):
        nxt = init * mult & _M32
        out.append((init, nxt))
        init = nxt
    return out


def _pool_steps(n: int) -> List[Tuple[int, int, int, int]]:
    """(source, destination, xor, multiplier) of the mixing steps for n
    entropy words: every pool word into every other, then each word past
    the fourth (kept at pool index 4, 5, ...) into every pool word."""
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    pairs += [(s, d) for s in range(4, n) for d in range(4)]
    return [p + c for p, c in zip(pairs, _hash_consts(*_HASH_MIX, 4 + len(pairs))[4:])]


_POOL_HASH = _hash_consts(*_HASH_MIX, 4)
# The hashed pool word of a missing entropy word (fewer than four).
_POOL_ZERO = [(x * m & _M32) ^ (x * m & _M32) >> 16 for x, m in _POOL_HASH]
# The mixing steps for each number of entropy words up to eight: prefixes
# of the steps for eight.
_MIX_STEPS = _pool_steps(8)
_POOL_MIX = [_MIX_STEPS[:4 * max(n, 4) - 4] for n in range(9)]
# (pool index, shift, then xor and multiplier of state words i and i + 4):
# both read pool word i and sit at the same shift in the two 128-bit results.
_READ_HASH = _hash_consts(*_HASH_STATE, 8)
_POOL_STATE = [(i, shift) + _READ_HASH[i] + _READ_HASH[i + 4]
               for i, shift in enumerate((64, 96, 0, 32))]


def _seed_words(n) -> List[int]:
    """The little-endian 32-bit words of a non-negative integer, as numpy
    reads a seed: 0 is one word."""
    n = operator.index(n)
    if 0 <= n <= _M32:
        return [n]
    if n < 0:
        raise ValueError(f"seed must be non-negative, not {n}")
    words = []
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_lanes(entropy: List[int], ones: int) -> Tuple[int, int]:
    """The PCG64 initial state and increment that SeedSequence makes from
    the entropy words, one stream per lane: ones is 1 in every lane (1 for
    one stream), an entropy word holds a 32-bit word in every lane, and each
    result a 128-bit value.  No step leaves a lane of at least 128 bits: each
    >> 16 is masked to its lane's 16 bits, numpy's (L*x - R*y) mod 2^32 is
    (L*x + (2^32 - R)*y) mod 2^32, which borrows from no lane, and a hash
    that feeds a mix keeps high bits below bit 97, which the mix's mask drops."""
    n = len(entropy)
    steps = _POOL_MIX[n] if n <= 8 else _pool_steps(n)
    hashes, zero, reads = _POOL_HASH, _POOL_ZERO[n:], _POOL_STATE
    if ones != 1:  # put each constant in every lane
        hashes = [(x * ones, m) for x, m in hashes]
        zero = [z * ones for z in zero]
        steps = [(s, d, x * ones, m) for s, d, x, m in steps]
        reads = [(i, shift, x * ones, m, y * ones, k) for i, shift, x, m, y, k in reads]
    m16, m32 = _M16 * ones, _M32 * ones
    pool = []
    for w, (x, m) in zip(entropy, hashes):
        v = (w ^ x) * m & m32
        pool.append(v ^ v >> 16 & m16)
    pool += zero
    pool += entropy[4:]
    for s, d, x, m in steps:
        h = (pool[s] ^ x) * m
        r = (0xCA01F9DD * pool[d] + 0xB68C08EB * (h ^ h >> 16 & m16)) & m32
        pool[d] = r ^ r >> 16 & m16
    init = inc = 0
    for i, shift, x, m, y, k in reads:
        init |= ((pool[i] ^ x) * m & m32) << shift
        inc |= ((pool[i] ^ y) * k & m32) << shift
    # The read-outs' own >> 16 steps, four words of a result at once.
    m16 *= 0x1000000010000000100000001  # the low 16 bits of each 32-bit word
    init ^= init >> 16 & m16
    inc ^= inc >> 16 & m16
    # A lane's bit carried out by << 1 lands on bit 0 of the next, which | ones sets.
    return init, inc << 1 & _M128 * ones | ones


class _Stream:
    """Uniform draws from numpy's default_rng([seed, index]), bit for bit."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int, index: int):
        init, inc = _seed_lanes(_seed_words(seed) + _seed_words(index), 1)
        self.inc, self.state = inc, (inc + init) * _PCG_MULT + inc & _M128

    def uniform(self, lo: float, hi: float) -> float:
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (s >> 64 ^ s) & _M64
        r = s >> 122
        x = (x >> r | x << (64 - r)) & _M64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)


def _streams(seed: int, start: int, stop: int):
    """The _Stream of each index in range(start, stop), seeded _CHUNK
    lanes at a time.  A run of lanes stops where the index gains a 32-bit
    word (at 2^32, 2^64, ...): SeedSequence's steps depend on the word count."""
    seed_words = _seed_words(seed)
    while start < stop:
        words = len(_seed_words(start))
        n = min(stop, start + _CHUNK, 1 << 32 * words) - start
        bits = 32 * max(4, words)  # a lane holds its index and the 128-bit results
        size, lane = bits // 8, (1 << bits) - 1
        ones = ((1 << bits * n) - 1) // lane
        index = start * ones + ((n - 1 << bits * n) - ones + 1) // lane  # lane j: start + j
        entropy = [w * ones for w in seed_words]
        entropy += [index >> 32 * i & _M32 * ones for i in range(words)]
        inits, incs = (x.to_bytes(size * n, "little") for x in _seed_lanes(entropy, ones))
        for j in range(0, size * n, size):
            rng = _Stream.__new__(_Stream)
            rng.inc = inc = int.from_bytes(incs[j:j + size], "little")
            init = int.from_bytes(inits[j:j + size], "little")
            rng.state = (inc + init) * _PCG_MULT + inc & _M128
            yield rng
        start += n


def sample_on_shell(
    ctx: DependencyContext,
    count: int,
    seed: int,
    sign: int = +1,
) -> List[Dict[str, complex]]:
    """Deterministic numeric bindings on the constraint surface.

    Independents are drawn uniformly from [-2, 2], parameters from
    [1/2, 2].  Sample k draws from its own stream, numpy's
    default_rng([seed, k]) bit for bit; all the streams are seeded together.
    A sample that has no solution or a dependent with |value| < 1e-6 is
    drawn again from the same stream, up to 64 draws in all; then the
    RootSolveError names what went wrong with the last draw."""
    out = []
    for rng in _streams(seed, 0, count):
        for _attempt in range(64):
            vals = _draw_free(ctx, rng)
            try:
                dep_vals = solve_dependents(ctx, vals, sign=sign)
            except RootSolveError as exc:
                why = str(exc)
                continue
            if all(abs(v) >= _MIN_DEPENDENT for v in dep_vals.values()):
                vals.update(dep_vals)
                break
            why = f"a dependent below {_MIN_DEPENDENT} in magnitude"
        else:
            raise RootSolveError(
                f"could not draw an admissible on-shell sample; the last draw: {why}",
                sample=vals,
            )
        out.append(vals)
    return out


def _draw_free(ctx: DependencyContext, rng) -> Dict[str, complex]:
    """Independents uniform in [-2, 2], then parameters uniform in [1/2, 2],
    in declaration order."""
    vals: Dict[str, complex] = {}
    for s in ctx.independents:
        vals[s.name] = rng.uniform(-2.0, 2.0)
    for s in ctx.parameters:
        vals[s.name] = rng.uniform(0.5, 2.0)
    return vals


def _draw_box(ctx: DependencyContext, rng, sign: int) -> Dict[str, complex]:
    """_draw_free, then each dependent off-shell: sign times uniform in [1/2, 2]."""
    vals = _draw_free(ctx, rng)
    for s in ctx.dependents:
        vals[s.name] = float(sign) * rng.uniform(0.5, 2.0)
    return vals


def solve_dependents(
    ctx: DependencyContext,
    vals: Dict[str, complex],
    sign: int = +1,
    near: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Solve each dependent from its constraint at the given independent and
    parameter values.  Linear and pure-quadratic constraints are solved in
    closed form; anything else falls back to a bracketed 1-D root solve."""
    out: Dict[str, float] = {}
    for u, plan in _solve_plans(ctx):
        if plan is None:
            raise RootSolveError(f"no constraint solves dependent '{u.name}'")
        out[u.name] = _solve_one(
            plan, u, {**vals, **out} if out else vals, sign,
            None if near is None else near.get(u.name),
        )
    return out


def _solve_plans(ctx: DependencyContext):
    """(dependent, plan or None without a constraint) for each dependent,
    made once per context and made again if its constraints or dependents
    are replaced."""
    made = ctx._plans
    if made is None or made[0] is not ctx.constraints or made[1] is not ctx.dependents:
        plans = []
        for u in ctx.dependents:
            g = ctx.constraint_for(u)
            plans.append((u, None if g is None else _constraint_derivatives(g, u)))
        made = ctx._plans = (ctx.constraints, ctx.dependents, tuple(plans))
    return made[2]


def _constraint_derivatives(g: Expr, u: Symbol) -> tuple:
    """The solve plan of a (constraint, dependent) pair, derived and
    compiled once rather than at every sample and finite-difference probe:
    g, g_u and g_uu compiled as functions of (values, u), the last two None
    unless g_uuu is zero, so that the closed form applies (else _brent)."""
    from .numcheck import _compile  # loaded by the first context that samples

    gu = g.diff_plain(u)
    guu = gu.diff_plain(u)
    if guu.diff_plain(u).is_zero():
        return _compile(g, u.name), _compile(gu, u.name), _compile(guu, u.name)
    return _compile(g, u.name), None, None


def _solve_one(plan: tuple, u: Symbol, vals, sign, near) -> float:
    g, gu, guu = plan
    if guu is not None:
        a2 = 0.5 * guu(vals, 0.0).real
        a1 = gu(vals, 0.0).real
        a0 = g(vals, 0.0).real
        if abs(a2) < 1e-14:
            if abs(a1) < 1e-14:
                raise RootSolveError(
                    f"degenerate constraint for '{u.name}'", sample=dict(vals)
                )
            return -a0 / a1
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            raise RootSolveError(
                f"constraint for '{u.name}' has no real root", sample=dict(vals)
            )
        r1 = (-a1 + math.sqrt(disc)) / (2.0 * a2)
        r2 = (-a1 - math.sqrt(disc)) / (2.0 * a2)
        if near is not None:
            return r1 if abs(r1 - near) <= abs(r2 - near) else r2
        want = max(r1, r2) if sign >= 0 else min(r1, r2)
        return want

    lo, hi = _BRACKET
    if sign < 0:
        lo, hi = -hi, -lo
    if near is not None:
        width = max(1.0, abs(near))
        lo, hi = near - width, near + width
    return _brent(g, vals, lo, hi, u.name)


# The tolerances and step limit of the bracketed solve.
_XTOL, _RTOL, _MAX_STEPS = 1e-14, 8.9e-16, 100
_INF = math.inf


def _brent(g, vals, lo: float, hi: float, name: str) -> float:
    """The root in [lo, hi] of f(x) = g(vals, x).real by Brent's method
    (Brent 1973, ch. 4), step for step as scipy's brentq.c takes it: the
    root is bit-identical to brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16).

    RootSolveError where brentq raises, and at an infinite value, which
    brentq carries on with: at a probe that overflows, is NaN or infinite;
    at ends of one sign, read from their signs (their product can underflow
    to 0); after 100 steps without convergence.  A division by zero in an
    interpolation, inf or nan in C, makes that step a bisection, as there."""
    fpre, fcur = _value(g, vals, lo, name), _value(g, vals, hi, name)
    if fpre == 0:
        return lo
    if fcur == 0:
        return hi
    if (fpre < 0) == (fcur < 0):
        raise RootSolveError(
            f"could not bracket a root for '{name}' in [{lo}, {hi}]", sample=dict(vals)
        )
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_STEPS):
        if fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = _INF
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(g, vals, xcur, name)
    raise RootSolveError(
        f"root solve for '{name}' did not converge in {_MAX_STEPS} steps", sample=dict(vals)
    )


def _value(g, vals, x: float, name: str) -> float:
    """f(x) = g(vals, x).real, or RootSolveError if it overflows or is not finite."""
    try:
        fx = g(vals, x).real
        if -_INF < fx < _INF:
            return fx
    except OverflowError:
        pass
    raise RootSolveError(
        f"constraint for '{name}' overflows or is not finite at {name} = {x!r}",
        sample=dict(vals),
    )
