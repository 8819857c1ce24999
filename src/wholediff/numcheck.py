"""Numeric oracle: expression evaluation, on-shell sampling streams, root
solves of the constraints, finite-difference derivatives along the
constraint surface, nested-FD commutators, and identity verification.

Evaluation is compiled.  The first evaluation of an Expr turns it into a
straight-line Python function, which is kept on the Expr and reused at
every later point.  The program does the IEEE operations of a walk over
the expression, in the walk's order: each term starts at its coefficient,
made a complex constant at compile time, and is multiplied by v**exp for
each factor; the terms are added to 0j in order; a sum denominator is
checked against 1e-300 and divided into the numerator.  Each distinct atom
(symbol value, opaque application, partial, power, representation marker)
is evaluated once per point, at its first use in that order, and later
uses read the value back; so an unbound name or a singularity raises the
same error, at the same point, as evaluating every occurrence would.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .errors import (
    EvaluationError,
    RootSolveError,
    SingularityError,
    UnboundSymbolError,
)
from .symexpr import Expr, PartialAtom, PowAtom, RepAtom, Symbol

if TYPE_CHECKING:
    from .depctx import DependencyContext

DEFAULT_FD_STEP = 1e-5
DEFAULT_NESTED_FD_STEP = 1e-4
_TINY = 1e-300
# A compiled sum is split into lines of this many terms, which keeps deep
# sums within the bytecode compiler's recursion limit.
_TERMS_PER_LINE = 32


class OpaqueFn:
    """Concrete stand-in for an opaque function symbol.

    fn maps the argument values (in declared order) to a complex number.
    partials optionally maps a multi-index, given as a sorted tuple of
    (argument name, order) pairs, to an analytic derivative closure; plain
    partial atoms without an analytic entry are evaluated by nested
    central differences of fn.

    The closures must be pure: a compiled program calls each one once per
    point for each distinct application and reuses the value."""

    __slots__ = ("fn", "partials")

    def __init__(self, fn: Callable[..., complex],
                 partials: Optional[Dict[tuple, Callable[..., complex]]] = None):
        self.fn, self.partials = fn, {} if partials is None else partials


class NumericBinding:
    """Map from symbol names to numeric values plus opaque closures."""

    __slots__ = ("values", "opaques")

    def __init__(self, values: Optional[Dict[str, complex]] = None,
                 opaques: Optional[Dict[str, OpaqueFn]] = None):
        self.values = {} if values is None else values
        self.opaques = {} if opaques is None else opaques

    def value(self, name: str) -> complex:
        if name not in self.values:
            raise UnboundSymbolError(name)
        return complex(self.values[name])


def evaluate(e, b: NumericBinding) -> complex:
    """IEEE-double evaluation of an expression under a binding: the
    expression's compiled program called once (see the module docstring)."""
    return _program(Expr._coerce(e))(b.values, b.opaques)


def _program(e: Expr):
    """The compiled program of e, a function (values, opaques) -> complex.

    It is made on the first call and kept in the Expr's _compiled slot; an
    Expr is immutable, so the object itself determines its program."""
    prog = getattr(e, "_compiled", None)
    if prog is None:
        prog = _compile(e)
        object.__setattr__(e, "_compiled", prog)
    return prog


def _compile(e: Expr, dependent: Optional[str] = None):
    """Compile e into a function (values, opaques) -> complex; with a
    dependent name, into a function (values, x) -> complex that reads that
    symbol as complex(x) and has no opaque closures."""
    c = _Compiler(dependent)
    out = c.expr(e)
    args = "V, X" if dependent is not None else "V, O"
    src = f"def _program({args}):\n" + "".join(f"    {line}\n" for line in c.lines)
    src += f"    return {out}\n"
    if dependent is not None:
        c.ns["O"] = {}
    exec(compile(src, "<wholediff program>", "exec"), c.ns)
    # Taken out of its own globals, the program is no reference cycle and is
    # freed with the last Expr or plan that holds it.
    return c.ns.pop("_program")


def _raise(cls, *args):
    raise cls(*args)


class _Compiler:
    """Emits the lines of one program in walk order.

    Each line defines one local from an expression text over earlier locals,
    namespace constants and the arguments, and the text determines the
    value; so a text seen before (the same symbol, closure, atom, power,
    sum or quotient) reuses its local instead of a new line.  A check runs
    once, before the first use of the value it guards.  User names reach
    the source only as repr() literals; constants and closures are bound in
    the program's namespace `ns`."""

    def __init__(self, dependent: Optional[str]):
        self.dependent = dependent
        self.lines: List[str] = []
        self.locals: Dict[str, str] = {}
        self.checked: set = set()
        self.consts: Dict[object, str] = {}
        self.ns: Dict[str, object] = {
            "_raise": _raise,
            "_Unbound": UnboundSymbolError,
            "_Singular": SingularityError,
            "_fd_partial": _fd_partial,
            "_exp": cmath.exp,
            "_log": cmath.log,
        }

    def define(self, text: str) -> str:
        name = self.locals.get(text)
        if name is None:
            name = self.locals[text] = f"t{len(self.locals)}"
            self.lines.append(f"{name} = {text}")
        return name

    def check(self, condition: str, error: str) -> None:
        if condition not in self.checked:
            self.checked.add(condition)
            self.lines.append(f"if {condition}: _raise({error})")

    def const(self, key, value) -> str:
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = f"k{len(self.consts)}"
            self.ns[name] = value
        return name

    def expr(self, e: Expr) -> str:
        num = self.poly(e._num)
        if e.den_is_one():
            return num
        den = self.poly(e._den)
        self.check(f"abs({den}) < {_TINY!r}", "_Singular, 'denominator magnitude below 1e-300'")
        return self.define(f"{num} / {den}")

    def poly(self, p) -> str:
        """p as `0j + c*x**e*... + ...`, which adds and multiplies in the
        walk's order.  Neither operation raises, so it is enough that the
        atoms, checks and powers it reads come first, in walk order."""
        terms = []
        for coeff, factors in p:
            product = [self.const(("coeff", coeff.key), coeff.to_complex())]
            for a, exp in factors:
                product.append(self.power(self.atom(a), exp))
            terms.append(" * ".join(product))
        total = "0j"
        for i in range(0, len(terms), _TERMS_PER_LINE):
            total = self.define(" + ".join([total] + terms[i : i + _TERMS_PER_LINE]))
        return self.define(total) if not terms else total

    def power(self, v: str, exp) -> str:
        if exp < 0:
            self.check(
                f"abs({v}) < {_TINY!r}",
                "_Singular, 'division by a value of magnitude below 1e-300'",
            )
        x = repr(exp) if type(exp) is int else self.const(("exp", exp), exp)
        return self.define(f"{v}**{x}")

    def symbol(self, name: str) -> str:
        if name == self.dependent:
            return self.define("complex(X)")
        q = repr(name)
        return self.define(f"complex(V[{q}]) if {q} in V else _raise(_Unbound, {q})")

    def atom(self, a) -> str:
        if isinstance(a, Symbol):
            return self.symbol(a.name)
        if isinstance(a, RepAtom):
            return self.expr(a.expansion)
        if isinstance(a, PowAtom):
            base = self.expr(a.base)
            x = self.const(("float", a.exp), float(a.exp))
            return self.define(
                f"complex({base}.real ** {x}) if {base}.imag == 0 and {base}.real > 0 "
                f"else _exp({x} * _log({base})) if {base} else 0j"
            )
        if not isinstance(a, PartialAtom):
            raise EvaluationError(f"cannot evaluate atom {a!r}")
        q = repr(a.fn.name)
        fn = self.define(f"O.get({q})")
        self.check(f"{fn} is None", f"_Unbound, {q}")
        args = ", ".join([self.symbol(s.name) for s in a.args])
        if not a.orders:
            return self.define(f"complex({fn}.fn({args}))")
        idx = tuple((s.name, n) for s, n in a.orders)
        analytic = self.define(f"{fn}.partials.get({self.const(('index', idx), idx)})")
        names = [s.name for s in a.args]
        fd = (
            f"_fd_partial({fn}.fn, {self.const(('names', tuple(names)), names)}, [{args}], "
            f"{self.const(('orders', idx), list(idx))}, {self.const('step', DEFAULT_FD_STEP)})"
        )
        return self.define(f"complex({analytic}({args})) if {analytic} is not None else {fd}")


def _fd_partial(fn, names, args, orders, h) -> complex:
    if not orders:
        return complex(fn(*args))
    (name, n), rest = orders[0], orders[1:]
    if n > 1:
        rest = [(name, n - 1)] + rest
    i = names.index(name)

    def shifted(delta):
        pt = list(args)
        pt[i] = pt[i] + delta
        return _fd_partial(fn, names, pt, rest, h)

    return (shifted(h) - shifted(-h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# On-shell sampling: sample streams and root solves
# ---------------------------------------------------------------------------


# Root-solve bracket on the positive sheet (mirrored for the negative one),
# and the smallest admissible |dependent| in an on-shell sample.
_BRACKET = (1e-6, 1e3)
_MIN_DEPENDENT = 1e-6

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
    if stop - start == 1:  # one lane needs no packing
        yield _Stream(seed, start)
        return
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


def sample_on_shell(ctx: DependencyContext, count: int, seed: int,
                    sign: int = +1) -> List[Dict[str, complex]]:
    """Deterministic numeric bindings on the constraint surface: sample k
    is _draw_on_shell from its own stream, numpy's default_rng([seed, k])
    bit for bit, and all the streams are seeded together."""
    return list(SamplerSpec("on-shell", sign)._samples(ctx, seed, 0, count))


def _draw_free(ctx: DependencyContext, rng) -> Dict[str, complex]:
    """Independents uniform in [-2, 2], then parameters uniform in [1/2, 2],
    in declaration order."""
    vals: Dict[str, complex] = {}
    for s in ctx.independents:
        vals[s.name] = rng.uniform(-2.0, 2.0)
    for s in ctx.parameters:
        vals[s.name] = rng.uniform(0.5, 2.0)
    return vals


def _draw_on_shell(ctx: DependencyContext, rng, sign: int) -> Dict[str, complex]:
    """_draw_free, then each dependent solved on the sheet of the sign.  A
    draw with no solution or a dependent with |value| < 1e-6 is made again
    from the same stream, up to 64 draws in all; then the RootSolveError
    names what went wrong with the last draw."""
    for _attempt in range(64):
        vals = _draw_free(ctx, rng)
        try:
            dep_vals = solve_dependents(ctx, vals, sign=sign)
        except RootSolveError as exc:
            why = str(exc)
            continue
        if all(abs(v) >= _MIN_DEPENDENT for v in dep_vals.values()):
            vals.update(dep_vals)
            return vals
        why = f"a dependent below {_MIN_DEPENDENT} in magnitude"
    raise RootSolveError(
        f"could not draw an admissible on-shell sample; the last draw: {why}",
        sample=vals,
    )


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
    parameter values, on the sheet of the sign (+1 or -1, else ValueError).
    Linear and pure-quadratic constraints are solved in closed form;
    anything else falls back to a bracketed 1-D root solve."""
    if sign not in (+1, -1):
        raise ValueError(f"sampler sign must be +1 or -1, not {sign!r}")
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


# ---------------------------------------------------------------------------
# Finite-difference whole derivative along the constraint surface
# ---------------------------------------------------------------------------


def fd_whole(
    e,
    v,
    ctx: DependencyContext,
    b: NumericBinding,
    h: float = DEFAULT_FD_STEP,
    sign: int = +1,
) -> complex:
    """Centered difference of e composed with the constraint embedding:
    dependents are re-solved (same sheet, nearest root) at each displaced
    point before evaluating."""
    if h <= 0:
        raise EvaluationError("finite-difference step must be positive")
    name = v.name if hasattr(v, "name") else str(v)
    prog = _program(Expr._coerce(e))
    near = {u.name: complex(b.values[u.name]).real for u in ctx.dependents if u.name in b.values}

    def at(delta: float) -> complex:
        vals = dict(b.values)
        vals[name] = complex(vals[name]).real + delta
        vals.update(solve_dependents(ctx, vals, sign=sign, near=near or None))
        return prog(vals, b.opaques)

    return (at(h) - at(-h)) / (2.0 * h)


def fd_commutator_pE(
    fclosure: Callable[..., complex],
    i: int,
    b: NumericBinding,
    h: float = DEFAULT_NESTED_FD_STEP,
    dim: int = 3,
) -> complex:
    """Nested-FD commutator of the whole momentum derivative and the plain
    energy derivative acting on an explicit function f(p1..pd, E).

    Realizes W_i g = d_i g + (p_i/E) dE g on closures and returns
    (W_i dE - dE W_i) f at the binding (off-shell allowed)."""
    names = [f"p{k}" for k in range(1, dim + 1)] + ["E"]
    point = [complex(b.values[n]).real for n in names]
    if abs(point[-1]) < 1e-12:
        raise SingularityError("E too close to zero for the nested-FD commutator")

    def d(fn, idx):
        def out(*args):
            lo = list(args)
            hi = list(args)
            hi[idx] += h
            lo[idx] -= h
            return (fn(*hi) - fn(*lo)) / (2.0 * h)

        return out

    dE = lambda fn: d(fn, dim)
    di = lambda fn: d(fn, i - 1)

    def whole_i(fn):
        dfn_i = di(fn)
        dfn_E = dE(fn)

        def out(*args):
            return dfn_i(*args) + (args[i - 1] / args[dim]) * dfn_E(*args)

        return out

    lhs = whole_i(dE(fclosure))
    rhs = dE(whole_i(fclosure))
    return complex(lhs(*point) - rhs(*point))


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------


class FailureDiagnostic:
    __slots__ = ("sample_index", "binding", "lhs", "rhs", "error")

    def __init__(self, sample_index: int, binding: Dict[str, complex], lhs: Optional[complex],
                 rhs: Optional[complex], error: Optional[str] = None):
        self.sample_index, self.binding, self.lhs, self.rhs = sample_index, binding, lhs, rhs
        self.error = error


class VerificationReport:
    __slots__ = ("samples", "failures", "max_abs_err", "max_rel_err", "tol_abs", "tol_rel",
                 "diagnostics")

    def __init__(self, samples: int, failures: int, max_abs_err: float, max_rel_err: float,
                 tol_abs: float, tol_rel: float,
                 diagnostics: Optional[List[FailureDiagnostic]] = None):
        self.samples, self.failures = samples, failures
        self.max_abs_err, self.max_rel_err = max_abs_err, max_rel_err
        self.tol_abs, self.tol_rel = tol_abs, tol_rel
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "failures": self.failures,
            "max_abs_err": _fmt_float(self.max_abs_err),
            "max_rel_err": _fmt_float(self.max_rel_err),
            "tol_abs": _fmt_float(self.tol_abs),
            "tol_rel": _fmt_float(self.tol_rel),
            "verdict": self.verdict,
            "diagnostics": [
                {
                    "sample": d.sample_index,
                    "binding": {k: _fmt_complex(v) for k, v in sorted(d.binding.items())},
                    "lhs": _fmt_complex(d.lhs),
                    "rhs": _fmt_complex(d.rhs),
                    "error": d.error,
                }
                for d in self.diagnostics
            ],
        }


def _fmt_float(x) -> str:
    return repr(float(x))

def _fmt_complex(z) -> Optional[str]:
    if z is None:
        return None
    return repr(complex(z))


class SamplerSpec:
    """Sampling strategy: 'on-shell' with a sheet sign, or 'box' drawing
    every non-opaque symbol from fixed ranges (dependents included,
    off-shell, sign times uniform in [1/2, 2]).  Each kind has one draw from
    a sample's own stream, which draw, sample_on_shell and verify_identity use."""

    __slots__ = ("kind", "sign")

    def __init__(self, kind: str = "on-shell", sign: int = +1):  # kind: "on-shell" | "box"
        if kind not in ("on-shell", "box"):
            raise ValueError(f"unknown sampler kind {kind!r}")
        if sign not in (+1, -1):
            raise ValueError(f"sampler sign must be +1 or -1, not {sign!r}")
        self.kind, self.sign = kind, sign

    def draw(self, ctx: DependencyContext, index: int, seed: int) -> Dict[str, complex]:
        """Sample `index` of `seed`, the one verify_identity checks there."""
        return next(self._samples(ctx, seed, index, index + 1))

    def _samples(self, ctx: DependencyContext, seed: int, start: int, stop: int):
        """The samples of indices start..stop-1, each drawn from its own
        stream when it is asked for."""
        draw = _draw_on_shell if self.kind == "on-shell" else _draw_box
        return (draw(ctx, rng, self.sign) for rng in _streams(seed, start, stop))


def verify_identity(
    lhs,
    rhs,
    ctx: DependencyContext,
    sampler: SamplerSpec,
    tol_rel: float = 1e-9,
    tol_abs: float = 1e-8,
    seed: int = 0,
    samples: int = 100,
    opaques: Optional[Dict[str, OpaqueFn]] = None,
) -> VerificationReport:
    """Evaluate both sides at seeded samples, each drawn, checked and dropped
    before the next; a sample fails when both the absolute and the relative
    error exceed their tolerances.  Evaluation errors count as failures; the
    report keeps the diagnostics of the first 10."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    if not (0 <= tol_rel < cmath.inf and 0 <= tol_abs < cmath.inf):
        raise ValueError(f"tolerances must be finite and non-negative, not {tol_rel}, {tol_abs}")
    failures = 0
    max_abs = 0.0
    max_rel = 0.0
    diags: List[FailureDiagnostic] = []
    lhs_at, rhs_at = _program(Expr._coerce(lhs)), _program(Expr._coerce(rhs))
    closures = opaques or {}
    for k, vals in enumerate(sampler._samples(ctx, seed, 0, samples)):
        try:
            lv = lhs_at(vals, closures)
            rv = rhs_at(vals, closures)
        except EvaluationError as exc:
            failures += 1
            if len(diags) < 10:
                diags.append(FailureDiagnostic(k, vals, None, None, error=str(exc)))
            continue
        abs_err = abs(lv - rv)
        rel_err = abs_err / max(abs(lv), abs(rv), 1e-30)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        if abs_err > tol_abs and rel_err > tol_rel:
            failures += 1
            if len(diags) < 10:
                diags.append(FailureDiagnostic(k, vals, lv, rv))
    return VerificationReport(
        samples=samples,
        failures=failures,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        diagnostics=diags,
    )


# ---------------------------------------------------------------------------
# Shipped opaque test closures (smooth, analytically differentiable)
# ---------------------------------------------------------------------------


def shipped_closures(dim: int = 3) -> Dict[str, OpaqueFn]:
    """Three concrete stand-ins for the opaque function f(p1..pd, E):
    polynomial E^2*p1, rational p1/(1+E^2), exponential exp(E)*p1."""
    def poly(*a):
        return a[dim] ** 2 * a[0]

    def rational(*a):
        return a[0] / (1.0 + a[dim] ** 2)

    def expo(*a):
        return cmath.exp(a[dim]) * a[0]

    E = "E"
    p1 = "p1"
    poly_partials = {
        ((E, 1),): lambda *a: 2.0 * a[dim] * a[0],
        ((E, 2),): lambda *a: 2.0 * a[0],
        ((p1, 1),): lambda *a: a[dim] ** 2,
        ((E, 1), (p1, 1)): lambda *a: 2.0 * a[dim],
    }
    rational_partials = {
        ((E, 1),): lambda *a: -2.0 * a[dim] * a[0] / (1.0 + a[dim] ** 2) ** 2,
        ((E, 2),): lambda *a: a[0] * (6.0 * a[dim] ** 2 - 2.0) / (1.0 + a[dim] ** 2) ** 3,
        ((p1, 1),): lambda *a: 1.0 / (1.0 + a[dim] ** 2),
        ((E, 1), (p1, 1)): lambda *a: -2.0 * a[dim] / (1.0 + a[dim] ** 2) ** 2,
    }
    expo_partials = {
        ((E, 1),): lambda *a: cmath.exp(a[dim]) * a[0],
        ((E, 2),): lambda *a: cmath.exp(a[dim]) * a[0],
        ((p1, 1),): lambda *a: cmath.exp(a[dim]),
        ((E, 1), (p1, 1)): lambda *a: cmath.exp(a[dim]),
    }
    return {
        "poly": OpaqueFn(poly, poly_partials),
        "rational": OpaqueFn(rational, rational_partials),
        "exponential": OpaqueFn(expo, expo_partials),
    }
