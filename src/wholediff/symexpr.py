"""Immutable symbolic expressions over exact Gaussian-rational scalars.

Internal normal form: every expression is a fraction num/den of two
"polynomials", each polynomial a merged, sorted tuple of monomials, each
monomial an exact scalar coefficient times an ordered word of atomic
factors with integer exponents.  Factors whose commutativity classes are
disjoint may be reordered; factors sharing a nonzero class keep their
written order (a trace-monoid canonical form).  Non-integer rational
powers and opaque-function material live in dedicated atoms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .errors import (
    NormalOrderError,
    SubstitutionCycleError,
    UnsupportedExpressionError,
)
from .scalars import ONE, QC, ZERO

# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class SymbolKind:
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    PARAMETER = "parameter"
    OPAQUE = "opaque"
    COMMUTATOR = "commutator"

    ALL = (INDEPENDENT, DEPENDENT, PARAMETER, OPAQUE, COMMUTATOR)


class Symbol:
    """Named atom with a kind and a commutativity class.

    Class 0 commutes with everything; symbols sharing a nonzero class may
    carry declared commutators.  Commutator-kind symbols are central and
    are forced into class 0.
    """

    __slots__ = ("name", "kind", "klass")

    def __init__(self, name: str, kind: str = SymbolKind.PARAMETER, klass: int = 0):
        if kind not in SymbolKind.ALL:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind == SymbolKind.COMMUTATOR:
            klass = 0
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "klass", int(klass))

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.name == other.name
            and self.kind == other.kind
            and self.klass == other.klass
        )

    def __hash__(self):
        return hash((self.name, self.kind, self.klass))

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind!r}, klass={self.klass})"


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_RANK_SYMBOL = 1
_RANK_OPAQUE = 2
_RANK_PARTIAL = 3
_RANK_POW = 4
_RANK_REP = 5


class Atom:
    """Base class for monomial factors."""

    __slots__ = ("_key",)

    @property
    def key(self):
        return self._key

    nc_classes: frozenset = frozenset()

    def mentions(self, sym: Symbol) -> bool:
        raise NotImplementedError

    def diff(self, v: Symbol) -> "Expr":
        raise NotImplementedError


class SymbolAtom(Atom):
    __slots__ = ("symbol", "nc_classes")

    def __init__(self, symbol: Symbol):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(
            self,
            "nc_classes",
            frozenset() if symbol.klass == 0 else frozenset({symbol.klass}),
        )
        object.__setattr__(
            self, "_key", (_RANK_SYMBOL, symbol.name, symbol.kind, symbol.klass)
        )

    def mentions(self, sym):
        return self.symbol == sym

    def diff(self, v):
        return Expr.one() if self.symbol == v else Expr.zero()

    def __repr__(self):
        return f"SymbolAtom({self.symbol.name})"


class OpaqueAtom(Atom):
    """Application of an opaque function symbol to argument symbols."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Symbol, args: Tuple[Symbol, ...]):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(
            self, "_key", (_RANK_OPAQUE, fn.name, tuple(a.name for a in self.args))
        )

    def mentions(self, sym):
        return self.fn == sym or any(a == sym for a in self.args)

    def diff(self, v):
        if any(a == v for a in self.args):
            return Expr.atom(PartialAtom(self.fn, self.args, ((v, 1),)))
        return Expr.zero()

    def __repr__(self):
        return f"OpaqueAtom({self.fn.name}({', '.join(a.name for a in self.args)}))"


class PartialAtom(Atom):
    """Plain partial derivative of an opaque function: an atom with an
    unordered multi-index, so mixed plain partials coincide."""

    __slots__ = ("fn", "args", "orders")

    def __init__(self, fn: Symbol, args: Tuple[Symbol, ...], orders):
        merged = {}
        for s, n in orders:
            if n:
                merged[s] = merged.get(s, 0) + n
        canon = tuple(sorted(merged.items(), key=lambda kv: kv[0].name))
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "orders", canon)
        object.__setattr__(
            self,
            "_key",
            (
                _RANK_PARTIAL,
                fn.name,
                tuple(a.name for a in self.args),
                tuple((s.name, n) for s, n in canon),
            ),
        )

    @property
    def total_order(self):
        return sum(n for _, n in self.orders)

    def mentions(self, sym):
        return self.fn == sym or any(a == sym for a in self.args)

    def diff(self, v):
        if any(a == v for a in self.args):
            return Expr.atom(PartialAtom(self.fn, self.args, self.orders + ((v, 1),)))
        return Expr.zero()

    def __repr__(self):
        idx = ",".join(f"{s.name}^{n}" if n > 1 else s.name for s, n in self.orders)
        return f"PartialAtom(d{self.fn.name}/d[{idx}])"


class PowAtom(Atom):
    """base ** exponent with a non-integer rational exponent (sqrt included)."""

    __slots__ = ("base", "exp", "nc_classes")

    def __init__(self, base: "Expr", exp: Fraction):
        exp = Fraction(exp)
        if exp.denominator == 1:
            raise ValueError("PowAtom requires a non-integer exponent")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        # A power of a noncommutative base is treated as commuting; in-scope
        # algebra never reorders through such atoms.
        object.__setattr__(self, "nc_classes", frozenset())
        object.__setattr__(
            self, "_key", (_RANK_POW, base.key, (exp.numerator, exp.denominator))
        )

    def mentions(self, sym):
        return self.base.mentions(sym)

    def diff(self, v):
        db = self.base.diff_plain(v)
        if db.is_zero():
            return Expr.zero()
        return Expr.const(QC(self.exp)) * self.base ** (self.exp - 1) * db

    def __repr__(self):
        return f"PowAtom({self.base!r}, {self.exp})"


class RepAtom(Atom):
    """Internal marker standing for a dependent-variable representation
    coefficient; kept unexpanded between nested whole derivatives so the
    product-ordering convention can be applied at the end."""

    __slots__ = ("dependent", "independent", "expansion", "nc_classes")

    def __init__(self, dependent: Symbol, independent: Symbol, expansion: "Expr"):
        object.__setattr__(self, "dependent", dependent)
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "expansion", expansion)
        object.__setattr__(self, "nc_classes", expansion.nc_classes())
        object.__setattr__(self, "_key", (_RANK_REP, dependent.name, independent.name))

    def mentions(self, sym):
        return self.expansion.mentions(sym)

    def diff(self, v):
        # The derivative of a representation coefficient is an ordinary
        # expression, not a coefficient; expand immediately.
        return self.expansion.diff_plain(v)

    def __repr__(self):
        return f"RepAtom(d{self.dependent.name}/d{self.independent.name})"


def _commutes(a: Atom, b: Atom) -> bool:
    if a.key == b.key:
        return True
    return a.nc_classes.isdisjoint(b.nc_classes)


# ---------------------------------------------------------------------------
# Monomials and polynomials (internal plumbing)
# ---------------------------------------------------------------------------
# monomial: (coeff: QC, factors: tuple[(Atom, int exponent), ...])
# polynomial: tuple of monomials, merged and sorted by factor key
#
# Polynomials stored inside an Expr are fully canonical: no zero
# coefficients, no foldable power atoms (atom.exp * exponent integral).


def _mono_fkey(factors):
    return tuple((a.key, e) for a, e in factors)


def _canonical_word(letters):
    """Greedy trace-monoid canonical form: repeatedly emit the smallest
    letter that commutes with everything still ahead of it."""
    rem = [(a, e) for a, e in letters if e != 0]
    out = []
    while rem:
        best = None
        for i, (a, _e) in enumerate(rem):
            movable = all(_commutes(rem[j][0], a) for j in range(i))
            if movable and (best is None or a.key < rem[best][0].key):
                best = i
        a, e = rem.pop(best)
        if out and out[-1][0].key == a.key:
            pa, pe = out[-1]
            if pe + e == 0:
                out.pop()
            else:
                out[-1] = (pa, pe + e)
        else:
            out.append((a, e))
    return tuple(out)


def _poly_merge(monos) -> tuple:
    buckets = {}
    for c, f in monos:
        k = _mono_fkey(f)
        if k in buckets:
            oc, of = buckets[k]
            buckets[k] = (oc + c, of)
        else:
            buckets[k] = (c, f)
    out = [(c, f) for (c, f) in buckets.values() if not c.is_zero()]
    out.sort(key=lambda m: _mono_fkey(m[1]))
    return tuple(out)


def _poly_add(p, q):
    return _poly_merge(list(p) + list(q))


def _poly_neg(p):
    return tuple((-c, f) for c, f in p)


def _poly_key(p):
    return tuple((_mono_fkey(f), c.key) for c, f in p)


_POLY_ONE = ((ONE, ()),)


def _poly_nc_classes(p):
    s = set()
    for _c, f in p:
        for a, _e in f:
            s |= a.nc_classes
    return s


def _poly_has_word(p):
    return any(a.nc_classes for _c, f in p for a, _e in f)


def _mono_expr(coeff: QC, letters) -> "Expr":
    """Canonical Expr equal to coeff * ordered product of letters.

    Power atoms whose accumulated exponent becomes an integer are
    expanded, which may turn the monomial into a sum or a fraction."""
    if coeff.is_zero():
        return Expr.zero()
    word = _canonical_word(letters)
    kept = []
    expansions = []
    for a, e in word:
        if isinstance(a, PowAtom):
            total = a.exp * e
            if total.denominator == 1:
                expansions.append(a.base ** int(total))
                continue
            if e != 1:
                # keep the fractional residue in (0, 1); the integer part
                # expands so b^(1/2) and b^(-1/2) share one atom
                n = total.numerator // total.denominator
                kept.append((PowAtom(a.base, total - n), 1))
                if n:
                    expansions.append(a.base ** n)
                continue
        kept.append((a, e))
    out = Expr._raw(((coeff, tuple(kept)),), _POLY_ONE)
    for ex in expansions:
        out = out * ex
    return out


def _residue_pow(base: "Expr", q: Fraction) -> "Expr":
    """base^q with the fractional part of q kept in a single atom whose
    exponent lies in (0, 1); the integer part multiplies out exactly."""
    n = q.numerator // q.denominator
    r = q - n
    out = Expr.atom(PowAtom(base, r))
    if n:
        out = out * base ** n
    return out


def _poly_expr(p) -> "Expr":
    """Wrap an already-canonical polynomial as an Expr."""
    return Expr._raw(p, _POLY_ONE)


def _mul_poly_expr(p, q) -> "Expr":
    """Product of two canonical polynomials, as an Expr."""
    simple = []
    extra = None
    for c1, f1 in p:
        for c2, f2 in q:
            e = _mono_expr(c1 * c2, list(f1) + list(f2))
            if e.den_is_one():
                simple.extend(e._num)
            else:
                extra = e if extra is None else extra + e
    out = _poly_expr(_poly_merge(simple))
    if extra is not None:
        out = out + extra
    return out


# ---------------------------------------------------------------------------
# Expression
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression in canonical form."""

    __slots__ = ("_num", "_den", "_key")

    def __init__(self, *_args, **_kw):
        raise TypeError("use Expr factory methods (const, symbol, ...)")

    @classmethod
    def _raw(cls, num, den):
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_key", (_poly_key(num), _poly_key(den)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def _from_fraction(cls, num, den) -> "Expr":
        """Build num/den from canonical polynomials."""
        if not den:
            raise ZeroDivisionError("zero denominator in expression")
        if not num:
            return cls._raw((), _POLY_ONE)
        if den == _POLY_ONE:
            return cls._raw(num, _POLY_ONE)
        if len(den) == 1:
            invc, invf = _mono_inverse(den[0])
            total = None
            for c, f in num:
                t = _mono_expr(c * invc, list(f) + list(invf))
                total = t if total is None else total + t
            return total
        if _poly_has_word(den):
            raise UnsupportedExpressionError(
                "sum denominators containing noncommuting symbols are not supported"
            )
        num, den = _cancel_content(num, den)
        if len(den) == 1:
            return cls._from_fraction(num, den)
        lead = den[0][0]
        if not lead.is_one():
            inv = lead.inverse()
            num = tuple((c * inv, f) for c, f in num)
            den = tuple((c * inv, f) for c, f in den)
        return cls._raw(num, den)

    @classmethod
    def zero(cls):
        return _E_ZERO

    @classmethod
    def one(cls):
        return _E_ONE

    @classmethod
    def const(cls, value) -> "Expr":
        if isinstance(value, (int, Fraction)):
            value = QC(value)
        if not isinstance(value, QC):
            raise TypeError(f"not an exact scalar: {value!r}")
        if value.is_zero():
            return cls._raw((), _POLY_ONE)
        return cls._raw(((value, ()),), _POLY_ONE)

    @classmethod
    def imaginary_unit(cls) -> "Expr":
        return cls.const(QC(0, 1))

    @classmethod
    def symbol(cls, sym: Symbol) -> "Expr":
        return cls._raw(((ONE, ((SymbolAtom(sym), 1),)),), _POLY_ONE)

    @classmethod
    def atom(cls, a: Atom) -> "Expr":
        return cls._raw(((ONE, ((a, 1),)),), _POLY_ONE)

    @classmethod
    def opaque(cls, fn: Symbol, args: Sequence[Symbol]) -> "Expr":
        return cls.atom(OpaqueAtom(fn, tuple(args)))

    @classmethod
    def partial_atom(cls, fn: Symbol, args: Sequence[Symbol], orders) -> "Expr":
        return cls.atom(PartialAtom(fn, tuple(args), tuple(orders)))

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def den_is_one(self) -> bool:
        return self._den == _POLY_ONE

    def as_constant(self) -> Optional[QC]:
        """The exact scalar value if this expression is constant, else None."""
        if not self._num:
            return ZERO
        if self.den_is_one() and len(self._num) == 1 and not self._num[0][1]:
            return self._num[0][0]
        return None

    @property
    def key(self):
        return self._key

    def nc_classes(self) -> frozenset:
        return frozenset(_poly_nc_classes(self._num) | _poly_nc_classes(self._den))

    def mentions(self, sym: Symbol) -> bool:
        for p in (self._num, self._den):
            for _c, f in p:
                for a, _e in f:
                    if a.mentions(sym):
                        return True
        return False

    def atoms(self):
        for p in (self._num, self._den):
            for _c, f in p:
                for a, _e in f:
                    yield a

    def symbols(self) -> set:
        out = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for a in e.atoms():
                if isinstance(a, SymbolAtom):
                    out.add(a.symbol)
                elif isinstance(a, (OpaqueAtom, PartialAtom)):
                    out.add(a.fn)
                    out.update(a.args)
                elif isinstance(a, PowAtom):
                    stack.append(a.base)
                elif isinstance(a, RepAtom):
                    stack.append(a.expansion)
        return out

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Expr":
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction, QC)):
            return Expr.const(x)
        raise TypeError(f"cannot coerce {x!r} to Expr")

    def __add__(self, other):
        other = Expr._coerce(other)
        if self._den == other._den:
            return Expr._from_fraction(_poly_add(self._num, other._num), self._den)
        a = _mul_poly_expr(self._num, other._den)
        b = _mul_poly_expr(other._num, self._den)
        num = a + b
        den = _mul_poly_expr(self._den, other._den)
        return num / den

    __radd__ = __add__

    def __neg__(self):
        return Expr._raw(_poly_neg(self._num), self._den)

    def __sub__(self, other):
        return self + (-Expr._coerce(other))

    def __rsub__(self, other):
        return Expr._coerce(other) + (-self)

    def __mul__(self, other):
        other = Expr._coerce(other)
        if self.den_is_one() and other.den_is_one():
            return _mul_poly_expr(self._num, other._num)
        num = _mul_poly_expr(self._num, other._num)
        den = _mul_poly_expr(self._den, other._den)
        return num / den

    def __rmul__(self, other):
        return Expr._coerce(other) * self

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero expression")
        if other.den_is_one() and self.den_is_one():
            return Expr._from_fraction(self._num, other._num)
        num = _mul_poly_expr(self._num, other._den)
        den = _mul_poly_expr(self._den, other._num)
        if den.is_zero():
            raise ZeroDivisionError("division by zero expression")
        if den.den_is_one() and num.den_is_one():
            return Expr._from_fraction(num._num, den._num)
        return num * (Expr.one() / den)

    def __rtruediv__(self, other):
        return Expr._coerce(other) / self

    def __pow__(self, exponent):
        q = Fraction(exponent)
        if q.denominator == 1:
            n = int(q)
            if n == 0:
                return Expr.one()
            neg = n < 0
            n = abs(n)
            out = Expr.one()
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            if neg:
                out = Expr.one() / out
            return out
        c = self.as_constant()
        if c is not None:
            if q == Fraction(1, 2):
                r = c.sqrt_exact()
                if r is not None:
                    return Expr.const(r)
            if c.is_zero():
                if q > 0:
                    return Expr.zero()
                raise ZeroDivisionError("zero to a negative power")
        single = self._single_pow_atom()
        if single is not None:
            total = single.exp * q
            if total.denominator == 1:
                return single.base ** int(total)
            return _residue_pow(single.base, total)
        return _residue_pow(self, q)

    def _single_pow_atom(self):
        if (
            self.den_is_one()
            and len(self._num) == 1
            and self._num[0][0].is_one()
            and len(self._num[0][1]) == 1
            and self._num[0][1][0][1] == 1
            and isinstance(self._num[0][1][0][0], PowAtom)
        ):
            return self._num[0][1][0][0]
        return None

    def sqrt(self) -> "Expr":
        return self ** Fraction(1, 2)

    # -- structural equality (canonical-form identity) -------------------

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- differentiation -------------------------------------------------

    def diff_plain(self, v: Symbol) -> "Expr":
        """Plain partial derivative: every other symbol held constant."""
        if not self.mentions(v):
            return Expr.zero()
        dnum = _poly_diff(self._num, v)
        if self.den_is_one():
            return dnum
        dden = _poly_diff(self._den, v)
        num_e = _poly_expr(self._num)
        den_e = _poly_expr(self._den)
        return (dnum * den_e - num_e * dden) / (den_e * den_e)

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings: Mapping[Symbol, "Expr"]) -> "Expr":
        bindings = {s: Expr._coerce(e) for s, e in bindings.items()}
        _check_cycles(bindings)
        return self._subst(bindings)

    def _subst(self, bindings) -> "Expr":
        num = _subst_poly(self._num, bindings)
        if self.den_is_one():
            return num
        den = _subst_poly(self._den, bindings)
        return num / den

    def __repr__(self):
        from .textio import print_expr

        try:
            return f"Expr({print_expr(self)})"
        except Exception:
            return f"Expr<{self._key!r}>"


def _mono_inverse(mono):
    c, f = mono
    inv = [(a, -e) for a, e in reversed(f)]
    return c.inverse(), tuple(inv)


def _cancel_content(num, den):
    """Remove plain commuting atom powers common to every monomial of both
    polynomials (power atoms excluded to keep this a pure poly operation)."""
    common = None
    for p in (num, den):
        for _c, f in p:
            powers = {
                a.key: (a, e)
                for a, e in f
                if not a.nc_classes and not isinstance(a, PowAtom)
            }
            if common is None:
                common = powers
            else:
                nxt = {}
                for k, (a, e) in common.items():
                    if k in powers:
                        oe = powers[k][1]
                        if (e > 0) == (oe > 0):
                            nxt[k] = (a, e if abs(e) < abs(oe) else oe)
                common = nxt
            if not common:
                return num, den

    def strip(p):
        out = []
        for c, f in p:
            kept = []
            for a, e in f:
                if a.key in common:
                    e -= common[a.key][1]
                    if e == 0:
                        continue
                kept.append((a, e))
            out.append((c, _canonical_word(kept)))
        return _poly_merge(out)

    return strip(num), strip(den)


def _poly_diff(p, v) -> "Expr":
    total = Expr.zero()
    for c, f in p:
        for i, (a, e) in enumerate(f):
            da = a.diff(v)
            if da.is_zero():
                continue
            prefix = _mono_expr(c, f[:i])
            mid = Expr.const(QC(Fraction(e)))
            if e != 1:
                mid = mid * _atom_power(a, e - 1)
            suffix = _mono_expr(ONE, f[i + 1 :])
            total = total + prefix * mid * da * suffix
    return total


def _atom_power(a: Atom, e: int) -> Expr:
    if e == 0:
        return Expr.one()
    if isinstance(a, PowAtom):
        return a.base ** (a.exp * e)
    return _mono_expr(ONE, ((a, e),))


def _subst_poly(p, bindings) -> Expr:
    total = Expr.zero()
    for c, f in p:
        term = Expr.const(c)
        for a, e in f:
            term = term * _subst_atom(a, bindings) ** e
        total = total + term
    return total


def _subst_atom(a: Atom, bindings) -> Expr:
    if isinstance(a, SymbolAtom):
        return bindings.get(a.symbol, Expr.atom(a))
    if isinstance(a, PowAtom):
        if any(a.base.mentions(s) for s in bindings):
            return a.base._subst(bindings) ** a.exp
        return Expr.atom(a)
    if isinstance(a, (OpaqueAtom, PartialAtom)):
        if a.fn in bindings:
            raise UnsupportedExpressionError(
                f"cannot substitute applied opaque function {a.fn.name}"
            )
        new_args = []
        for s in a.args:
            if s in bindings:
                rsym = _as_bare_symbol(bindings[s])
                if rsym is None:
                    raise UnsupportedExpressionError(
                        f"opaque argument {s.name} may only be renamed, not replaced "
                        "by a compound expression"
                    )
                new_args.append(rsym)
            else:
                new_args.append(s)
        if isinstance(a, OpaqueAtom):
            return Expr.atom(OpaqueAtom(a.fn, tuple(new_args)))
        orders = tuple(
            (_as_bare_symbol(bindings[s]) if s in bindings else s, n)
            for s, n in a.orders
        )
        return Expr.atom(PartialAtom(a.fn, tuple(new_args), orders))
    if isinstance(a, RepAtom):
        return Expr.atom(
            RepAtom(a.dependent, a.independent, a.expansion._subst(bindings))
        )
    raise TypeError(a)


def _as_bare_symbol(e: Expr) -> Optional[Symbol]:
    if (
        e.den_is_one()
        and len(e._num) == 1
        and e._num[0][0].is_one()
        and len(e._num[0][1]) == 1
        and e._num[0][1][0][1] == 1
        and isinstance(e._num[0][1][0][0], SymbolAtom)
    ):
        return e._num[0][1][0][0].symbol
    return None


def _check_cycles(bindings):
    graph = {s: [t for t in e.symbols() if t in bindings] for s, e in bindings.items()}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in graph}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph[start]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            adv = next(it, None)
            if adv is None:
                color[node] = BLACK
                stack.pop()
                path.pop()
                continue
            if color[adv] == GRAY:
                cyc = path[path.index(adv) :] + [adv]
                raise SubstitutionCycleError(cyc)
            if color[adv] == WHITE:
                color[adv] = GRAY
                stack.append((adv, iter(graph[adv])))
                path.append(adv)


_E_ZERO = Expr._raw((), _POLY_ONE)
_E_ONE = Expr._raw(_POLY_ONE, _POLY_ONE)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    return Expr._coerce(e).substitute(bindings)


def equals_canonical(a, b) -> bool:
    """True iff a - b normalizes to zero as a rational function."""
    return (Expr._coerce(a) - Expr._coerce(b)).is_zero()


class CommutatorTable:
    """Antisymmetric lookup [a, b] for declared symbol pairs."""

    def __init__(self, entries: Mapping[Tuple[Symbol, Symbol], Expr] = ()):
        self._map = {}
        self._syms = {}
        for (a, b), e in dict(entries).items():
            self.declare(a, b, e)

    def declare(self, a: Symbol, b: Symbol, value):
        value = Expr._coerce(value)
        self._map[(a.name, b.name)] = value
        self._map[(b.name, a.name)] = -value
        self._syms[a.name] = a
        self._syms[b.name] = b

    def lookup(self, a: Symbol, b: Symbol) -> Optional[Expr]:
        return self._map.get((a.name, b.name))

    def pairs(self):
        seen = set()
        for (an, bn), v in self._map.items():
            if (bn, an) in seen:
                continue
            seen.add((an, bn))
            yield self._syms[an], self._syms[bn], v

    def __bool__(self):
        return bool(self._map)


def _kappa_degree(factors) -> int:
    deg = 0
    for a, e in factors:
        if isinstance(a, SymbolAtom) and a.symbol.kind == SymbolKind.COMMUTATOR:
            deg += abs(e)
    return deg


def normal_order(e, commutators: CommutatorTable) -> Expr:
    """Rewrite out-of-order noncommuting products into canonical order,
    emitting commutator terms, truncated to first order in commutators."""
    e = Expr._coerce(e)
    if _poly_has_word(e._den):
        raise UnsupportedExpressionError(
            "cannot normal-order an expression with noncommuting denominator"
        )
    total = Expr.zero()
    for c, f in e._num:
        total = total + _normal_order_mono(c, f, commutators, _kappa_degree(f))
    if e.den_is_one():
        return total
    return total / _poly_expr(e._den)


def _normal_order_mono(coeff: QC, factors, comms: CommutatorTable, budget: int) -> Expr:
    word = []
    for a, e in factors:
        if a.nc_classes:
            if e < 0:
                raise UnsupportedExpressionError(
                    "negative power of a noncommuting factor"
                )
            word.extend([(a, 1)] * e)
        else:
            word.append((a, e))

    result = Expr.zero()
    stack = [(coeff, tuple(word), budget)]
    while stack:
        c, w, b = stack.pop()
        idx = _first_inversion(w)
        if idx is None:
            result = result + _mono_expr(c, w)
            continue
        a1, _ = w[idx]
        a2, _ = w[idx + 1]
        swapped = w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2 :]
        stack.append((c, swapped, b))
        if b + 1 > 1:
            continue  # first-order truncation in commutators
        if not (isinstance(a1, SymbolAtom) and isinstance(a2, SymbolAtom)):
            raise NormalOrderError(a1, a2)
        comm = comms.lookup(a1.symbol, a2.symbol)
        if comm is None:
            raise NormalOrderError(a1.symbol.name, a2.symbol.name)
        prefix = _mono_expr(ONE, w[:idx])
        suffix = _mono_expr(ONE, w[idx + 2 :])
        branch = Expr.const(c) * prefix * comm * suffix
        result = result + _normal_order_expr(branch, comms, b + 1)
    return result


def _normal_order_expr(e: Expr, comms: CommutatorTable, budget: int) -> Expr:
    total = Expr.zero()
    for c, f in e._num:
        total = total + _normal_order_mono(c, f, comms, budget)
    if e.den_is_one():
        return total
    return total / _poly_expr(e._den)


def _first_inversion(word):
    for i in range(len(word) - 1):
        a, _ = word[i]
        b, _ = word[i + 1]
        if not _commutes(a, b) and b.key < a.key:
            return i
    return None


def expand_rep_atoms(e, mode: str = "operator") -> Expr:
    """Replace internal representation markers by their expansions.

    mode 'paper' symmetrizes products of representation coefficients over
    the slots they occupy before expanding; 'operator' and 'commuting'
    expand in written order.
    """
    e = Expr._coerce(e)
    if not any(isinstance(a, RepAtom) for a in e.atoms()):
        return e
    total = Expr.zero()
    for c, f in e._num:
        total = total + _expand_mono(c, f, mode)
    if e.den_is_one():
        return total
    return total / _poly_expr(e._den)


def _expand_mono(coeff: QC, factors, mode: str) -> Expr:
    slots = []
    units = []
    for a, e in factors:
        if isinstance(a, RepAtom):
            if e < 0:
                raise UnsupportedExpressionError(
                    "negative power of representation factor"
                )
            for _ in range(e):
                slots.append(len(units))
                units.append((a, 1))
        else:
            units.append((a, e))
    if not slots:
        return _mono_expr(coeff, factors)

    def assemble(assignment):
        term = Expr.const(coeff)
        for i, (a, e) in enumerate(units):
            if i in assignment:
                term = term * assignment[i].expansion
            else:
                term = term * _atom_power(a, e)
        return term

    reps = [units[i][0] for i in slots]
    if mode == "paper" and len(reps) > 1:
        perms = {
            tuple(p.key for p in perm): perm for perm in itertools.permutations(reps)
        }
        total = Expr.zero()
        for perm in perms.values():
            total = total + assemble(dict(zip(slots, perm)))
        return total / len(perms)
    return assemble(dict(zip(slots, reps)))
