"""Immutable symbolic expressions over exact Gaussian-rational scalars.

Internal normal form: every expression is a fraction num/den of two
"polynomials", each polynomial a merged, sorted tuple of monomials, each
monomial an exact scalar coefficient times an ordered word of atomic
factors with integer exponents.  A factor is central or noncommuting, a
yes/no property: the noncommuting factors of a word form one class and
keep their written order, the central factors commute with everything and
are merged in by key, and neighbouring equal letters fold, inverse letters
cancelling.  A Symbol is its own atom; an opaque function's application is
the order-zero case of its plain-partial atom; a non-integer rational
power lives in a power atom, which is noncommuting when its base holds a
noncommuting letter.

Atoms, and diffop's derivative generators, are interned in one weak table,
so equal atoms are one object and a word hashes and compares by the
identity of its atoms: _poly_merge buckets monomials by their words, and
builds a word's nested key tuple only to sort the distinct words;
_canonical_word folds neighbours that are one atom.  Operator terms merge
by their generator words in the same way.
Expr.key, the nested-tuple form that ==, hash and power-atom keys compare,
is built on first use and kept; most intermediate values never need it.

A sum adds its terms with denominator 1 by merging their monomials in one
pass, then adds the terms with a sum denominator one by one in source order:
with no multivariate GCD (_cancel_content strips only common monomials), the
canonical form of a sum over different sum denominators depends on that
order.  Expr.sum sums a list of terms; diff_plain, expand_rep_atoms and
normal_order stream the (coefficient, canonical word) monomials of each
source term (a monomial; for diff_plain, a monomial and one of its atoms)
into one merge, and build as an Expr only a source term whose product meets
a sum denominator or leaves a power atom at an exponent other than 1.

A product is made in one step: each output word, the concatenation of one
word per factor, is canonicalized once, and all are merged once; a word in
which a power atom ends at an exponent other than 1 is recomputed by
Expr.__pow__ and added after.  Sum denominators multiply and divide last.

Paper mode's finalize, normal_order(expand_rep_atoms(e, 'paper')), is one
pass (paper_normal_order): normal ordering is linear, so the average over
the orders of each monomial's representation markers is taken on
coefficients, by the expected number of times each letter pair is out of
order, and one word is built per bucket, with no marker ordering built.
Where the order of additions could matter (a sum denominator in e, in a
marker expansion or in a commutator value) or the pass raises, the two
passes run instead.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import (
    ContextError,
    NormalOrderError,
    SubstitutionCycleError,
    UnsupportedExpressionError,
)
from .scalars import ONE, QC, ZERO

# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

_RANK_SYMBOL = 1
_RANK_OPAQUE = 2
_RANK_PARTIAL = 3
_RANK_POW = 4
_RANK_REP = 5


# The atom table (hash-consing, Filliâtre & Conchon, ML Workshop 2006): each
# atom class, and diffop.DerivativeGenerator, builds its values in __new__
# through it, and a value no one refers to drops out.  A table key is the
# class and the symbols, polynomials and numbers the value is made of,
# compared by identity where they are atoms; so atoms whose keys coincide,
# holding only symbol names, stay apart.  A symbol's table key is its key.
_ATOMS = weakref.WeakValueDictionary()
_new = object.__new__


class Atom:
    """Base class for monomial factors.  An atom other than a Symbol keeps
    its derivative along each variable it mentions in _diffs, computed by
    _diff on first use (atoms are interned and immutable); any other variable
    gives zero and no entry, so the table keeps alive no symbol the atom does
    not hold.  A power atom's derivative holds the atom: the cycle collector
    frees the two."""

    __slots__ = ("key", "_diffs", "__weakref__")

    noncommuting = False

    def mentions(self, sym: Symbol) -> bool:
        raise NotImplementedError

    def diff(self, v: Symbol) -> "Expr":
        d = self._diffs.get(v)
        if d is None:
            if not self.mentions(v):
                return _E_ZERO
            d = self._diffs[v] = self._diff(v)
        return d


class SymbolKind:
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    PARAMETER = "parameter"
    OPAQUE = "opaque"
    COMMUTATOR = "commutator"

    ALL = (INDEPENDENT, DEPENDENT, PARAMETER, OPAQUE, COMMUTATOR)


class _Frozen:
    """Base of the immutable value classes: _init sets the slots once (Token and
    SourceSpan, made per token, set theirs directly); assignment raises AttributeError."""

    __slots__ = ()

    def _init(self, *values):
        for name, v in zip(self.__slots__, values):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    __delattr__ = __setattr__


class Symbol(Atom, _Frozen):
    """Named atom with a kind and a commutativity class.

    Class 0 commutes with everything; class 1 holds the noncommuting
    symbols, which may carry declared commutators.  Commutator-kind symbols
    are central and are forced into class 0.  A symbol is its own monomial
    factor.  Symbols are interned: Symbol(name, kind, klass) is the one
    symbol of that name, kind and class while any is alive, so symbols
    compare and hash by identity.
    """

    __slots__ = ("name", "kind", "klass", "noncommuting")

    def __new__(cls, name: str, kind: str = SymbolKind.PARAMETER, klass: int = 0):
        if kind not in SymbolKind.ALL:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if klass not in (0, 1):
            raise ValueError(f"symbol class must be 0 (central) or 1 (noncommuting), "
                             f"not {klass!r}")
        if kind == SymbolKind.COMMUTATOR:
            klass = 0
        key = (_RANK_SYMBOL, name, kind, klass)
        self = _ATOMS.get(key)
        if self is None:
            self = _ATOMS[key] = _new(cls)
            self._init(name, kind, klass, klass == 1)
            object.__setattr__(self, "key", key)
        return self

    def mentions(self, sym):
        return self is sym

    def diff(self, v):
        return Expr.one() if self is v else Expr.zero()

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind!r}, klass={self.klass})"


class PartialAtom(Atom):
    """Plain partial derivative of an opaque function: an atom with an
    unordered multi-index, so mixed plain partials coincide.  With no
    orders it is the application itself, and keeps an opaque key so that
    it sorts before every partial of the function."""

    __slots__ = ("fn", "args", "orders")

    def __new__(cls, fn: Symbol, args: Tuple[Symbol, ...], orders):
        merged = {}
        for s, n in orders:
            if n:
                merged[s] = merged.get(s, 0) + n
        canon = tuple(sorted(merged.items(), key=lambda kv: kv[0].name))
        args = tuple(args)
        tkey = (cls, fn, args, canon)
        self = _ATOMS.get(tkey)
        if self is None:
            self = _ATOMS[tkey] = _new(cls)
            self.fn = fn
            self.args = args
            self.orders = canon
            self._diffs = {}
            argnames = tuple(a.name for a in args)
            if canon:
                self.key = (_RANK_PARTIAL, fn.name, argnames, tuple((s.name, n) for s, n in canon))
            else:
                self.key = (_RANK_OPAQUE, fn.name, argnames)
        return self

    @property
    def total_order(self):
        return sum(n for _, n in self.orders)

    def mentions(self, sym):
        return self.fn is sym or sym in self.args

    def _diff(self, v):
        if v in self.args:
            return Expr.atom(PartialAtom(self.fn, self.args, self.orders + ((v, 1),)))
        return Expr.zero()

    def __repr__(self):
        if not self.orders:
            return f"PartialAtom({self.fn.name}({', '.join(a.name for a in self.args)}))"
        idx = ",".join(f"{s.name}^{n}" if n > 1 else s.name for s, n in self.orders)
        return f"PartialAtom(d{self.fn.name}/d[{idx}])"


class PowAtom(Atom):
    """base ** exponent with a rational exponent in (0, 1), sqrt included.
    Expr.__pow__ multiplies out the integer part of any other exponent."""

    __slots__ = ("base", "exp", "noncommuting")

    def __new__(cls, base: "Expr", exp: Fraction):
        exp = Fraction(exp)
        if not 0 < exp < 1:
            raise ValueError(f"PowAtom requires an exponent in (0, 1), not {exp}")
        tkey = (cls, base._num, base._den, exp.numerator, exp.denominator)
        self = _ATOMS.get(tkey)
        if self is None:
            self = _ATOMS[tkey] = _new(cls)
            self.base = base
            self.exp = exp
            self._diffs = {}
            self.noncommuting = base.noncommuting()
            self.key = (_RANK_POW, base.key, (exp.numerator, exp.denominator))
        return self

    def mentions(self, sym):
        return self.base.mentions(sym)

    def _diff(self, v):
        db = self.base.diff_plain(v)
        if db.is_zero():
            return Expr.zero()
        return Expr.const(QC(self.exp)) * self.base ** (self.exp - 1) * db

    def __repr__(self):
        return f"PowAtom({self.base!r}, {self.exp})"


class RepAtom(Atom):
    """Internal marker standing for a dependent-variable representation
    coefficient, kept unexpanded between nested whole derivatives until
    finalize: in paper mode, whose symmetrization needs it, and for a
    representation with a sum denominator or a fractional power.  Its key
    holds the expansion, so markers that expand differently differ.  Its
    derivatives, the expansion's, are kept in its table (see Atom)."""

    __slots__ = ("dependent", "independent", "expansion", "noncommuting")

    def __new__(cls, dependent: Symbol, independent: Symbol, expansion: "Expr"):
        tkey = (cls, dependent, independent, expansion._num, expansion._den)
        self = _ATOMS.get(tkey)
        if self is None:
            self = _ATOMS[tkey] = _new(cls)
            self.dependent = dependent
            self.independent = independent
            self.expansion = expansion
            self._diffs = {}
            self.noncommuting = expansion.noncommuting()
            self.key = (_RANK_REP, dependent.name, independent.name, expansion.key)
        return self

    def mentions(self, sym):
        return self.expansion.mentions(sym)

    def _diff(self, v):
        # The derivative of a representation coefficient is an ordinary
        # expression, not a coefficient; expand immediately.
        return self.expansion.diff_plain(v)

    def __repr__(self):
        return f"RepAtom(d{self.dependent.name}/d{self.independent.name})"


# ---------------------------------------------------------------------------
# Monomials and polynomials (internal plumbing)
# ---------------------------------------------------------------------------
# monomial: (coeff: QC, factors: tuple[(Atom, int exponent), ...])
# polynomial: tuple of monomials, merged and sorted by factor key
#
# Polynomials stored inside an Expr are fully canonical: no zero
# coefficients, no foldable power atoms (atom.exp * exponent integral).


def _mono_fkey(factors):
    return tuple([(a.key, e) for a, e in factors])


def _canonical_word(letters):
    """Canonical form of a word, folding equal neighbours: the noncommuting
    letters keep their written order, and the central letters, which
    commute with every letter, are sorted by key and merged into that
    sequence by key, ties going to the earlier letter.  This is the least
    word, in key order, that the commuting swaps reach.  A noncommuting
    letter that cancels in the fold can leave the rest out of order
    (m z z^-1 b folds to m b, canonically b m), so that word is
    canonicalized again."""
    central, word = [], []
    for i, (a, e) in enumerate(letters):
        if e:
            (word if a.noncommuting else central).append((a.key, i, a, e))
    central.sort()
    merged = central
    if word:
        merged, n = [], 0
        for letter in word:
            while n < len(central) and central[n] < letter:
                merged.append(central[n])
                n += 1
            merged.append(letter)
        merged.extend(central[n:])
    out, again = [], False
    for _k, _i, a, e in merged:
        if out and out[-1][0] is a:
            pe = out.pop()[1] + e
            if pe:
                out.append((a, pe))
            elif a.noncommuting:
                again = True
        else:
            out.append((a, e))
    word = tuple(out)
    return _canonical_word(word) if again else word


def _poly_merge(monos) -> tuple:
    """Sum the monomials of each word, drop the zeros and sort by word key.  A
    word hashes and compares by its interned atoms; only the distinct words
    that are left build their keys, to sort."""
    buckets = {}
    for m in monos:
        b = buckets.get(m[1])
        buckets[m[1]] = m if b is None else (b[0] + m[0], b[1])
    out = [m for m in buckets.values() if not m[0].is_zero()]
    if len(out) > 1:
        out.sort(key=lambda m: _mono_fkey(m[1]))
    return tuple(out)


def _poly_key(p):
    return tuple((_mono_fkey(f), c.key) for c, f in p)


_POLY_ONE = ((ONE, ()),)


def _poly_has_word(p):
    return any(a.noncommuting for _c, f in p for a, _e in f)


def _mono_expr(coeff: QC, letters) -> "Expr":
    """Canonical Expr equal to coeff * ordered product of letters.

    A power atom raised to an exponent other than 1 is recomputed by
    Expr.__pow__ (integer part expanded, residue in one atom), which may
    turn the monomial into a sum or a fraction."""
    if coeff.is_zero():
        return Expr.zero()
    kept, expansions = [], []
    for a, e in _canonical_word(letters):
        if isinstance(a, PowAtom) and e != 1:
            expansions.append(a.base ** (a.exp * e))
        else:
            kept.append((a, e))
    out = Expr._raw(((coeff, tuple(kept)),), _POLY_ONE)
    for ex in expansions:
        out = out * ex
    return out


def _poly_expr(p) -> "Expr":
    """Wrap an already-canonical polynomial as an Expr."""
    return Expr._raw(p, _POLY_ONE)


def _product(factors) -> "Expr":
    """Ordered product of Exprs and (coefficient, word) polynomials: the
    product of the numerators over the product of the sum denominators."""
    num = _mul_polys(*(x._num if isinstance(x, Expr) else x for x in factors))
    dens = [x._den for x in factors if isinstance(x, Expr) and not x.den_is_one()]
    return num / _mul_polys(*dens) if dens else num


def _words(factors) -> list:
    """(coeff, canonical word) per product of one monomial of each factor, a
    polynomial or an Expr; an Expr with a sum denominator raises _NotPlain."""
    monos = [(ONE, ())]
    for p in factors:
        if p.__class__ is Expr:
            if p._den != _POLY_ONE:
                raise _NotPlain
            p = p._num
        monos = [(c1 * c2, f1 + f2) for c1, f1 in monos for c2, f2 in p]
    return [(c, _canonical_word(f)) for c, f in monos]


def _mul_polys(*polys) -> "Expr":
    """Product of polynomials: one canonical word per output monomial."""
    merged, rest = [], []
    for c, f in _words(polys):
        if any(e != 1 and isinstance(a, PowAtom) for a, e in f):
            rest.append(_mono_expr(c, f))
        else:
            merged.append((c, f))
    return Expr.sum([Expr._raw(_poly_merge(merged), _POLY_ONE), *rest])


# ---------------------------------------------------------------------------
# Expression
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression in canonical form."""

    # _compiled holds the numeric program that numcheck makes on the first
    # evaluation; it is left unset until then, so construction never pays.
    __slots__ = ("_num", "_den", "_key", "_compiled")

    def __init__(self, *_args, **_kw):
        raise TypeError("use Expr factory methods (const, symbol, ...)")

    @classmethod
    def _raw(cls, num, den):
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_key", None)
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
            dc, df = den[0]
            return _mul_polys(num, ((dc.inverse(), tuple((a, -e) for a, e in df[::-1])),))
        if _poly_has_word(den):
            raise UnsupportedExpressionError(
                "sum denominators containing noncommuting symbols are not supported"
            )
        num, den = _cancel_content(num, den)
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
    def sum(cls, terms: Iterable["Expr"]) -> "Expr":
        """Sum of the terms, in one pass over them (see the module docstring).

        A term with denominator 1 is released once its monomials are taken,
        so a generator of terms keeps few of them alive at a time."""
        merged = []
        rest = None
        count = 0
        for count, t in enumerate(terms, 1):
            if t.den_is_one():
                merged.extend(t._num)
            else:
                rest = t if rest is None else rest + t
        if count == 1:
            return t
        out = cls._raw(_poly_merge(merged), _POLY_ONE)
        if rest is None:
            return out
        return rest if not out._num else out + rest

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
        return cls._raw(((ONE, ((sym, 1),)),), _POLY_ONE)

    @classmethod
    def atom(cls, a: Atom) -> "Expr":
        return cls._raw(((ONE, ((a, 1),)),), _POLY_ONE)

    @classmethod
    def opaque(cls, fn: Symbol, args: Sequence[Symbol]) -> "Expr":
        return cls.atom(PartialAtom(fn, tuple(args), ()))

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
        """The canonical form as nested tuples, computed on first use."""
        if self._key is None:
            object.__setattr__(self, "_key", (_poly_key(self._num), _poly_key(self._den)))
        return self._key

    def noncommuting(self) -> bool:
        return _poly_has_word(self._num) or _poly_has_word(self._den)

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
                if isinstance(a, Symbol):
                    out.add(a)
                elif isinstance(a, PartialAtom):
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
            return Expr._from_fraction(_poly_merge(self._num + other._num), self._den)
        a = _mul_polys(self._num, other._den)
        b = _mul_polys(other._num, self._den)
        num = a + b
        den = _mul_polys(self._den, other._den)
        return num / den

    __radd__ = __add__

    def __neg__(self):
        return Expr._raw(tuple((-c, f) for c, f in self._num), self._den)

    def __sub__(self, other):
        return self + (-Expr._coerce(other))

    def __rsub__(self, other):
        return Expr._coerce(other) + (-self)

    def __mul__(self, other):
        other = Expr._coerce(other)
        if other is _E_ONE:
            return self
        if self is _E_ONE:
            return other
        num = _mul_polys(self._num, other._num)
        if self.den_is_one() and other.den_is_one():
            return num
        return num / _mul_polys(self._den, other._den)

    def __rmul__(self, other):
        return Expr._coerce(other) * self

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero expression")
        if other.den_is_one() and self.den_is_one():
            return Expr._from_fraction(self._num, other._num)
        num = _mul_polys(self._num, other._den)
        den = _mul_polys(self._den, other._num)
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
        single = _single_atom(self)
        if isinstance(single, PowAtom):
            return single.base ** (single.exp * q)
        # The fractional part of q stays in one atom with exponent in (0, 1),
        # so b^(1/2) and b^(-1/2) share it; the integer part multiplies out.
        n = q.numerator // q.denominator
        out = Expr.atom(PowAtom(self, q - n))
        return out * self ** n if n else out

    def sqrt(self) -> "Expr":
        return self ** Fraction(1, 2)

    # -- structural equality (canonical-form identity) -------------------

    def __eq__(self, other):
        """Structural identity of the canonical forms.

        This is not semantic equality: with no multivariate GCD, equal
        rational functions can have different canonical forms (for example
        (x + y/(x+1)) - y/(x+1) is (x + x^2)/(1 + x), not x).  Use
        equals_canonical for the zero test of a - b."""
        return isinstance(other, Expr) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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
            return f"Expr<{self.key!r}>"


def _cancel_content(num, den):
    """Remove plain commuting atom powers common to every monomial of both
    polynomials (power atoms excluded to keep this a pure poly operation)."""
    common = None
    for p in (num, den):
        for _c, f in p:
            powers = {
                a.key: (a, e)
                for a, e in f
                if not a.noncommuting and not isinstance(a, PowAtom)
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
    """One source term per atom a^e of a monomial c*f: c*e*f[:i]*a^(e-1), da, f[i+1:]."""
    sources = ((((c if e == 1 else c * QC(e), f[:i] + ((a, e - 1),)),), da, ((ONE, f[i + 1 :]),))
               for c, f in p for i, (a, e) in enumerate(f) if not (da := a.diff(v)).is_zero())
    return _stream(lambda ops, *factors: ops.product(factors), sources)


def _subst_poly(p, bindings) -> Expr:
    terms = []
    for c, f in p:
        term = Expr.const(c)
        for a, e in f:
            term = term * _subst_atom(a, bindings) ** e
        terms.append(term)
    return Expr.sum(terms)


def _subst_atom(a: Atom, bindings) -> Expr:
    if isinstance(a, Symbol):
        return bindings.get(a, Expr.atom(a))
    if isinstance(a, PowAtom):
        if any(a.base.mentions(s) for s in bindings):
            return a.base._subst(bindings) ** a.exp
        return Expr.atom(a)
    if isinstance(a, PartialAtom):
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


def _single_atom(e: Expr) -> Optional[Atom]:
    """The atom a when e is exactly a (coefficient 1, exponent 1), else None."""
    if e.den_is_one() and len(e._num) == 1:
        c, f = e._num[0]
        if c.is_one() and len(f) == 1 and f[0][1] == 1:
            return f[0][0]
    return None


def _as_bare_symbol(e: Expr) -> Optional[Symbol]:
    a = _single_atom(e)
    return a if isinstance(a, Symbol) else None


def _check_cycles(bindings):
    from graphlib import CycleError, TopologicalSorter

    graph = {s: [t for t in e.symbols() if t in bindings] for s, e in bindings.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        # graphlib lists the cycle in predecessor order; report it the way
        # the bindings point (x -> y when x is bound to an expression in y).
        raise SubstitutionCycleError(reversed(err.args[1])) from None


_E_ZERO = Expr._raw((), _POLY_ONE)
_E_ONE = Expr._raw(_POLY_ONE, _POLY_ONE)


class _NotPlain(Exception):
    """A product would divide by a sum or call Expr.__pow__ (see _Plain)."""


def _stream(fn, sources) -> Expr:
    """Sum of producer fn(ops, *source) over the sources: the monomials that fn
    builds with _Plain merge once; a source term that raises _NotPlain is built
    again with _Exact and added after, in source order, as Expr.sum adds it."""
    merged, rest = [], []
    for src in sources:
        try:
            merged.extend(fn(_Plain, *src))
        except _NotPlain:
            rest.append(fn(_Exact, *src))
    return Expr.sum([_poly_expr(_poly_merge(merged)), *rest])


def _map_num(e: Expr, fn, *args) -> Expr:
    """Stream of fn(ops, c, f, *args) over the c*f of e's numerator, over e's denominator."""
    out = _stream(fn, ((c, f, *args) for c, f in e._num))
    return out if e.den_is_one() else out / _poly_expr(e._den)


class _Plain:
    """Builders on lists of monomials: product (unmerged), total, each (fn per merged monomial)."""

    @staticmethod
    def product(factors) -> list:
        out = _words(factors)
        for _c, f in out:
            for a, e in f:
                if e != 1 and a.__class__ is PowAtom:
                    raise _NotPlain
        return out

    total = staticmethod(lambda terms: [m for t in terms for m in t])
    each = staticmethod(lambda words, fn, *args: [
        m for c, f in _poly_merge(words) for m in fn(_Plain, c, f, *args)])


class _Exact:
    """Builders of a source term's Expr, as the per-term path made it."""
    product, total, each = staticmethod(_product), staticmethod(Expr.sum), staticmethod(_map_num)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    return Expr._coerce(e).substitute(bindings)


def equals_canonical(a, b) -> bool:
    """True iff a - b normalizes to zero as a rational function."""
    return (Expr._coerce(a) - Expr._coerce(b)).is_zero()


def _partial_coefficients(e: Expr, fn: Symbol) -> list:
    """(orders, coefficient) per partial atom of fn in e, in key order; e is
    linear in them, one at power 1 in each numerator monomial.  The atoms
    are central, so a word without its atom stays canonical."""
    groups = {}
    for c, f in e._num:
        i = next(i for i, (a, _e) in enumerate(f) if a.__class__ is PartialAtom and a.fn == fn)
        groups.setdefault(f[i][0].key, (f[i][0], []))[1].append((c, f[:i] + f[i + 1:]))
    return [(a.orders, Expr._from_fraction(_poly_merge(monos), e._den))
            for a, monos in (groups[k] for k in sorted(groups))]


class CommutatorTable:
    """Antisymmetric lookup [a, b] for declared symbol pairs, keyed by the
    pair of (interned) symbols: a symbol that only shares a name with a
    declared one has no commutator here."""

    def __init__(self):
        self._map = {}

    def declare(self, a: Symbol, b: Symbol, value):
        """Declare [a, b] = value.  normal_order stops at first order in the
        commutators, exact only if each term holds a commutator symbol at a
        positive power; any other value raises ContextError."""
        value = Expr._coerce(value)
        for term in value._num:
            if not any(e > 0 for e in _commutator_powers(term[1])):
                from .textio import print_expr

                term = print_expr(_poly_expr((term,)))
                raise ContextError(f"commutator [{a.name}, {b.name}]: term {term} has no "
                                   "commutator symbol at a positive power")
        self._map[a, b] = value
        self._map[b, a] = -value

    def lookup(self, a: Symbol, b: Symbol) -> Optional[Expr]:
        return self._map.get((a, b))

    def pairs(self):
        seen = set()
        for (a, b), v in self._map.items():
            if (b, a) not in seen:
                seen.add((a, b))
                yield a, b, v

    def __bool__(self):
        return bool(self._map)


def _commutator_powers(factors) -> list:
    return [e for a, e in factors if isinstance(a, Symbol) and a.kind == SymbolKind.COMMUTATOR]


def normal_order(e, commutators: CommutatorTable) -> Expr:
    """Put the noncommuting letters of each word in key order, with a
    commutator term for each out-of-order pair (first order in the
    commutators; see _normal_order_mono).  A denominator holds no
    noncommuting letter (_from_fraction refuses one), so it is left as it is.
    A numerator with no noncommuting letter is already in normal form."""
    e = Expr._coerce(e)
    if not _poly_has_word(e._num):
        return e
    return _map_num(e, _normal_order_mono, commutators)


def _normal_order_mono(ops, coeff: QC, factors, comms: CommutatorTable):
    """coeff * sort(w) plus, for each pair i < j of noncommuting letters
    with key(w_i) > key(w_j), coeff * [w_i, w_j] * sort(w without them):
    the normal form to first order in the commutators.  A word holding a
    commutator symbol gets no such terms; declare puts one in every term of
    a value, so the call that sorts a commutator term adds none.  Pairs
    come as an insertion sort meets them, which fixes the order of the
    additions over sum denominators."""
    central, word = [], []
    for a, e in factors:
        if not a.noncommuting:
            central.append((a, e))
        elif e < 0:
            raise UnsupportedExpressionError("negative power of a noncommuting factor")
        else:
            word.extend([a] * e)
    terms = []
    for j, b in enumerate(() if _commutator_powers(central) else word):
        for i in sorted(range(j), key=lambda i: word[i].key, reverse=True):
            a = word[i]
            if a.key <= b.key:
                continue
            if not (isinstance(a, Symbol) and isinstance(b, Symbol)):
                from .textio import print_expr

                pair = tuple(print_expr(Expr.atom(x)) for x in (a, b))
                exc = NormalOrderError(*pair)
                exc.args = ("cannot normal-order a non-symbol factor in the pair (%s, %s)" % pair,)
                raise exc
            comm = comms.lookup(a, b)
            if comm is None:
                raise NormalOrderError(a.name, b.name)
            rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
            branch = ops.product((((coeff, (*central, *((x, 1) for x in rest))),), comm))
            terms.append(ops.each(branch, _normal_order_mono, comms))
    word.sort(key=lambda a: a.key)
    terms.append(ops.product((((coeff, (*central, *((x, 1) for x in word))),),)))
    return ops.total(terms)


def expand_rep_atoms(e, mode: str = "operator") -> Expr:
    """Replace internal representation markers by their expansions.

    mode 'paper' symmetrizes products of representation coefficients over
    the slots they occupy before expanding, building every distinct order;
    'operator' and 'commuting' expand in written order.  With commutators,
    paper mode runs this only where paper_normal_order falls back.
    """
    e = Expr._coerce(e)
    if not any(isinstance(a, RepAtom) for a in e.atoms()):
        return e
    return _map_num(e, _expand_mono, mode)


def _split_markers(factors):
    """The runs of other letters around the marker copies of a word (one more
    run than copies) and the copies, a marker at power k counting k times."""
    runs, reps = [[]], []
    for a, e in factors:
        if not isinstance(a, RepAtom):
            runs[-1].append((a, e))
            continue
        if e < 0:
            raise UnsupportedExpressionError("negative power of representation factor")
        for _ in range(e):
            reps.append(a)
            runs.append([])
    return runs, reps


def _expand_mono(ops, coeff: QC, factors, mode: str):
    """coeff * factors with each marker replaced by its expansion: one product
    of the runs of other letters and the expansions between them."""
    runs, reps = _split_markers(factors)
    if not reps:
        return ops.product((((coeff, factors),),))

    def assemble(c, order):
        out = [((c, tuple(runs[0])),)]
        for rep, run in zip(order, runs[1:]):
            out += [rep.expansion, ((ONE, tuple(run)),)]
        return ops.product(out)

    if mode == "paper" and len(reps) > 1:
        perms = list(_distinct_permutations(reps))
        c = coeff / QC(len(perms))
        return ops.total(assemble(c, p) for p in perms)
    return assemble(coeff, reps)


def paper_normal_order(e, commutators: CommutatorTable) -> Expr:
    """normal_order(expand_rep_atoms(e, 'paper'), commutators) in one pass
    over e's numerator (_paper_monos), whose exact coefficients merge once.
    Where the order of additions can matter (no GCD), and wherever the pass
    raises, the two passes run instead and give their value or error: when e
    has a sum denominator, or the pass meets a marker expansion that is not
    one monomial over 1, a commutator value with a sum denominator or a
    noncommuting letter, a noncommuting letter that is not a Symbol or has
    a negative power, a power atom at an exponent other than 1, or a letter
    pair with no declared commutator."""
    e = Expr._coerce(e)
    if e.den_is_one():
        try:
            return _poly_expr(_poly_merge(_paper_monos(e._num, commutators)))
        except (_NotPlain, UnsupportedExpressionError):
            pass
    return normal_order(expand_rep_atoms(e, "paper"), commutators)


def _paper_monos(num, comms) -> list:
    """The monomials of the paper pass.  Over the n! orders of a monomial's n
    marker copies in their slots, every word has the same central factors and
    sorted letters, and the commutator term of a letter pair (x, y) with
    key(x) > key(y) counts once per word in which x stands before y; the
    standard-ordering product is linear, so the average takes the expected
    count W.  In units of 1/d, d = 2n (2 with no marker), W is d for two
    letters of one run or of one expansion (item) in written order, n for
    letters of two items, 2r for an item letter before a letter of run r
    (between slots r and r+1), and 2(n - r) for that letter before it.  Each monomial adds its
    coefficient to the bucket of its sorted word and coeff * W to the bucket
    of each pair; one word is built per bucket.  A word holding a commutator
    symbol gets no pair terms, as in _normal_order_mono; a commutator value
    with no letter keeps the branch word sorted."""
    words, pairs = {}, {}
    for coeff, factors in num:
        runs, reps = _split_markers(factors)
        n = len(reps)
        d = 2 * n or 2
        sources = [(run, r, -1) for r, run in enumerate(runs)]
        for k, rep in enumerate(reps):
            x = rep.expansion
            if x._den != _POLY_ONE or len(x._num) != 1:
                raise _NotPlain
            c, f = x._num[0]
            coeff = coeff * c
            sources.append((f, -1, k))
        central, letters = [], []
        for f, r, k in sources:
            for a, e in f:
                if not a.noncommuting:
                    central.append((a, e))
                elif e > 0 and a.__class__ is Symbol:
                    letters += [(a, r, k)] * e
                else:
                    raise _NotPlain
        cw = _canonical_word(central)
        ls = tuple(sorted([a for a, _r, _k in letters], key=lambda a: a.key))
        words[cw, ls] = words.get((cw, ls), ZERO) + coeff
        if _commutator_powers(cw):
            continue
        weights = {}
        for j, (b, _rb, kb) in enumerate(letters):
            for a, ra, ka in letters[:j]:
                if a.key == b.key:
                    continue
                if ka < 0:
                    w = d if kb < 0 else 2 * (n - ra)
                else:
                    w = d if ka == kb else n
                pair, w = ((a, b), w) if a.key > b.key else ((b, a), d - w)
                if w:
                    weights[pair] = weights.get(pair, 0) + w
        for (x, y), w in weights.items():
            key = (x, y, d, cw, ls)
            pairs[key] = pairs.get(key, ZERO) + coeff * QC(w)
    out = [m for (cw, ls), c in words.items()
           for m in _Plain.product((((c, cw + tuple((a, 1) for a in ls)),),))]
    for (x, y, d, cw, ls), c in pairs.items():
        comm = comms.lookup(x, y)
        if comm is None or _poly_has_word(comm._num):
            raise _NotPlain
        rest = list(ls)
        rest.remove(x)
        rest.remove(y)
        out += _Plain.product((((c / QC(d), cw + tuple((a, 1) for a in rest)),), comm))
    return out


def _distinct_permutations(items):
    """The orderings of items that differ in their keys: n!/prod(k_i!) of
    them, not n!.  At each position every key is tried once, at its first
    remaining occurrence, so they come in the order in which
    itertools.permutations yields each first; sums over sum denominators
    depend on that order."""
    if len(items) <= 1:
        yield tuple(items)
        return
    tried = set()
    for i, a in enumerate(items):
        if a.key not in tried:
            tried.add(a.key)
            for rest in _distinct_permutations(items[:i] + items[i + 1 :]):
                yield (a,) + rest
