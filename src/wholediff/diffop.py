"""Differential operators as first-class values: application, composition,
commutators, and term-level simplification.

An operator is a finite sum of terms, each a coefficient expression times
an ordered product of derivative generators; generators apply
right-to-left (the rightmost acts first) and the coefficient multiplies
from the left.  Generators are interned, so a word is a tuple compared by
identity: terms merge per word and only the distinct words are sorted.
A + B and A - B merge the two sorted term tuples in one linear pass.
apply is the one definition of a generator (wholederiv's derivative steps,
resolved by finalize); composition agrees with nested application, pushing
derivatives through coefficients by the product rule, and takes each
derivative of a coefficient object once per call.

A commutator is one pass with no intermediate operator: each word keeps
its A∘B and its B∘A coefficients apart, and its coefficient is the sum of
the first side minus the sum of the second, each summed on its own, as
compose(A, B) - compose(B, A) sums them (over sum denominators, with no
GCD, the canonical form depends on how a sum is grouped).  The leading
products a·b and b·a of a term pair (a·X, b·Y) with X+Y == Y+X, a and b
polynomials in central symbols, are one polynomial and are not built,
except in a word that also holds a term over a sum denominator.
expand_to_plain and op_equals are read off apply to an opaque function."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .depctx import DependencyContext
from .errors import ContextError, ContextMismatchError
from .symexpr import _ATOMS, Expr, Symbol, SymbolKind, _Frozen, _partial_coefficients
from .wholederiv import derive_raw, finalize

PLAIN = "plain"
WHOLE = "whole"


class DerivativeGenerator(_Frozen):
    """W[v] (whole) or D[v] (plain).  Generators are interned in the atom
    table: DerivativeGenerator(v, mode) is the one generator of that symbol
    and mode while any is alive, so generators and words of them compare and
    hash by identity, and the generators of two symbols that share a name
    stay apart."""

    __slots__ = ("variable", "mode", "__weakref__")

    def __new__(cls, variable: Symbol, mode: str):  # mode: "plain" | "whole"
        key = (cls, variable, mode)
        self = _ATOMS.get(key)
        if self is None:
            if mode not in (PLAIN, WHOLE):
                raise ValueError(f"unknown generator mode {mode!r}")
            self = _ATOMS[key] = object.__new__(cls)
            self._init(variable, mode)
        return self

    def label(self) -> str:
        return ("W" if self.mode == WHOLE else "D") + f"[{self.variable.name}]"


class DifferentialOperator(_Frozen):
    """Immutable operator tied to one dependency context."""

    __slots__ = ("context", "terms")

    def __init__(self, context: DependencyContext,
                 terms: Sequence[Tuple[Expr, Tuple[DerivativeGenerator, ...]]]):
        # Each whole generator is checked once, the first in term order first.
        for g in dict.fromkeys([g for _c, gens in terms for g in gens]):
            if g.mode == WHOLE and not context.is_independent(g.variable):
                raise ContextError(f"whole-derivative generator variable {g.variable.name} "
                                   "is not independent in this context")
        self._init(context, _merge_terms(terms))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: DependencyContext) -> "DifferentialOperator":
        return cls(ctx, [])

    @classmethod
    def identity(cls, ctx: DependencyContext) -> "DifferentialOperator":
        return cls(ctx, [(Expr.one(), ())])

    @classmethod
    def multiplication(cls, ctx: DependencyContext, coeff) -> "DifferentialOperator":
        return cls(ctx, [(Expr._coerce(coeff), ())])

    @classmethod
    def generator(
        cls, ctx: DependencyContext, variable: Symbol, mode: str
    ) -> "DifferentialOperator":
        return cls(ctx, [(Expr.one(), (DerivativeGenerator(variable, mode),))])

    @classmethod
    def whole(cls, ctx, variable) -> "DifferentialOperator":
        return cls.generator(ctx, variable, WHOLE)

    @classmethod
    def plain(cls, ctx, variable) -> "DifferentialOperator":
        return cls.generator(ctx, variable, PLAIN)

    def is_zero(self) -> bool:
        return not self.terms

    # -- linear structure ------------------------------------------------

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        self._check(other)
        return _merged(self.context, _merge_sorted(self.terms, other.terms, False))

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        self._check(other)
        return _merged(self.context, _merge_sorted(self.terms, other.terms, True))

    def __neg__(self) -> "DifferentialOperator":
        # Negation keeps every word and makes no coefficient zero, so the
        # terms stay merged and sorted: no check and no merge.
        return _merged(self.context, tuple((-c, g) for c, g in self.terms))

    def scale(self, coeff) -> "DifferentialOperator":
        coeff = Expr._coerce(coeff)
        return DifferentialOperator(
            self.context, [(coeff * c, g) for c, g in self.terms]
        )

    def _check(self, other: "DifferentialOperator"):
        if other.context is not self.context:
            raise ContextMismatchError(
                "operators belong to different dependency contexts"
            )

    def __repr__(self):
        from .textio import print_operator

        try:
            return f"DifferentialOperator({print_operator(self)})"
        except Exception:
            return "DifferentialOperator(...)"


def _word_order(word):
    """Sort key of a word: its length, then (mode, variable name, kind,
    class) letter by letter.  Symbols are interned by name, kind and class,
    so two distinct words never tie, not even over generators that share a
    name."""
    return len(word), [(g.mode, g.variable.name, g.variable.kind, g.variable.klass) for g in word]


def _merge_terms(terms) -> Tuple[Tuple[Expr, Tuple[DerivativeGenerator, ...]], ...]:
    """Sum the coefficients of each word (a tuple of interned generators, so
    it buckets by identity) and sort the distinct words by _word_order;
    zero sums drop out."""
    buckets: Dict[tuple, List[Expr]] = {}
    for coeff, gens in terms:
        coeffs = buckets.get(gens)
        if coeffs is None:
            buckets[gens] = [coeff]
        else:
            coeffs.append(coeff)
    out = []
    for gens in sorted(buckets, key=_word_order):
        coeff = Expr.sum(buckets[gens])
        if not coeff.is_zero():
            out.append((coeff, gens))
    return tuple(out)


def _merged(ctx, terms) -> DifferentialOperator:
    """The operator of terms that are merged and sorted already, over
    generators that were checked in ctx: no check and no merge."""
    op = object.__new__(DifferentialOperator)
    op._init(ctx, terms)
    return op


def _merge_sorted(a_terms, b_terms, negate: bool) -> tuple:
    """A + B, or A - B, of two merged term tuples in one linear merge: a word
    of both sums its two coefficients (zero drops out).  Sort keys are built
    only where the two words differ."""
    if negate:
        b_terms = [(-c, g) for c, g in b_terms]
    out = []
    i = j = 0
    while i < len(a_terms) and j < len(b_terms):
        (ca, ga), (cb, gb) = a_terms[i], b_terms[j]
        if ga == gb:
            c = Expr.sum([ca, cb])
            if not c.is_zero():
                out.append((c, ga))
            i, j = i + 1, j + 1
            continue
        if _word_order(ga) < _word_order(gb):
            out.append((ca, ga))
            i += 1
        else:
            out.append((cb, gb))
            j += 1
    return tuple([*out, *a_terms[i:], *b_terms[j:]])


def apply(A: DifferentialOperator, e) -> Expr:
    """Apply the operator to an expression; generators act right-to-left,
    and the representation markers whole_partial_raw keeps (paper mode, sum
    denominators, fractional powers) are resolved at the end of each term."""
    return Expr.sum(_applied_terms(A, Expr._coerce(e)))


def _applied_terms(A: DifferentialOperator, e: Expr):
    """apply of each term of A to e, in term order."""
    ctx = A.context
    for coeff, gens in A.terms:
        cur = e
        for g in reversed(gens):
            cur = derive_raw(cur, g.variable, g.mode, ctx)
        yield finalize(coeff * cur, ctx)


def compose(A: DifferentialOperator, B: DifferentialOperator) -> DifferentialOperator:
    """Operator such that apply(compose(A, B), e) = apply(A, apply(B, e)):
    A's generators are pushed through B's coefficients by the product rule."""
    A._check(B)
    return _merged(A.context, _merge_terms(_products(A, B, {}, ())))


def _products(A, B, memo, skip):
    """(coefficient, word) of A∘B, A-major: for each term pair (a·X, b·Y),
    a times each term of X pushed through b, then Y; the leading product
    a·b, with no derivative taken, comes last, and is left out where skip
    holds the pair's (A index, B index)."""
    ctx = A.context
    for i, (ca, ga) in enumerate(A.terms):
        for j, (cb, gb) in enumerate(B.terms):
            pushed = _push(ga, cb, ctx, memo)
            if (i, j) in skip:
                pushed.pop()
            for c2, g2 in pushed:
                yield ca * c2, g2 + gb


def _push(gens, coeff: Expr, ctx, memo) -> List[Tuple[Expr, Tuple[DerivativeGenerator, ...]]]:
    """Rewrite gens∘(coeff·) as a sum of (coeff'·)∘gens' via the Leibniz
    rule, innermost generator first."""
    if not gens:
        return [(coeff, ())]
    front, last = gens[:-1], gens[-1]
    out = []
    dcoeff = _derivative(coeff, last, ctx, memo)
    if not dcoeff.is_zero():
        out.extend(_push(front, dcoeff, ctx, memo))
    for c2, g2 in _push(front, coeff, ctx, memo):
        out.append((c2, tuple(g2) + (last,)))
    return out


def _derivative(coeff: Expr, g: DerivativeGenerator, ctx, memo) -> Expr:
    """finalize(derive_raw(coeff, g)), taken once per coefficient object and
    generator in memo.  The entry keeps coeff alive, so its id is not reused
    while the memo lives, and the derivative it returns is the same object
    each time, so deeper steps of the recursion hit by identity too."""
    key = (id(coeff), g)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (coeff, finalize(derive_raw(coeff, g.variable, g.mode, ctx), ctx))
    return hit[1]


def commutator(A: DifferentialOperator, B: DifferentialOperator) -> DifferentialOperator:
    """[A, B] = A∘B - B∘A in one pass, with the canonical form of
    compose(A, B) - compose(B, A).  Each product goes into its word's
    bucket, on the A∘B side in compose(A, B)'s order or on the B∘A side in
    compose(B, A)'s.  A word's coefficient is the sum of its A∘B side minus
    the sum of its B∘A side, each side summed on its own: one sum over both
    sides would group sum-denominator terms differently.

    Neither leading product of a term pair (a·X, b·Y) with X+Y == Y+X is
    built when a and b are polynomials in central symbols: a·b and b·a are
    then one polynomial and cancel exactly.  A word that also holds a term
    over a sum denominator gets both back, since there the canonical form
    of the sum depends on every term.  The distinct words are sorted once."""
    A._check(B)
    central = [[(k, c, g) for k, (c, g) in enumerate(X.terms) if _central_polynomial(c)]
               for X in (A, B)]
    skipped = {(i, j): (ca, cb, ga + gb)
               for i, ca, ga in central[0] for j, cb, gb in central[1] if ga + gb == gb + ga}
    memo, buckets = {}, {}
    for side, (X, Y, skip) in enumerate(((A, B, skipped), (B, A, {(j, i) for i, j in skipped}))):
        for c, w in _products(X, Y, memo, skip):
            sides = buckets.get(w)
            if sides is None:
                sides = buckets[w] = ([], [])
            sides[side].append(c)
    for ca, cb, w in skipped.values():
        sides = buckets.get(w)
        if sides is not None and not all(c.den_is_one() for side in sides for c in side):
            lead = ca * cb
            sides[0].append(lead)
            sides[1].append(lead)
    terms = []
    for w in sorted(buckets, key=_word_order):
        ab, ba = map(Expr.sum, buckets[w])
        c = -ba if ab.is_zero() else ab if ba.is_zero() else Expr.sum([ab, -ba])
        if not c.is_zero():
            terms.append((c, w))
    return _merged(A.context, tuple(terms))


def _central_polynomial(c: Expr) -> bool:
    """c has denominator 1 and its every letter is a central symbol."""
    return c.den_is_one() and all(isinstance(a, Symbol) and not a.noncommuting for a in c.atoms())


def expand_to_plain(A: DifferentialOperator) -> DifferentialOperator:
    """Normal form with only plain generators, coefficients on the left and
    plain words sorted: the coefficient of each partial of a fresh opaque F
    of every generator variable and dependent in apply(A, F).  So it raises
    wherever apply raises, and in paper mode holds the symmetrized apply.
    Each term of A is applied apart and the coefficients are summed per
    word: over different sum denominators, one sum would swell (no GCD)."""
    ctx = A.context
    fn = Symbol("<F>", SymbolKind.OPAQUE)  # no lexer token, so no context name
    args = dict.fromkeys([g.variable for _c, gens in A.terms for g in gens] + list(ctx.dependents))
    F = Expr.opaque(fn, tuple(args))
    return DifferentialOperator(ctx, [
        (c, tuple(DerivativeGenerator(v, PLAIN) for v, n in orders for _ in range(n)))
        for term in _applied_terms(A, F)
        for orders, c in _partial_coefficients(term, fn)
    ])


def op_equals(A: DifferentialOperator, B: DifferentialOperator) -> bool:
    """A equals B iff apply(A - B, F) is zero for a generic opaque F (in
    paper mode the symmetrized apply), that is, iff expand_to_plain(A - B)
    is zero.  Terms A and B share cancel before anything is applied, so
    only a term that survives can raise, wherever apply raises."""
    return expand_to_plain(A - B).is_zero()
