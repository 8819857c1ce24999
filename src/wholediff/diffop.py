"""Differential operators as first-class values: application, composition,
commutators, and term-level simplification.

An operator is a finite sum of terms, each a coefficient expression times
an ordered product of derivative generators; generators apply
right-to-left (the rightmost acts first) and the coefficient multiplies
from the left.  Generators are interned, so a word is a tuple compared by
identity: terms merge per word and only the distinct words are sorted.
apply is the one definition of a generator (wholederiv's derivative steps,
resolved by finalize); composition agrees with nested application, pushing
derivatives through coefficients by the product rule, and takes each
derivative of a coefficient object once per call.
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
        return DifferentialOperator(self.context, list(self.terms) + list(other.terms))

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        self._check(other)
        return DifferentialOperator(
            self.context, list(self.terms) + [(-c, g) for c, g in other.terms]
        )

    def __neg__(self) -> "DifferentialOperator":
        # Negation keeps every word and makes no coefficient zero, so the
        # terms stay merged and sorted: no check and no merge.
        op = object.__new__(DifferentialOperator)
        op._init(self.context, tuple((-c, g) for c, g in self.terms))
        return op

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


def _merge_terms(terms) -> Tuple[Tuple[Expr, Tuple[DerivativeGenerator, ...]], ...]:
    """Sum the coefficients of each word (a tuple of interned generators, so
    it buckets by identity) and sort the distinct words by length, then by
    (mode, variable name) letter by letter; zero sums drop out."""
    buckets: Dict[tuple, List[Expr]] = {}
    for coeff, gens in terms:
        coeffs = buckets.get(gens)
        if coeffs is None:
            buckets[gens] = [coeff]
        else:
            coeffs.append(coeff)
    out = []
    for gens in sorted(buckets, key=lambda w: (len(w), [(g.mode, g.variable.name) for g in w])):
        coeff = Expr.sum(buckets[gens])
        if not coeff.is_zero():
            out.append((coeff, gens))
    return tuple(out)


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
    return _compose(A, B, {})


def _compose(A, B, memo) -> DifferentialOperator:
    A._check(B)
    ctx = A.context
    terms = []
    for ca, ga in A.terms:
        for cb, gb in B.terms:
            for c2, g2 in _push(ga, cb, ctx, memo):
                terms.append((ca * c2, tuple(g2) + tuple(gb)))
    return DifferentialOperator(ctx, terms)


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
    memo = {}
    return _compose(A, B, memo) - _compose(B, A, memo)


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
