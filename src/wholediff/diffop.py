"""Differential operators as first-class values: application, composition,
commutators, and term-level simplification.

An operator is a finite sum of terms, each a coefficient expression times
an ordered product of derivative generators; generators apply
right-to-left (the rightmost acts first) and the coefficient multiplies
from the left.  Application semantics define correctness; composition is
required to agree with nested application and pushes derivatives through
coefficients via the product rule.

Each call of compose, commutator or expand_to_plain takes the derivative
of a coefficient object along a generator once: the finalized derivative
is kept in a dict made for that call, and expand_to_plain builds the
elementary plain operator of each whole generator once, so its
representation coefficients are the same objects throughout.  Nothing is
kept between calls.  op_equals expands the difference of its operands
once, after the terms they share have cancelled."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .depctx import DependencyContext
from .errors import ContextError, ContextMismatchError
from .symexpr import Expr, Symbol, _Frozen
from .wholederiv import derive_raw, finalize

PLAIN = "plain"
WHOLE = "whole"


class DerivativeGenerator(_Frozen):
    __slots__ = ("variable", "mode", "_key")  # _key: its place in a term's sort key

    def __init__(self, variable: Symbol, mode: str):  # mode: "plain" | "whole"
        if mode not in (PLAIN, WHOLE):
            raise ValueError(f"unknown generator mode {mode!r}")
        self._init(variable, mode, (mode, variable.name))

    def __eq__(self, other):
        if other.__class__ is not DerivativeGenerator:
            return NotImplemented
        return self is other or (self.variable == other.variable and self.mode == other.mode)

    def __hash__(self):
        return hash((self.variable, self.mode))

    def label(self) -> str:
        return ("W" if self.mode == WHOLE else "D") + f"[{self.variable.name}]"


class DifferentialOperator(_Frozen):
    """Immutable operator tied to one dependency context."""

    __slots__ = ("context", "terms")

    def __init__(self, context: DependencyContext,
                 terms: Sequence[Tuple[Expr, Tuple[DerivativeGenerator, ...]]]):
        # Each whole generator object is checked once; the terms keep every
        # generator alive, so the ids stay distinct.
        checked = set()
        for _coeff, gens in terms:
            for g in gens:
                if g.mode == WHOLE and id(g) not in checked:
                    if not context.is_independent(g.variable):
                        raise ContextError(
                            f"whole-derivative generator variable {g.variable.name} "
                            "is not independent in this context"
                        )
                    checked.add(id(g))
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
    buckets: Dict[tuple, Tuple[List[Expr], tuple]] = {}
    for coeff, gens in terms:
        gens = tuple(gens)
        key = tuple([g._key for g in gens])
        entry = buckets.get(key)
        coeffs = entry[0] if entry is not None else []
        coeffs.append(coeff)
        buckets[key] = (coeffs, gens)
    out = []
    for key in sorted(buckets, key=lambda k: (len(k), k)):
        coeffs, gens = buckets[key]
        coeff = Expr.sum(coeffs)
        if not coeff.is_zero():
            out.append((coeff, gens))
    return tuple(out)


def apply(A: DifferentialOperator, e) -> Expr:
    """Apply the operator to an expression; generators act right-to-left,
    and the representation markers whole_partial_raw keeps (paper mode, sum
    denominators, fractional powers) are resolved at the end of each term."""
    ctx = A.context
    terms = []
    for coeff, gens in A.terms:
        cur = Expr._coerce(e)
        for g in reversed(gens):
            cur = derive_raw(cur, g.variable, g.mode, ctx)
        terms.append(finalize(coeff * cur, ctx))
    return Expr.sum(terms)


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
    """Normal form with only plain generators: every whole generator is
    expanded into its plain derivative plus representation chain terms,
    coefficients are pushed to the left, and each term's plain-generator
    product is sorted (plain partials commute)."""
    ctx = A.context
    memo, elementary = {}, {}
    terms = []
    for c, gens in A.terms:
        acc = DifferentialOperator.multiplication(ctx, c)
        for g in gens:
            if g not in elementary:
                elementary[g] = _elementary_plain(g, ctx)
            acc = _compose(acc, elementary[g], memo)
        terms.extend(acc.terms)
    # Merge per written generator order first, then per sorted order: the
    # order of additions fixes the form of sum-denominator coefficients.
    merged = DifferentialOperator(ctx, terms).terms
    return DifferentialOperator(
        ctx, [(c, tuple(sorted(g, key=lambda d: d.variable.name))) for c, g in merged]
    )


def _elementary_plain(g: DerivativeGenerator, ctx) -> DifferentialOperator:
    if g.mode == PLAIN:
        return DifferentialOperator.plain(ctx, g.variable)
    terms = [(Expr.one(), (DerivativeGenerator(g.variable, PLAIN),))]
    for u in ctx.dependents:
        rep = ctx.representation(u, g.variable)
        if rep is not None:
            terms.append((rep, (DerivativeGenerator(u, PLAIN),)))
    return DifferentialOperator(ctx, terms)


def op_equals(A: DifferentialOperator, B: DifferentialOperator) -> bool:
    """A equals B iff the plain-generator normal form of A - B is zero.

    expand_to_plain only multiplies a term's coefficient from the left and
    never differentiates it, so expanding A - B gives the same terms as
    expanding A and B and subtracting.  Terms that A and B share cancel in
    A - B before anything is expanded, so only a term that survives the
    subtraction can raise (for example on a noncommuting factor at a
    negative power)."""
    return expand_to_plain(A - B).is_zero()
