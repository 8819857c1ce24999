"""Differentiation engine: plain partials, whole partials, and the
mixed whole-derivative difference probe.

The whole partial with respect to an independent variable v adds, for
every dependent variable u, the chain term (plain partial in u) times the
context's representation of du/dv, with the representation factor on the
right.  In paper mode, which symmetrizes products of representation
coefficients, the factor is an internal marker atom until finalize expands
it, before normal ordering.  The other modes keep written order and
multiply the representation in at once, unless it has a sum denominator or
a fractional power: with no multivariate GCD the canonical form would then
depend on the order of expansion, so it keeps its marker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContextError, MissingRepresentationError
from .symexpr import (
    Expr,
    PowAtom,
    RepAtom,
    Symbol,
    expand_rep_atoms,
    normal_order,
    paper_normal_order,
)

if TYPE_CHECKING:
    from .depctx import DependencyContext


def plain_partial(e, v: Symbol) -> Expr:
    """Partial derivative treating all other symbols as constants."""
    return Expr._coerce(e).diff_plain(v)


def whole_partial_raw(e, v: Symbol, ctx: "DependencyContext") -> Expr:
    """Whole partial before finalize: a representation factor stays a marker
    atom in paper mode, or if it has a sum denominator or a fractional
    power; otherwise it is multiplied in."""
    e = Expr._coerce(e)
    if not ctx.is_independent(v):
        raise ContextError(f"{v.name} is not an independent variable of the context")
    terms = [e.diff_plain(v)]
    for u in ctx.dependents:
        du = e.diff_plain(u)
        if du.is_zero():
            continue
        rep = ctx.representation(u, v)
        if rep is None:
            raise MissingRepresentationError(u, v)
        if (ctx.ordering_mode == "paper" or not rep.den_is_one()
                or any(isinstance(a, PowAtom) for a in rep.atoms())):
            rep = Expr.atom(RepAtom(u, v, rep))
        terms.append(du * rep)
    return Expr.sum(terms)


def finalize(e, ctx: "DependencyContext") -> Expr:
    """Expand representation markers per the context's ordering mode and
    normal-order the result when commutators are declared.  In paper mode
    with commutators the two are one pass, paper_normal_order, which runs
    them apart where the order of additions can matter."""
    e = Expr._coerce(e)
    if ctx.ordering_mode == "paper" and ctx.commutators:
        return paper_normal_order(e, ctx.commutators)
    e = expand_rep_atoms(e, ctx.ordering_mode)
    if ctx.commutators:
        e = normal_order(e, ctx.commutators)
    return e


def whole_partial(e, v: Symbol, ctx: "DependencyContext") -> Expr:
    """d-hat/d-hat v: explicit dependence plus chain terms through the
    context's dependent variables."""
    return finalize(whole_partial_raw(e, v, ctx), ctx)


def whole_partial_wrt_dependent(e, u: Symbol, ctx: "DependencyContext") -> Expr:
    """The whole derivative along a dependent variable acts as the plain
    partial: independents carry no back-reaction.  Named so the asymmetric
    convention is explicit and testable."""
    if not ctx.is_dependent(u):
        raise ContextError(f"{u.name} is not a dependent variable of the context")
    return finalize(plain_partial(e, u), ctx)


def derive_raw(e, v: Symbol, mode: str, ctx: "DependencyContext") -> Expr:
    """One derivative step ('plain' or 'whole') with whole_partial_raw's
    markers.  DerivativeGenerator admits no other mode, and
    DifferentialOperator no whole step along a dependent."""
    if mode == "plain":
        return Expr._coerce(e).diff_plain(v)
    return whole_partial_raw(e, v, ctx)


def mixed_difference(e, v1: Symbol, v2: Symbol, ctx: "DependencyContext") -> Expr:
    """Whole-mixed-derivative asymmetry: the commutator of the two whole
    derivatives acting on e, W[v1](W[v2] e) - W[v2](W[v1] e)."""
    from .diffop import DifferentialOperator, apply, commutator  # diffop imports this module

    if v1 == v2:
        raise ContextError("mixed_difference requires two distinct variables")
    W = DifferentialOperator.whole
    return apply(commutator(W(ctx, v1), W(ctx, v2)), e)
