"""Differentiation engine: plain partials, whole partials, and the
mixed whole-derivative difference probe.

The whole partial with respect to an independent variable v adds, for
every dependent variable u, the chain term (plain partial in u) times the
context's representation of du/dv, with the representation factor on the
right.  Representation factors are carried as internal marker atoms until
a computation finishes, so the product-ordering convention for second
derivatives ('operator' keeps written order, 'paper' symmetrizes products
of representation coefficients) can be applied before normal ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContextError, MissingRepresentationError
from .symexpr import (
    Expr,
    RepAtom,
    Symbol,
    expand_rep_atoms,
    normal_order,
)

if TYPE_CHECKING:
    from .depctx import DependencyContext


def plain_partial(e, v: Symbol) -> Expr:
    """Partial derivative treating all other symbols as constants."""
    return Expr._coerce(e).diff_plain(v)


def whole_partial_raw(e, v: Symbol, ctx: "DependencyContext") -> Expr:
    """Whole partial with representation factors left as marker atoms."""
    e = Expr._coerce(e)
    if not ctx.is_independent(v):
        raise ContextError(f"{v.name} is not an independent variable of the context")
    out = e.diff_plain(v)
    for u in ctx.dependents:
        du = e.diff_plain(u)
        if du.is_zero():
            continue
        rep = ctx.representation(u, v)
        if rep is None:
            raise MissingRepresentationError(u, v)
        out = out + du * Expr.atom(RepAtom(u, v, rep))
    return out


def finalize(e, ctx: "DependencyContext") -> Expr:
    """Expand representation markers per the context's ordering mode and
    normal-order the result when commutators are declared."""
    e = expand_rep_atoms(Expr._coerce(e), ctx.ordering_mode)
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
    """One derivative step keeping representation markers ('plain' or 'whole')."""
    if mode == "plain":
        return Expr._coerce(e).diff_plain(v)
    if mode == "whole":
        if ctx.is_dependent(v):
            return Expr._coerce(e).diff_plain(v)
        return whole_partial_raw(e, v, ctx)
    raise ValueError(f"unknown derivative mode {mode!r}")


def mixed_difference(e, v1: Symbol, v2: Symbol, ctx: "DependencyContext") -> Expr:
    """Whole-mixed-derivative asymmetry: the commutator of the two whole
    derivatives acting on e, W[v1](W[v2] e) - W[v2](W[v1] e)."""
    if v1 == v2:
        raise ContextError("mixed_difference requires two distinct variables")
    a = whole_partial_raw(whole_partial_raw(e, v2, ctx), v1, ctx)
    b = whole_partial_raw(whole_partial_raw(e, v1, ctx), v2, ctx)
    return finalize(a, ctx) - finalize(b, ctx)
