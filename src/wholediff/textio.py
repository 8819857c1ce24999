"""Text formats: one grammar for expressions and operator literals,
dependency-context files, and printers (text, json, latex).

Grammar (one token stream, one parser; `expr` serves expressions and the
sub-expressions of context files, `operator` serves operator literals,
`statement` each line of a context file):

  expr     := term (('+' | '-') term)*
  term     := unary (('*' | '/') unary)*
  unary    := '-' unary | power
  power    := atom ('^' unary)?               right-assoc; rational exponent
  atom     := NUM | '(' expr ')' | 'i' | 'sqrt' '(' expr ')'
            | 'D' '[' ID (',' ID)+ ']'        plain partial of an opaque
            | ID '(' ID (',' ID)* ')'         opaque application
            | ID
  operator := '-'? opterm (('+' | '-') opterm)*
  opterm   := opfactor ('*'? opfactor)*       leftmost factor acts last
  opfactor := ('W' | 'D') '[' ID ']' | NUM | '(' expr ')'
  statement := ('independent' | 'param') ID+ | 'dependent' ID
            | 'representation' DID '/' DID '=' expr
            | 'constraint' expr '=' '0' 'solves' ID
            | 'opaque' ID '(' ID (',' ID)* ')'
            | 'commutator' '[' ID ',' ID ']' '=' expr
            | 'ordering' ('commuting' | 'operator' | 'paper')

ID is [A-Za-z_][A-Za-z0-9_]*; NUM is an exact decimal rational; `i` is the
imaginary unit.  `D[f,v,...]` repeats a variable for higher order.  In an
operator, `W[v]` is the whole and `D[v]` the plain derivative, and a
number or parenthesized expression multiplies.  DID is one ID made of
`d` and a name (`dE` names `E`).  `#` starts a comment that runs to the
end of the line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .depctx import ORDERING_MODES, DependencyContext, implicit_partial
from .errors import ContextError, DegenerateConstraintError, ParseError, UnsupportedExpressionError
from .scalars import QC
from .symexpr import (
    CommutatorTable,
    Expr,
    PartialAtom,
    PowAtom,
    RepAtom,
    Symbol,
    SymbolKind,
    _Frozen,
)

if TYPE_CHECKING:
    from .diffop import DifferentialOperator


class SourceSpan(_Frozen):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if start > end:
            raise ValueError("span start exceeds end")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],=]))"
)


class Token(_Frozen):
    __slots__ = ("kind", "text", "span")  # kind: "num" | "id" | "op" | "end"

    def __init__(self, kind: str, text: str, span: SourceSpan):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "span", span)


def _lex(text: str, pos: int = 0, end: Optional[int] = None) -> List[Token]:
    """Tokens of text[pos:end]; spans index into the whole of `text`."""
    end = len(text) if end is None else end
    out = []
    while pos < end:
        m = _TOKEN_RE.match(text, pos, end)
        if m is None:
            rest = text[pos:end].lstrip()
            if not rest:
                break
            at = end - len(rest)
            raise ParseError(
                f"unexpected character {rest[0]!r}", SourceSpan(at, at + 1)
            )
        kind = m.lastgroup
        out.append(Token(kind, m.group(kind), SourceSpan(m.start(kind), m.end(kind))))
        pos = m.end()
    out.append(Token("end", "", SourceSpan(end, end)))
    return out


# ---------------------------------------------------------------------------
# Parser: expressions, operator literals and context sub-expressions
# ---------------------------------------------------------------------------


class _ExprParser:
    """Recursive descent over one token stream.  `parse(self.sum_)` reads an
    expression, `parse(self.operator)` an operator literal over `ctx`, built
    with the `diffop` module.  Unknown identifiers are declared with kind
    `declare`, or rejected when it is None."""

    def __init__(
        self,
        tokens: List[Token],
        symbols: Dict[str, Symbol],
        opaques: Dict[str, Tuple[Symbol, ...]],
        declare: Optional[SymbolKind] = None,
        ctx: Optional[DependencyContext] = None,
        diffop=None,
    ):
        self.toks = tokens
        self.pos = 0
        self.symbols = symbols
        self.opaques = opaques
        self.declare = declare
        self.ctx = ctx
        self.diffop = diffop

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, text: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}", t.span)
        return self.next()

    def at_op(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in texts

    def parse(self, production):
        out = production()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.span)
        return out

    # -- expressions ---------------------------------------------------------

    def sum_(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.at_op("*", "/"):
            op = self.next().text
            rhs = self.unary()
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.at_op("^"):
            return base
        caret = self.next()
        exp = _as_rational(self.unary(), caret.span)
        return base ** (int(exp) if exp.denominator == 1 else exp)

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Expr.const(QC(Fraction(t.text)))
        if self.at_op("("):
            self.next()
            e = self.sum_()
            self.expect_op(")")
            return e
        if t.kind == "id":
            return self.identifier()
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}", t.span)

    def identifier(self) -> Expr:
        t = self.next()
        name = t.text
        if name == "i":
            return Expr.imaginary_unit()
        if name == "sqrt":
            self.expect_op("(")
            inner = self.sum_()
            self.expect_op(")")
            return inner ** Fraction(1, 2)
        if name == "D" and self.at_op("["):
            return self.partial_literal(t)
        if self.at_op("("):
            return self.application(t)
        return Expr.symbol(self.resolve(name, t.span))

    def resolve(self, name: str, span: SourceSpan) -> Symbol:
        sym = self.symbols.get(name)
        if sym is None:
            if self.declare is None:
                raise ParseError(f"unknown identifier '{name}'", span)
            sym = self.symbols[name] = Symbol(name, self.declare)
        return sym

    def symbol_arg(self) -> Symbol:
        t = self.peek()
        if t.kind != "id":
            raise ParseError("expected a symbol name", t.span)
        self.next()
        return self.resolve(t.text, t.span)

    def application(self, fn_tok: Token) -> Expr:
        fn = self.resolve(fn_tok.text, fn_tok.span)
        if fn.kind != SymbolKind.OPAQUE:
            raise ParseError(
                f"'{fn.name}' is not an opaque function", fn_tok.span
            )
        self.expect_op("(")
        args = [self.symbol_arg()]
        while self.at_op(","):
            self.next()
            args.append(self.symbol_arg())
        close = self.expect_op(")")
        declared = self.opaques.get(fn.name)
        if declared is not None and len(args) != len(declared):
            raise ParseError(
                f"'{fn.name}' takes {len(declared)} arguments, got {len(args)}",
                SourceSpan(fn_tok.span.start, close.span.end),
            )
        return Expr.opaque(fn, tuple(args))

    def partial_literal(self, d_tok: Token) -> Expr:
        self.expect_op("[")
        fn_tok = self.peek()
        fn = self.symbol_arg()
        if fn.kind != SymbolKind.OPAQUE:
            raise ParseError(
                f"D[...] needs an opaque function, got '{fn.name}'", fn_tok.span
            )
        args = self.opaques.get(fn.name)
        if args is None:
            raise ParseError(
                f"argument list of opaque '{fn.name}' is not declared", fn_tok.span
            )
        orders = []
        while self.at_op(","):
            self.next()
            vtok = self.peek()
            v = self.symbol_arg()
            if v not in args:
                raise ParseError(
                    f"'{v.name}' is not an argument of '{fn.name}'", vtok.span
                )
            orders.append((v, 1))
        self.expect_op("]")
        if not orders:
            raise ParseError("D[...] needs at least one variable", d_tok.span)
        return Expr.atom(PartialAtom(fn, args, tuple(orders)))

    # -- operator literals ---------------------------------------------------

    def operator(self) -> DifferentialOperator:
        negate = self.at_op("-")
        if negate:
            self.next()
        total = None
        while True:
            tm = -self.op_term() if negate else self.op_term()
            total = tm if total is None else total + tm
            if not self.at_op("+", "-"):
                return total
            negate = self.next().text == "-"

    def op_term(self) -> DifferentialOperator:
        acc = self.op_factor()
        while True:
            if self.at_op("*"):
                self.next()
            elif self.peek().kind not in ("id", "num") and not self.at_op("("):
                return acc
            acc = self.diffop.compose(acc, self.op_factor())

    def op_factor(self) -> DifferentialOperator:
        t = self.peek()
        if t.text in ("W", "D") and self.toks[self.pos + 1].text == "[":
            return self.generator()
        if t.kind == "num" or self.at_op("("):
            return self.diffop.DifferentialOperator.multiplication(self.ctx, self.atom())
        raise ParseError(
            f"expected an operator factor, found {t.text or 'end of input'!r}", t.span
        )

    def generator(self) -> DifferentialOperator:
        mode = "whole" if self.next().text == "W" else "plain"
        self.next()  # '['
        vtok = self.peek()
        if vtok.kind != "id":
            raise ParseError("expected a variable name", vtok.span)
        self.next()
        v = self.ctx.find_symbol(vtok.text)
        if v is None:
            raise ParseError(
                f"derivative variable '{vtok.text}' is not in the context", vtok.span
            )
        if mode == "whole" and not self.ctx.is_independent(v):
            raise ParseError(
                f"whole derivative needs an independent variable, '{v.name}' is not",
                vtok.span,
            )
        self.expect_op("]")
        return self.diffop.DifferentialOperator.generator(self.ctx, v, mode)


def _as_rational(e: Expr, span: SourceSpan) -> Fraction:
    c = e.as_constant()
    if c is None or c.im != 0:
        raise ParseError("exponent must be a rational constant", span)
    return c.re


def parse_expr(
    text: str,
    symbols: Sequence[Symbol] = (),
    opaques: Optional[Dict[str, Tuple[Symbol, ...]]] = None,
    lenient: bool = False,
) -> Expr:
    """Parse an expression over the given symbols into canonical form;
    `lenient` declares unknown identifiers as parameters."""
    table = {s.name: s for s in symbols}
    declare = SymbolKind.PARAMETER if lenient else None
    p = _ExprParser(_lex(text), table, opaques or {}, declare)
    return p.parse(p.sum_)


def context_symbol_table(ctx: DependencyContext):
    """(symbols, opaques) parser inputs drawn from a dependency context."""
    syms = list(ctx.all_symbols())
    opaques = {f.name: args for f, args in ctx.opaques}
    return syms, opaques


def parse_expr_in_context(text: str, ctx: DependencyContext) -> Expr:
    syms, opaques = context_symbol_table(ctx)
    return parse_expr(text, syms, opaques)


def parse_operator(text: str, ctx: DependencyContext) -> DifferentialOperator:
    """Parse an operator literal; products compose left-to-right with the
    leftmost factor acting last."""
    from . import diffop  # only operator literals need the operator algebra

    syms, opaques = context_symbol_table(ctx)
    p = _ExprParser(_lex(text), {s.name: s for s in syms}, opaques, ctx=ctx, diffop=diffop)
    return p.parse(p.operator)


# ---------------------------------------------------------------------------
# Context file parser
# ---------------------------------------------------------------------------


def _name(p: _ExprParser, prefix: str = "") -> Token:
    """The next token as a name; with prefix 'd', the <name> of `d<name>`."""
    t = p.next()
    name = t.text[len(prefix) :]
    if t.kind != "id" or not t.text.startswith(prefix) or not name or name[0].isdigit():
        raise ParseError("expected a name", t.span)
    return Token("id", name, SourceSpan(t.span.start + len(prefix), t.span.end))


def _value_span(toks: List[Token]) -> SourceSpan:
    """The span of a token list that ends with an "end" token: its first
    token through its last before that end."""
    return SourceSpan(toks[0].span.start, toks[-2].span.end)


def parse_context(text: str, ordering: Optional[str] = None,
                  warn: Optional[Callable[[str], None]] = None) -> DependencyContext:
    """Parse a context file and validate it; error-level diagnostics raise,
    and warn receives the message of each warning.  An ordering given here
    stands in for the file's own ordering statement."""
    declared = {"independent": [], "param": [], "dependent": []}
    reps, cons, opqs, comms = [], [], [], []
    stated = None

    # Each line is lexed once.  Sub-expressions stay token slices until the
    # symbol table exists: commutator brackets and the ordering decide which
    # independents are noncommuting before any symbol is made.
    offset = 0
    for raw_line in text.split("\n"):
        toks = _lex(text, offset, offset + len(raw_line.split("#", 1)[0].rstrip()))
        offset += len(raw_line) + 1
        if len(toks) == 1:
            continue
        whole = _value_span(toks)
        p = _ExprParser(toks, {}, {})
        kw = p.next().text
        try:
            if kw in declared:
                names = [_name(p)]
                while p.peek().kind != "end":
                    names.append(_name(p))
                declared[kw].extend(names)
            elif kw == "representation" or kw == "commutator":
                if kw == "representation":
                    a = _name(p, "d")
                    p.expect_op("/")
                    b = _name(p, "d")
                else:
                    p.expect_op("[")
                    a = _name(p)
                    p.expect_op(",")
                    b = _name(p)
                    p.expect_op("]")
                p.expect_op("=")
                if p.peek().kind == "end":
                    raise ParseError("expected a value", p.peek().span)
                (reps if kw == "representation" else comms).append((a, b, toks[p.pos :]))
                p.pos = len(toks) - 1
            elif kw == "constraint":  # `= 0 solves <dep>` ends the line
                lhs = toks[1:-5]
                p.pos = 1 + len(lhs)
                eq = p.expect_op("=")
                if not lhs or p.next().text != "0" or p.next().text != "solves":
                    raise ParseError("expected '= 0 solves'", eq.span)
                end = Token("end", "", SourceSpan(eq.span.start, eq.span.start))
                cons.append((lhs + [end], _name(p)))
            elif kw == "opaque":
                fn = _name(p)
                p.expect_op("(")
                args = [_name(p)]
                while p.at_op(","):
                    p.next()
                    args.append(_name(p))
                p.expect_op(")")
                opqs.append((fn, args))
            elif kw == "ordering":
                mode = _name(p).text
            else:
                raise ParseError("unknown keyword", whole)
            p.parse(lambda: None)  # nothing may follow the statement
        except ParseError:
            word = text[whole.start : whole.end].split()[0]
            raise ParseError(f"unrecognized statement: {word!r}", whole) from None
        if kw == "dependent" and len(names) != 1:
            raise ParseError("one dependent per statement", whole)
        if kw == "ordering":
            if mode not in ORDERING_MODES:
                raise ParseError(f"unknown ordering mode '{mode}'", whole)
            # a second statement would silently replace the first
            if stated is not None:
                raise ParseError(f"ordering is stated twice, first as '{stated}'", whole)
            stated = mode

    # The one rule for which symbols commute: an independent is noncommuting
    # iff a commutator statement names it and the ordering is not commuting.
    if ordering is None:
        ordering = stated or ("operator" if comms else "commuting")
    nc_names = {t.text for a, b, _ in comms for t in (a, b)} if ordering != "commuting" else ()
    table: Dict[str, Symbol] = {}
    syms = {}
    kinds = (SymbolKind.INDEPENDENT, SymbolKind.PARAMETER, SymbolKind.DEPENDENT)
    for kw, kind in zip(declared, kinds):
        nc = nc_names if kind == SymbolKind.INDEPENDENT else ()
        syms[kw] = tuple(table.setdefault(t.text, Symbol(t.text, kind, klass=int(t.text in nc)))
                         for t in declared[kw])
    sym_opaques = []
    for fn, args in opqs:
        fsym = table.setdefault(fn.text, Symbol(fn.text, SymbolKind.OPAQUE))
        for a in args:
            if a.text not in table:
                raise ParseError(f"opaque argument '{a.text}' is not a declared symbol", a.span)
        sym_opaques.append((fsym, tuple(table[a.text] for a in args)))

    opq_map = {f.name: args for f, args in sym_opaques}
    resolve = _ExprParser([], table, opq_map).resolve

    def parse_sub(toks: List[Token], declare: Optional[SymbolKind] = None) -> Expr:
        """A statement's value; one the engine cannot hold is refused at its span."""
        p = _ExprParser(toks, table, opq_map, declare)
        try:
            return p.parse(p.sum_)
        except UnsupportedExpressionError as exc:
            raise ParseError(str(exc), _value_span(toks)) from None

    ctable = CommutatorTable()
    for a, b, value in comms:
        pair = resolve(a.text, a.span), resolve(b.text, b.span)
        # The rule above marks only independents noncommuting, and [a, a] is
        # 0, so any other pair would leave the declared value unused.
        for t, sym in zip((a, b), pair):
            if sym.kind != SymbolKind.INDEPENDENT:
                raise ParseError("commutator needs two different independent variables, "
                                 f"'{t.text}' is not one", t.span)
        if a.text == b.text:
            raise ParseError("commutator needs two different independent variables, "
                             f"'{b.text}' is named twice", b.span)
        if ctable.lookup(*pair) is not None:
            raise ParseError(f"commutator of {a.text} and {b.text} is declared twice", b.span)
        ctable.declare(*pair, parse_sub(value, SymbolKind.COMMUTATOR))

    constraints = []
    for lhs, dep in cons:
        u = table.get(dep.text)
        if u is None:
            raise ParseError(f"unknown dependent '{dep.text}'", dep.span)
        # A constraint is imposed only through the dependent it solves.
        if u.kind != SymbolKind.DEPENDENT:
            raise ParseError(f"constraint must solve a dependent, '{u.name}' is not one", dep.span)
        # Its representation -g_v/g_u is du/dv only if g holds no other dependent.
        for t in lhs:
            other = table.get(t.text) if t.kind == "id" else None
            if other is not None and other.kind == SymbolKind.DEPENDENT and other is not u:
                raise ParseError(f"constraint solving '{u.name}' mentions another dependent, "
                                 f"'{t.text}'", t.span)
        constraints.append((parse_sub(lhs), u))

    ctx = DependencyContext(
        independents=syms["independent"],
        parameters=syms["param"],
        dependents=syms["dependent"],
        constraints=tuple(constraints),
        opaques=tuple(sym_opaques),
        commutators=ctable,
        ordering_mode=ordering,
    )
    for dep, indep, value in reps:
        u, v = resolve(dep.text, dep.span), resolve(indep.text, indep.span)
        # The derivative engine reads only d<dependent>/d<independent>.
        for t, sym, kind, role in ((dep, u, SymbolKind.DEPENDENT, "a dependent"),
                                   (indep, v, SymbolKind.INDEPENDENT, "an independent")):
            if sym.kind != kind:
                raise ParseError("representation needs d<dependent>/d<independent>, "
                                 f"'{t.text}' is not {role}", t.span)
        if (u, v) in ctx.representations:
            raise ParseError(f"representation d{u.name}/d{v.name} is declared twice", indep.span)
        ctx.declare_representation(u, v, parse_sub(value))

    # A constraint's representation -g_v/g_u is derived where it is used,
    # and by validate where du/dv is declared.  Over noncommuting
    # independents g_u can be a sum the engine cannot divide by, so each one
    # is derived here once and such a constraint is refused at its span.
    if any(s.noncommuting for s in ctx.independents):
        for (lhs, _dep), (g, u) in zip(cons, constraints):
            for v in ctx.independents:
                try:
                    implicit_partial(g, u, v)
                except DegenerateConstraintError:
                    break  # raised by validate or where it is used, as in commuting mode
                except UnsupportedExpressionError as exc:
                    raise ParseError(str(exc), _value_span(lhs)) from None

    diags = ctx.validate()
    errors = [d.message for d in diags if d.level == "error"]
    if errors:
        raise ContextError("; ".join(errors))
    if warn is not None:
        for d in diags:  # no error is left, so each is a warning
            warn(d.message)
    return ctx


# ---------------------------------------------------------------------------
# Printers: one walk over num/den -> monomial -> atom, one renderer per format
# ---------------------------------------------------------------------------


def _render(e: Expr, r, memo):
    """Render e with r.  memo maps each atom rendered so far in this print
    to its piece, also inside a power base or a marker expansion, so each
    atom is rendered once per print; each print starts with an empty memo."""
    num = r.poly([_render_mono(c, word, r, memo) for c, word in e._num])
    if e.den_is_one():
        return num
    return r.quotient(num, r.poly([_render_mono(c, word, r, memo) for c, word in e._den]))


def _render_mono(c: QC, word, r, memo):
    for a, _n in word:
        if a not in memo:
            memo[a] = _render_atom(a, r, memo)
    return r.mono(c, [(memo[a], n) for a, n in word])


def _render_atom(a, r, memo):
    if isinstance(a, Symbol):
        return r.name(a.name)
    if isinstance(a, PartialAtom):
        return r.partial(a) if a.orders else r.opaque(a.fn.name, [s.name for s in a.args])
    if isinstance(a, PowAtom):
        return r.pow(_render(a.base, r, memo), a.exp)
    if isinstance(a, RepAtom):
        return r.group(_render(a.expansion, r, memo))
    raise TypeError(f"unprintable atom {a!r}")


class _InfixRenderer:
    """Shared by the text and LaTeX renderers: terms joined by ` + `/` - `."""

    def poly(self, terms) -> str:
        if not terms:
            return "0"
        out = terms[0]
        for p in terms[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class _TextRenderer(_InfixRenderer):
    def name(self, name: str) -> str:
        return name

    def opaque(self, fn: str, args) -> str:
        return f"{fn}({','.join(args)})"

    def partial(self, a: PartialAtom) -> str:
        vars_ = [s.name for s, n in a.orders for _ in range(n)]
        return f"D[{a.fn.name},{','.join(vars_)}]"

    def pow(self, base: str, exp: Fraction) -> str:
        if exp == Fraction(1, 2):
            return f"sqrt({base})"
        return f"({base})^({exp})"

    def group(self, inner: str) -> str:
        return f"({inner})"

    def mono(self, c: QC, factors) -> str:
        nums = [t if n == 1 else f"{t}^{n}" for t, n in factors if n > 0]
        dens = [t if n == -1 else f"{t}^{-n}" for t, n in factors if n < 0]
        cs = _coeff_text(c)
        if not nums:
            head = cs
        elif cs == "1":
            head = "*".join(nums)
        elif cs == "-1":
            head = "-" + "*".join(nums)
        else:
            head = "*".join([cs] + nums)
        return head + "".join(f"/{d}" for d in dens)

    def quotient(self, num: str, den: str) -> str:
        return f"({num})/({den})"


class _LatexRenderer(_InfixRenderer):
    def name(self, name: str) -> str:
        m = _INDEXED_NAME.match(name)
        if m:
            return f"{m.group(1)}_{{{m.group(2)}}}"
        return name

    def opaque(self, fn: str, args) -> str:
        return f"{self.name(fn)}({', '.join(self.name(s) for s in args)})"

    def partial(self, a: PartialAtom) -> str:
        total = a.total_order
        top = r"\partial" + (f"^{{{total}}}" if total > 1 else "") + " " + self.name(a.fn.name)
        bottom = r"\,".join(
            r"\partial " + self.name(s.name) + (f"^{{{n}}}" if n > 1 else "")
            for s, n in a.orders
        )
        return rf"\frac{{{top}}}{{{bottom}}}"

    def pow(self, base: str, exp: Fraction) -> str:
        if exp == Fraction(1, 2):
            return rf"\sqrt{{{base}}}"
        return rf"\left({base}\right)^{{{exp}}}"

    def group(self, inner: str) -> str:
        return rf"\left({inner}\right)"

    def mono(self, c: QC, factors) -> str:
        nums = [t if n == 1 else f"{t}^{{{n}}}" for t, n in factors if n > 0]
        dens = [t if n == -1 else f"{t}^{{{-n}}}" for t, n in factors if n < 0]
        cs = _coeff_latex(c)
        thin = r"\,"
        body = thin.join(nums) if nums else "1"
        if dens:
            body = rf"\frac{{{body}}}{{{thin.join(dens)}}}"
        elif not nums:
            return cs
        if cs == "1":
            return body
        if cs == "-1":
            return "-" + body
        return rf"{cs}\,{body}"

    def quotient(self, num: str, den: str) -> str:
        return rf"\frac{{{num}}}{{{den}}}"


class _JsonRenderer:
    """Builds the JSON tree; monomial factors keep their canonical order."""

    def name(self, name: str):
        return {"sym": name}

    def opaque(self, fn: str, args):
        return {"opaque": {"fn": fn, "args": args}}

    def partial(self, a: PartialAtom):
        return {
            "partial": {
                "fn": a.fn.name,
                "args": [s.name for s in a.args],
                "orders": [[s.name, n] for s, n in a.orders],
            }
        }

    def pow(self, base, exp):
        return {"pow": {"base": base, "exp": str(exp)}}

    def group(self, inner):
        return inner

    @staticmethod
    def const(c: QC):
        return {"const": {"re": str(c.re), "im": str(c.im)}}

    def mono(self, c: QC, factors):
        nodes = [] if c.is_one() else [self.const(c)]
        nodes += [t if n == 1 else self.pow(t, n) for t, n in factors]
        if not nodes:
            return _JSON_ONE
        return nodes[0] if len(nodes) == 1 else {"mul": nodes}

    def poly(self, terms):
        if not terms:
            return _JSON_ZERO
        return terms[0] if len(terms) == 1 else {"add": terms}

    def quotient(self, num, den):
        return {"div": {"num": num, "den": den}}


_TEXT = _TextRenderer()
_RENDERERS = {"text": _TEXT, "json": _JsonRenderer(), "latex": _LatexRenderer()}
_JSON_ONE, _JSON_ZERO = _JsonRenderer.const(QC(1)), _JsonRenderer.const(QC(0))
_INDEXED_NAME = re.compile(r"^([A-Za-z]+)(\d+)$")


def _coeff_text(c: QC) -> str:
    if c.is_real():
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    return f"({c.re} + {c.im}*i)"


def _coeff_latex(c: QC) -> str:
    def frac(f: Fraction) -> str:
        if f.denominator == 1:
            return str(f.numerator)
        sign = "-" if f < 0 else ""
        return rf"{sign}\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"

    if c.is_real():
        return frac(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return frac(c.im) + "i"
    return rf"\left({frac(c.re)} + {frac(c.im)}i\right)"


def print_expr(e: Expr, format: str = "text") -> str:
    e = Expr._coerce(e)
    r = _RENDERERS.get(format)
    if r is None:
        raise ValueError(f"unknown format {format!r}")
    out = _render(e, r, {})
    if format == "json":
        import json

        return json.dumps(out, separators=(", ", ": "))
    return out


def print_operator(op) -> str:
    if op.is_zero():
        return "0"
    parts = []
    memo = {}
    for coeff, gens in op.terms:
        gen_text = "*".join(g.label() for g in gens)
        c = coeff.as_constant()
        if c is not None and c.is_one() and gen_text:
            parts.append(gen_text)
        elif gen_text:
            parts.append(f"({_render(coeff, _TEXT, memo)})*{gen_text}")
        else:
            parts.append(f"({_render(coeff, _TEXT, memo)})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Context serializer
# ---------------------------------------------------------------------------


def serialize_context(ctx: DependencyContext) -> str:
    lines = []
    memo = {}
    if ctx.independents:
        lines.append("independent " + " ".join(s.name for s in ctx.independents))
    if ctx.parameters:
        lines.append("param " + " ".join(s.name for s in ctx.parameters))
    for s in ctx.dependents:
        lines.append(f"dependent {s.name}")
    for g, dep in ctx.constraints:
        lines.append(f"constraint {_render(g, _TEXT, memo)} = 0 solves {dep.name}")
    reps = sorted(ctx.representations.items(), key=lambda kv: (kv[0][0].name, kv[0][1].name))
    for (u, v), rep in reps:
        lines.append(f"representation d{u.name}/d{v.name} = {_render(rep, _TEXT, memo)}")
    for f, args in ctx.opaques:
        lines.append(f"opaque {f.name}({','.join(a.name for a in args)})")
    for a, b, v in sorted(ctx.commutators.pairs(), key=lambda t: (t[0].name, t[1].name)):
        lines.append(f"commutator [{a.name},{b.name}] = {_render(v, _TEXT, memo)}")
    lines.append(f"ordering {ctx.ordering_mode}")
    return "\n".join(lines) + "\n"
