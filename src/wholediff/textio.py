"""Text formats: one grammar for expressions and operator literals,
dependency-context files, and printers (text, json, latex).

Grammar (one token stream, one parser; `expr` serves expressions and the
sub-expressions of context files, `operator` serves operator literals):

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

ID is [A-Za-z_][A-Za-z0-9_]*; NUM is an exact decimal rational; `i` is the
imaginary unit.  `D[f,v,...]` repeats a variable for higher order.  In an
operator, `W[v]` is the whole and `D[v]` the plain derivative, and a
number or parenthesized expression multiplies.

Context files are line-based statements with `#` comments:
  independent <id>+            param <id>+             dependent <id>
  representation d<dep>/d<indep> = <expr>
  constraint <expr> = 0 solves <dep>
  opaque <id>(<id>,...)        commutator [<id>,<id>] = <expr>
  ordering <commuting|operator|paper>
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .depctx import ORDERING_MODES, DependencyContext
from .diffop import DifferentialOperator, compose
from .errors import ContextError, ParseError
from .scalars import QC
from .symexpr import (
    CommutatorTable,
    Expr,
    PartialAtom,
    PowAtom,
    RepAtom,
    Symbol,
    SymbolKind,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start exceeds end")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],=]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "id" | "op" | "end"
    text: str
    span: SourceSpan


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
        for kind in ("num", "id", "op"):
            tok = m.group(kind)
            if tok is not None:
                out.append(Token(kind, tok, SourceSpan(m.start(kind), m.end(kind))))
                break
        pos = m.end()
    out.append(Token("end", "", SourceSpan(end, end)))
    return out


# ---------------------------------------------------------------------------
# Parser: expressions, operator literals and context sub-expressions
# ---------------------------------------------------------------------------


class _ExprParser:
    """Recursive descent over one token stream.  `parse(self.sum_)` reads an
    expression, `parse(self.operator)` an operator literal over `ctx`.
    Unknown identifiers are declared with kind `declare`, or rejected when
    it is None."""

    def __init__(
        self,
        tokens: List[Token],
        symbols: Dict[str, Symbol],
        opaques: Dict[str, Tuple[Symbol, ...]],
        declare: Optional[SymbolKind] = None,
        ctx: Optional[DependencyContext] = None,
    ):
        self.toks = tokens
        self.pos = 0
        self.symbols = symbols
        self.opaques = opaques
        self.declare = declare
        self.ctx = ctx

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
            acc = compose(acc, self.op_factor())

    def op_factor(self) -> DifferentialOperator:
        t = self.peek()
        if t.text in ("W", "D") and self.toks[self.pos + 1].text == "[":
            return self.generator()
        if t.kind == "num" or self.at_op("("):
            return DifferentialOperator.multiplication(self.ctx, self.atom())
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
        return DifferentialOperator.generator(self.ctx, v, mode)


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
    syms, opaques = context_symbol_table(ctx)
    p = _ExprParser(_lex(text), {s.name: s for s in syms}, opaques, ctx=ctx)
    return p.parse(p.operator)


# ---------------------------------------------------------------------------
# Context file parser
# ---------------------------------------------------------------------------

_REP_RE = re.compile(r"^representation\s+d([A-Za-z_]\w*)\s*/\s*d([A-Za-z_]\w*)\s*=\s*(.+)$")
_CON_RE = re.compile(r"^constraint\s+(.+?)=\s*0\s+solves\s+([A-Za-z_]\w*)\s*$")
_OPQ_RE = re.compile(r"^opaque\s+([A-Za-z_]\w*)\s*\(\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\)\s*$")
_COMM_RE = re.compile(r"^commutator\s+\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\s*=\s*(.+)$")
_IDLIST_RE = re.compile(r"^(independent|param|dependent)\s+([A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*)\s*$")
_ORD_RE = re.compile(r"^ordering\s+(\w+)\s*$")


def parse_context(text: str) -> DependencyContext:
    """Parse a context file and validate it; error-level diagnostics raise."""
    independents: List[str] = []
    params: List[str] = []
    dependents: List[str] = []
    reps: List[Tuple[str, str, int, int]] = []
    cons: List[Tuple[str, int, int]] = []
    opqs: List[Tuple[str, List[str], int]] = []
    comms: List[Tuple[str, str, int, int]] = []
    ordering = None

    offset = 0
    for raw_line in text.split("\n"):
        line = raw_line.split("#", 1)[0]
        stripped = line.strip()
        start = offset + line.index(stripped[0]) if stripped else offset
        offset += len(raw_line) + 1
        if not stripped:
            continue
        m = _IDLIST_RE.match(stripped)
        if m:
            bucket = {"independent": independents, "param": params, "dependent": dependents}[m.group(1)]
            names = m.group(2).split()
            if m.group(1) == "dependent" and len(names) != 1:
                raise ParseError(
                    "one dependent per statement", SourceSpan(start, start + len(stripped))
                )
            bucket.extend(names)
            continue
        m = _REP_RE.match(stripped)
        if m:
            reps.append((m.group(1), m.group(2), start + m.start(3), start + m.end(3)))
            continue
        m = _CON_RE.match(stripped)
        if m:
            cons.append((m.group(2), start + m.start(1), start + m.end(1)))
            continue
        m = _OPQ_RE.match(stripped)
        if m:
            opqs.append((m.group(1), [a.strip() for a in m.group(2).split(",")], start))
            continue
        m = _COMM_RE.match(stripped)
        if m:
            comms.append((m.group(1), m.group(2), start + m.start(3), start + m.end(3)))
            continue
        m = _ORD_RE.match(stripped)
        if m:
            if m.group(1) not in ORDERING_MODES:
                raise ParseError(
                    f"unknown ordering mode '{m.group(1)}'",
                    SourceSpan(start, start + len(stripped)),
                )
            ordering = m.group(1)
            continue
        raise ParseError(
            f"unrecognized statement: {stripped.split()[0]!r}",
            SourceSpan(start, start + len(stripped)),
        )

    nc_names = {n for a, b, _, _ in comms for n in (a, b)}

    def make(name, kind):
        klass = 1 if name in nc_names and kind == SymbolKind.INDEPENDENT else 0
        return Symbol(name, kind, klass=klass)

    table: Dict[str, Symbol] = {}
    sym_independents = []
    for n in independents:
        table[n] = make(n, SymbolKind.INDEPENDENT)
        sym_independents.append(table[n])
    sym_params = []
    for n in params:
        table.setdefault(n, make(n, SymbolKind.PARAMETER))
        sym_params.append(table[n])
    sym_dependents = []
    for n in dependents:
        table.setdefault(n, make(n, SymbolKind.DEPENDENT))
        sym_dependents.append(table[n])
    sym_opaques = []
    for fname, argnames, at in opqs:
        fsym = table.setdefault(fname, Symbol(fname, SymbolKind.OPAQUE))
        args = []
        for a in argnames:
            if a not in table:
                raise ParseError(
                    f"opaque argument '{a}' is not a declared symbol",
                    SourceSpan(at, at + len(a)),
                )
            args.append(table[a])
        sym_opaques.append((fsym, tuple(args)))

    opq_map = {f.name: args for f, args in sym_opaques}

    def parse_sub(at: int, end: int, declare: Optional[SymbolKind] = None) -> Expr:
        # Sub-expressions are lexed in place, so error spans index into `text`.
        p = _ExprParser(_lex(text, at, end), table, opq_map, declare)
        return p.parse(p.sum_)

    ctable = CommutatorTable()
    for a, b, at, end in comms:
        for n in (a, b):
            if n not in table:
                raise ParseError(f"unknown identifier '{n}'", SourceSpan(at, at + len(n)))
        ctable.declare(table[a], table[b], parse_sub(at, end, SymbolKind.COMMUTATOR))

    constraints = []
    for dep, at, end in cons:
        if dep not in table:
            raise ParseError(f"unknown dependent '{dep}'", SourceSpan(at, at + len(dep)))
        constraints.append((parse_sub(at, end), table[dep]))

    if ordering is None:
        ordering = "operator" if comms else "commuting"

    ctx = DependencyContext(
        independents=tuple(sym_independents),
        parameters=tuple(sym_params),
        dependents=tuple(sym_dependents),
        constraints=tuple(constraints),
        opaques=tuple(sym_opaques),
        commutators=ctable,
        ordering_mode=ordering,
    )
    for dep, indep, at, end in reps:
        for n in (dep, indep):
            if n not in table:
                raise ParseError(f"unknown identifier '{n}'", SourceSpan(at, at + len(n)))
        ctx.declare_representation(table[dep], table[indep], parse_sub(at, end))

    errors = [d for d in ctx.validate() if d.level == "error"]
    if errors:
        raise ContextError("; ".join(d.message for d in errors))
    return ctx


# ---------------------------------------------------------------------------
# Printers: one walk over num/den -> monomial -> atom, one renderer per format
# ---------------------------------------------------------------------------


def _render(e: Expr, r):
    num = r.poly([_render_mono(c, word, r) for c, word in e._num])
    if e.den_is_one():
        return num
    return r.quotient(num, r.poly([_render_mono(c, word, r) for c, word in e._den]))


def _render_mono(c: QC, word, r):
    return r.mono(c, [(_render_atom(a, r), n) for a, n in word])


def _render_atom(a, r):
    if isinstance(a, Symbol):
        return r.name(a.name)
    if isinstance(a, PartialAtom):
        return r.partial(a) if a.orders else r.opaque(a.fn.name, [s.name for s in a.args])
    if isinstance(a, PowAtom):
        return r.pow(_render(a.base, r), a.exp)
    if isinstance(a, RepAtom):
        return r.group(_render(a.expansion, r))
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
        m = re.match(r"^([A-Za-z]+)(\d+)$", name)
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
        nodes = [] if c == QC(1) else [self.const(c)]
        nodes += [t if n == 1 else self.pow(t, n) for t, n in factors]
        if not nodes:
            return self.const(QC(1))
        return nodes[0] if len(nodes) == 1 else {"mul": nodes}

    def poly(self, terms):
        if not terms:
            return self.const(QC(0))
        return terms[0] if len(terms) == 1 else {"add": terms}

    def quotient(self, num, den):
        return {"div": {"num": num, "den": den}}


_TEXT = _TextRenderer()
_RENDERERS = {"text": _TEXT, "json": _JsonRenderer(), "latex": _LatexRenderer()}


def _coeff_text(c: QC) -> str:
    if c.im == 0:
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

    if c.im == 0:
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
    out = _render(e, r)
    return json.dumps(out, separators=(", ", ": ")) if format == "json" else out


def print_operator(op) -> str:
    if op.is_zero():
        return "0"
    parts = []
    for coeff, gens in op.terms:
        gen_text = "*".join(g.label() for g in gens)
        c = coeff.as_constant()
        if c is not None and c == QC(1) and gen_text:
            parts.append(gen_text)
        elif gen_text:
            parts.append(f"({_render(coeff, _TEXT)})*{gen_text}")
        else:
            parts.append(f"({_render(coeff, _TEXT)})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Context serializer
# ---------------------------------------------------------------------------


def serialize_context(ctx: DependencyContext) -> str:
    lines = []
    if ctx.independents:
        lines.append("independent " + " ".join(s.name for s in ctx.independents))
    if ctx.parameters:
        lines.append("param " + " ".join(s.name for s in ctx.parameters))
    for s in ctx.dependents:
        lines.append(f"dependent {s.name}")
    for g, dep in ctx.constraints:
        lines.append(f"constraint {_render(g, _TEXT)} = 0 solves {dep.name}")
    for (depn, indepn), rep in sorted(ctx.representations.items()):
        lines.append(f"representation d{depn}/d{indepn} = {_render(rep, _TEXT)}")
    for f, args in ctx.opaques:
        lines.append(f"opaque {f.name}({','.join(a.name for a in args)})")
    for a, b, v in sorted(ctx.commutators.pairs(), key=lambda t: (t[0].name, t[1].name)):
        lines.append(f"commutator [{a.name},{b.name}] = {_render(v, _TEXT)}")
    lines.append(f"ordering {ctx.ordering_mode}")
    return "\n".join(lines) + "\n"
