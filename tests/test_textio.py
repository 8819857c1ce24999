from fractions import Fraction

import pytest

from conftest import field_of
from wholediff import MassShellScenario, build_mass_shell, momentum_momentum_commutator
from wholediff import textio
from wholediff.cli import main as cli_main
from wholediff.diffop import apply, commutator, op_equals
from wholediff.errors import ContextError, ParseError
from wholediff.symexpr import Expr, Symbol, SymbolKind, equals_canonical
from wholediff.textio import (
    SourceSpan,
    parse_context,
    parse_expr,
    parse_expr_in_context,
    parse_operator,
    print_expr,
    print_operator,
    serialize_context,
)
from wholediff.wholederiv import whole_partial, whole_partial_raw

p1 = Symbol("p1", SymbolKind.INDEPENDENT)
p2 = Symbol("p2", SymbolKind.INDEPENDENT)
p3 = Symbol("p3", SymbolKind.INDEPENDENT)
m = Symbol("m", SymbolKind.PARAMETER)
E = Symbol("E", SymbolKind.DEPENDENT)
f = Symbol("f", SymbolKind.OPAQUE)
SYMS = [p1, p2, p3, m, E, f]
OPQ = {"f": (p1, p2, p3, E)}

MASS_SHELL_SRC = """\
# mass shell
independent p1 p2 p3
param m
dependent E
constraint E^2 - p1^2 - p2^2 - p3^2 - m^2 = 0 solves E
representation dE/dp1 = p1/E
representation dE/dp2 = p2/E
representation dE/dp3 = p3/E
opaque f(p1,p2,p3,E)
"""


def test_parse_basic_expression():
    e = parse_expr("p1/E + sqrt(m^2 + p1^2)", SYMS)
    want = Expr.symbol(p1) / Expr.symbol(E) + (
        Expr.symbol(m) ** 2 + Expr.symbol(p1) ** 2
    ) ** Fraction(1, 2)
    assert equals_canonical(e, want)


def test_parse_opaque_application():
    e = parse_expr("f(p1,p2,p3,E)", SYMS, OPQ)
    assert equals_canonical(e, Expr.opaque(f, (p1, p2, p3, E)))


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_expr("p1 +* 2", SYMS)
    assert exc.value.span.start == 4
    with pytest.raises(ParseError) as exc:
        parse_expr("p1 + qq", SYMS)
    assert (exc.value.span.start, exc.value.span.end) == (5, 7)
    with pytest.raises(ParseError):
        parse_expr("f(p1,p2)", SYMS, OPQ)  # arity
    with pytest.raises(ParseError):
        parse_expr("p1 + @", SYMS)  # lexical


def test_precedence_and_literals():
    assert equals_canonical(parse_expr("2^3^2", []), Expr.const(512))
    assert equals_canonical(parse_expr("-2^2", []), Expr.const(-4))
    assert equals_canonical(parse_expr("0.5", []), Expr.const(Fraction(1, 2)))
    assert equals_canonical(parse_expr("2^-1", []), Expr.const(Fraction(1, 2)))
    assert equals_canonical(parse_expr("i*i", []), Expr.const(-1))
    assert equals_canonical(
        parse_expr("1 - 2 - 3", []), Expr.const(-4)
    )
    assert equals_canonical(parse_expr("12/3/2", []), Expr.const(2))


def test_lenient_mode_declares_parameters():
    e = parse_expr("alpha*p1", [p1], lenient=True)
    names = {s.name for s in e.symbols()}
    assert names == {"alpha", "p1"}
    with pytest.raises(ParseError):
        parse_expr("alpha*p1", [p1])


def test_round_trip_text():
    cases = [
        "p1/E + sqrt(m^2 + p1^2)",
        "f(p1,p2,p3,E)",
        "D[f,E,E]",
        "D[f,p1,E]",
        "-3/4*p1*p2^2",
        "(p1+m)/(E^2-m^2)",
        "i*p1 - 2*i",
        "(m^2+p1^2)^(3/2)",
        "1/E^3",
        "(1/2 + 1/3*i)*p1",
    ]
    for s in cases:
        e = parse_expr(s, SYMS, OPQ)
        t = print_expr(e, "text")
        assert equals_canonical(e, parse_expr(t, SYMS, OPQ)), (s, t)


def _raw_whole_p1():
    # paper mode: the only mode that keeps the marker of p1/E
    ctx = build_mass_shell(MassShellScenario(ordering_mode="paper"))
    return whole_partial_raw(field_of(ctx), ctx.find_symbol("p1"), ctx)


def _shared_p1():
    # p1 at top level, in a sqrt base and in the marker expansion p1/E: the
    # printers render the atom once per print and reuse it at each place
    ctx = build_mass_shell(MassShellScenario(ordering_mode="paper"))
    P1, M = (Expr.symbol(ctx.find_symbol(n)) for n in ("p1", "m"))
    return P1 * (M ** 2 + P1 ** 2).sqrt() + _raw_whole_p1()


def _commutator_p1_p2(mode, feynman=False):
    ctx = build_mass_shell(MassShellScenario(ordering_mode=mode, feynman=feynman))
    return momentum_momentum_commutator(ctx, 1, 2)


# (id, source text or builder, text, latex, json): every atom kind and
# coefficient shape, with the printings the package produced when the
# corpus was recorded.
PRINT_CORPUS = [
    (
        "quotient",
        "p1/E",
        "p1/E",
        r"\frac{p_{1}}{E}",
        '{"mul": [{"pow": {"base": {"sym": "E"}, "exp": "-1"}}, {"sym": "p1"}]}',
    ),
    (
        "rational",
        "2/3",
        "2/3",
        r"\frac{2}{3}",
        '{"const": {"re": "2/3", "im": "0"}}',
    ),
    (
        "zero",
        "0",
        "0",
        "0",
        '{"const": {"re": "0", "im": "0"}}',
    ),
    (
        "sqrt",
        "sqrt(m^2 + p1^2)",
        "sqrt(m^2 + p1^2)",
        r"\sqrt{m^{2} + p_{1}^{2}}",
        '{"pow": {"base": {"add": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"sym": "p1"}, "exp": "2"}}]}, "exp": "1/2"}}',
    ),
    (
        "pow_3_2",
        "(m^2 + p1^2)^(3/2)",
        "m^2*sqrt(m^2 + p1^2) + p1^2*sqrt(m^2 + p1^2)",
        r"m^{2}\,\sqrt{m^{2} + p_{1}^{2}} + p_{1}^{2}\,\sqrt{m^{2} + p_{1}^{2}}",
        '{"add": [{"mul": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"add": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"sym": "p1"}, "exp": "2"}}]}, "exp": "1/2"}}]}, {"mul": [{"pow": {"base": {"sym": "p1"}, "exp": "2"}}, {"pow": {"base": {"add": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"sym": "p1"}, "exp": "2"}}]}, "exp": "1/2"}}]}]}',
    ),
    (
        "complex_coeff",
        "(1/2 + 1/3*i)*p1",
        "(1/2 + 1/3*i)*p1",
        r"\left(\frac{1}{2} + \frac{1}{3}i\right)\,p_{1}",
        '{"mul": [{"const": {"re": "1/2", "im": "1/3"}}, {"sym": "p1"}]}',
    ),
    (
        "minus_i",
        "-i",
        "-i",
        "-i",
        '{"const": {"re": "0", "im": "-1"}}',
    ),
    (
        "imag_terms",
        "3/2*i*p2 - i*E + 1",
        "1 - i*E + 3/2*i*p2",
        r"1 - i\,E + \frac{3}{2}i\,p_{2}",
        '{"add": [{"const": {"re": "1", "im": "0"}}, {"mul": [{"const": {"re": "0", "im": "-1"}}, {"sym": "E"}]}, {"mul": [{"const": {"re": "0", "im": "3/2"}}, {"sym": "p2"}]}]}',
    ),
    (
        "negative_power",
        "-3/4*p1*p2^2/E^3",
        "-3/4*p1*p2^2/E^3",
        r"-\frac{3}{4}\,\frac{p_{1}\,p_{2}^{2}}{E^{3}}",
        '{"mul": [{"const": {"re": "-3/4", "im": "0"}}, {"pow": {"base": {"sym": "E"}, "exp": "-3"}}, {"sym": "p1"}, {"pow": {"base": {"sym": "p2"}, "exp": "2"}}]}',
    ),
    (
        "sum_denominator",
        "(p1 + m)/(E^2 - m^2)",
        "(m + p1)/(E^2 - m^2)",
        r"\frac{m + p_{1}}{E^{2} - m^{2}}",
        '{"div": {"num": {"add": [{"sym": "m"}, {"sym": "p1"}]}, "den": {"add": [{"pow": {"base": {"sym": "E"}, "exp": "2"}}, {"mul": [{"const": {"re": "-1", "im": "0"}}, {"pow": {"base": {"sym": "m"}, "exp": "2"}}]}]}}}',
    ),
    (
        "opaque",
        "f(p1,p2,p3,E)",
        "f(p1,p2,p3,E)",
        "f(p_{1}, p_{2}, p_{3}, E)",
        '{"opaque": {"fn": "f", "args": ["p1", "p2", "p3", "E"]}}',
    ),
    (
        "partial_first",
        "D[f,E]",
        "D[f,E]",
        r"\frac{\partial f}{\partial E}",
        '{"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1]]}}',
    ),
    (
        "partial_mixed",
        "D[f,p1,E]",
        "D[f,E,p1]",
        r"\frac{\partial^{2} f}{\partial E\,\partial p_{1}}",
        '{"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1], ["p1", 1]]}}',
    ),
    (
        "partial_repeated",
        "D[f,E,E]/E",
        "D[f,E,E]/E",
        r"\frac{\frac{\partial^{2} f}{\partial E^{2}}}{E}",
        '{"mul": [{"pow": {"base": {"sym": "E"}, "exp": "-1"}}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 2]]}}]}',
    ),
    (
        "cube_root",
        "(m^2 + p1^2)^(1/3)",
        "(m^2 + p1^2)^(1/3)",
        r"\left(m^{2} + p_{1}^{2}\right)^{1/3}",
        '{"pow": {"base": {"add": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"sym": "p1"}, "exp": "2"}}]}, "exp": "1/3"}}',
    ),
    (
        "sqrt_of_quotient",
        "sqrt(1/(E + m))",
        "sqrt((1)/(E + m))",
        r"\sqrt{\frac{1}{E + m}}",
        '{"pow": {"base": {"div": {"num": {"const": {"re": "1", "im": "0"}}, "den": {"add": [{"sym": "E"}, {"sym": "m"}]}}}, "exp": "1/2"}}',
    ),
    (
        "minus_reciprocal",
        "-1/E",
        "-1/E",
        r"-\frac{1}{E}",
        '{"mul": [{"const": {"re": "-1", "im": "0"}}, {"pow": {"base": {"sym": "E"}, "exp": "-1"}}]}',
    ),
    (
        "imaginary_over_monomial",
        "2*i/E",
        "2*i/E",
        r"2i\,\frac{1}{E}",
        '{"mul": [{"const": {"re": "0", "im": "2"}}, {"pow": {"base": {"sym": "E"}, "exp": "-1"}}]}',
    ),
    (
        "complex_over_sum",
        "(1 + i)/(p1 + E)",
        "((1 + 1*i))/(E + p1)",
        r"\frac{\left(1 + 1i\right)}{E + p_{1}}",
        '{"div": {"num": {"const": {"re": "1", "im": "1"}}, "den": {"add": [{"sym": "E"}, {"sym": "p1"}]}}}',
    ),
    (
        "rep_marker",
        _raw_whole_p1,
        "D[f,E]*(p1/E) + D[f,p1]",
        r"\frac{\partial f}{\partial E}\,\left(\frac{p_{1}}{E}\right) + \frac{\partial f}{\partial p_{1}}",
        '{"add": [{"mul": [{"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1]]}}, {"mul": [{"pow": {"base": {"sym": "E"}, "exp": "-1"}}, {"sym": "p1"}]}]}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["p1", 1]]}}]}',
    ),
    (
        "shared_symbol",
        _shared_p1,
        "p1*sqrt(m^2 + p1^2) + D[f,E]*(p1/E) + D[f,p1]",
        r"p_{1}\,\sqrt{m^{2} + p_{1}^{2}} + \frac{\partial f}{\partial E}\,\left(\frac{p_{1}}{E}\right) + \frac{\partial f}{\partial p_{1}}",
        '{"add": [{"mul": [{"sym": "p1"}, {"pow": {"base": {"add": [{"pow": {"base": {"sym": "m"}, "exp": "2"}}, {"pow": {"base": {"sym": "p1"}, "exp": "2"}}]}, "exp": "1/2"}}]}, {"mul": [{"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1]]}}, {"mul": [{"pow": {"base": {"sym": "E"}, "exp": "-1"}}, {"sym": "p1"}]}]}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["p1", 1]]}}]}',
    ),
    (
        "commutator_operator",
        lambda: _commutator_p1_p2("operator"),
        "kappa12*D[f,E]/E^3 - kappa12*D[f,E,E]/E^2",
        r"\frac{kappa_{12}\,\frac{\partial f}{\partial E}}{E^{3}} - \frac{kappa_{12}\,\frac{\partial^{2} f}{\partial E^{2}}}{E^{2}}",
        '{"add": [{"mul": [{"pow": {"base": {"sym": "E"}, "exp": "-3"}}, {"sym": "kappa12"}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1]]}}]}, {"mul": [{"const": {"re": "-1", "im": "0"}}, {"pow": {"base": {"sym": "E"}, "exp": "-2"}}, {"sym": "kappa12"}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 2]]}}]}]}',
    ),
    (
        "commutator_paper_feynman",
        lambda: _commutator_p1_p2("paper", feynman=True),
        "i*B3*D[f,E]/E^3",
        r"i\,\frac{B_{3}\,\frac{\partial f}{\partial E}}{E^{3}}",
        '{"mul": [{"const": {"re": "0", "im": "1"}}, {"sym": "B3"}, {"pow": {"base": {"sym": "E"}, "exp": "-3"}}, {"partial": {"fn": "f", "args": ["p1", "p2", "p3", "E"], "orders": [["E", 1]]}}]}',
    ),
]


@pytest.mark.parametrize(
    "build, text, latex, json_text",
    [row[1:] for row in PRINT_CORPUS],
    ids=[row[0] for row in PRINT_CORPUS],
)
def test_print_examples(build, text, latex, json_text):
    e = parse_expr(build, SYMS, OPQ) if isinstance(build, str) else build()
    assert print_expr(e) == text
    assert print_expr(e, "latex") == latex
    assert print_expr(e, "json") == json_text


def test_parse_operator_generators(ms_commuting):
    ctx = ms_commuting
    fe = field_of(ctx)
    p1c, Ec = ctx.find_symbol("p1"), ctx.find_symbol("E")
    W1 = parse_operator("W[p1]", ctx)
    assert equals_canonical(apply(W1, fe), whole_partial(fe, p1c, ctx))
    A = parse_operator("(p1/E) * D[E]", ctx)
    want = (Expr.symbol(p1c) / Expr.symbol(Ec)) * fe.diff_plain(Ec)
    assert equals_canonical(apply(A, fe), want)
    assert op_equals(parse_operator("(p1/E)*D[E] + D[p1]", ctx), W1)
    # juxtaposition composes, leftmost outermost
    C = parse_operator("W[p1] D[E]", ctx)
    assert equals_canonical(apply(C, fe), apply(W1, fe.diff_plain(Ec)))


def test_parse_operator_unknown_variable(ms_commuting):
    with pytest.raises(ParseError) as exc:
        parse_operator("W[q]", ms_commuting)
    assert "not in the context" in str(exc.value)
    with pytest.raises(ParseError):
        parse_operator("W[E]", ms_commuting)  # whole needs independent


@pytest.mark.parametrize(
    "literal, span, message",
    [
        ("( ) (", (2, 3), "expected an expression, found ')'"),
        ("(D[)f,E])*D[p1]*W[p2]", (3, 4), "expected a symbol name"),
        ("(p1 p2) D[E]", (4, 6), "expected ')'"),
        ("(p1/E", (5, 5), "expected ')'"),
        ("W[p1", (4, 4), "expected ']'"),
    ],
    ids=["empty-group", "partial-in-group", "juxtaposed-coefficient", "unclosed-group",
         "unclosed-generator"],
)
def test_parse_operator_error_spans(ms_commuting, tmp_path, literal, span, message):
    with pytest.raises(ParseError) as exc:
        parse_operator(literal, ms_commuting)
    assert (exc.value.span.start, exc.value.span.end) == span
    assert str(exc.value) == f"{message} (at {span[0]}..{span[1]})"
    ctx_file = tmp_path / "ms.ctx"
    ctx_file.write_text(MASS_SHELL_SRC)
    assert cli_main(["commutator", str(ctx_file), "--a", literal, "--b", "D[E]"]) == 2


def test_print_operator_round_trip(ms_commuting):
    ctx = ms_commuting
    W1 = parse_operator("W[p1]", ctx)
    DE = parse_operator("D[E]", ctx)
    for op in (W1, DE, commutator(W1, DE), parse_operator("(p1/E)*D[E] + 2 W[p2]", ctx)):
        s = print_operator(op)
        assert op_equals(op, parse_operator(s, ctx)), s


def test_parse_context_mass_shell():
    ctx = parse_context(MASS_SHELL_SRC)
    assert [s.name for s in ctx.independents] == ["p1", "p2", "p3"]
    assert ctx.ordering_mode == "commuting"
    rep = ctx.representation(ctx.find_symbol("E"), ctx.find_symbol("p1"))
    assert equals_canonical(rep, parse_expr_in_context("p1/E", ctx))
    g = ctx.constraint_for(ctx.find_symbol("E"))
    assert g is not None and g.mentions(ctx.find_symbol("m"))


def test_parse_context_commutators_and_ordering():
    src = MASS_SHELL_SRC + "commutator [p1,p2] = kappa12\nordering paper\n"
    ctx = parse_context(src)
    assert ctx.ordering_mode == "paper"
    assert ctx.find_symbol("p1").klass == 1
    k = ctx.commutators.lookup(ctx.find_symbol("p1"), ctx.find_symbol("p2"))
    assert k is not None and not k.is_zero()
    assert ctx.find_symbol("kappa12").kind == SymbolKind.COMMUTATOR


@pytest.mark.parametrize("value", ["1", "m", "kappa + 1", "1/kappa"])
def test_parse_context_rejects_commutator_without_commutator_symbol(value):
    with pytest.raises(ContextError) as exc:
        parse_context(MASS_SHELL_SRC + f"commutator [p1,p2] = {value}\n")
    assert "[p1, p2]" in str(exc.value)


def test_serialize_context_round_trip():
    src = MASS_SHELL_SRC + "commutator [p1,p2] = kappa12\nordering paper\n"
    ctx = parse_context(src)
    ctx2 = parse_context(serialize_context(ctx))
    assert ctx2.ordering_mode == "paper"
    assert [s.name for s in ctx2.independents] == ["p1", "p2", "p3"]
    rep = ctx2.representation(ctx2.find_symbol("E"), ctx2.find_symbol("p2"))
    assert equals_canonical(rep, parse_expr_in_context("p2/E", ctx2))


# u is solved by u*(x + y) = 1 alone: its representation -g_x/g_u = -u/(x + y)
# comes from the constraint only.
_SUM_DENOMINATOR_CONSTRAINT = (
    "independent x y\ndependent u\nconstraint u*(x+y) - 1 = 0 solves u\n"
    "commutator [x,y] = kappa\n"
)


@pytest.mark.parametrize(
    "src, offending",
    [
        (MASS_SHELL_SRC.replace("= p1/E", "= p1/qq"), "qq"),
        (MASS_SHELL_SRC.replace("- m^2 = 0", "- m^2) = 0"), ")"),
        (MASS_SHELL_SRC + "commutator [p1,p2] = kappa12 + @\n", "@"),
        # statement-level names: the span covers the name itself
        (MASS_SHELL_SRC + "representation dX/dp1 = p1/E\n", "X"),
        (MASS_SHELL_SRC + "commutator [p1,q] = kappa\n", "q"),
        (MASS_SHELL_SRC.replace("solves E", "solves Z"), "Z"),
        (MASS_SHELL_SRC + "opaque g(p1,zz)\n", "zz"),
        # a commutator pairs two different independents, else its value is unused
        (MASS_SHELL_SRC + "commutator [p1,m] = kappa\n", "m"),
        (MASS_SHELL_SRC + "commutator [E,p1] = kappa\n", "E"),
        (MASS_SHELL_SRC + "commutator [p1,f] = kappa\n", "f"),
        (MASS_SHELL_SRC + "commutator [p1,p2] = kappa\ncommutator [kappa,p1] = k2\n", "kappa"),
        (MASS_SHELL_SRC + "commutator [p1,p1] = kappa\n", "p1"),
        # a pair declared twice, in either order, would silently keep the last value
        (MASS_SHELL_SRC + "commutator [p1,p2] = kappa\ncommutator [p2,p1] = kappa\n", "p1"),
        (MASS_SHELL_SRC + "commutator [p1,p2] = kappa\ncommutator [p1,p2] = k2\n", "p2"),
        # a representation is d<dependent>/d<independent>, else it is never read
        (MASS_SHELL_SRC + "representation dm/dp1 = p1\n", "m"),
        (MASS_SHELL_SRC + "representation dE/dm = p1\n", "m"),
        (MASS_SHELL_SRC + "representation dE/dE = 1\n", "E"),
        (MASS_SHELL_SRC + "representation dp1/dp2 = p1\n", "p1"),
        (MASS_SHELL_SRC + "representation df/dp1 = p1\n", "f"),
        # a second one would silently replace the first
        (MASS_SHELL_SRC + "representation dE/dp1 = 2*p1/E\n", "p1"),
        # a constraint is imposed through the dependent it solves, else never
        (MASS_SHELL_SRC + "constraint p1 - m = 0 solves p1\n", "p1"),
        (MASS_SHELL_SRC + "constraint p1 - m = 0 solves m\n", "m"),
        # a name the lexer cannot read is refused where it is declared
        (MASS_SHELL_SRC.replace("param m", "param m mé"), "é"),
        # a value the engine cannot hold is refused at the value
        ("independent x\nindependent y\ndependent u\nrepresentation du/dx = x\n"
         "representation du/dy = (x)/(x + x*x)\ncommutator [x,y] = kappa\nopaque f(x,y,u)\n",
         "(x)/(x + x*x)"),
        (MASS_SHELL_SRC + "commutator [p1,p2] = 1/(p1 + p2)\n", "1/(p1 + p2)"),
        (MASS_SHELL_SRC + "commutator [p1,p2] = kappa\ndependent w\n"
         "constraint w - 1/(p1 + p2) = 0 solves w\n", "w - 1/(p1 + p2)"),
        # -g_x/g_u = -u/(x + y), which only the constraint gives, at the constraint
        (_SUM_DENOMINATOR_CONSTRAINT, "u*(x+y) - 1"),
        # validate would derive it to compare with the declared du/dx and du/dy
        (_SUM_DENOMINATOR_CONSTRAINT + "representation du/dx = 1\n"
         "representation du/dy = 1\n", "u*(x+y) - 1"),
        # a second ordering statement would silently replace the first
        (MASS_SHELL_SRC + "ordering paper\nordering commuting\n", "ordering commuting"),
    ],
    ids=["representation", "constraint", "commutator", "representation name",
         "commutator name", "constraint name", "opaque argument",
         "commutator parameter", "commutator dependent", "commutator opaque",
         "commutator symbol", "commutator repeated", "commutator pair reversed twice",
         "commutator pair twice", "representation of a parameter",
         "representation over a parameter", "representation over a dependent",
         "representation of an independent", "representation of an opaque",
         "representation twice", "constraint solving an independent",
         "constraint solving a parameter", "non-ascii name",
         "representation sum denominator", "commutator sum denominator",
         "constraint sum denominator", "constraint-derived sum denominator",
         "declared constraint-derived sum denominator", "ordering twice"],
)
def test_parse_context_sub_expression_error_spans(tmp_path, src, offending):
    with pytest.raises(ParseError) as exc:
        parse_context(src)
    assert src[exc.value.span.start : exc.value.span.end] == offending
    ctx_file = tmp_path / "bad.ctx"
    ctx_file.write_text(src)
    assert cli_main(["derive", str(ctx_file), "--expr", "E", "--wrt", "p1"]) == 2


def test_constraint_derived_representations_are_derived_at_parse_when_noncommuting(
        tmp_path, capsys):
    """The constraint-derived -u/(x + y) is refused at parse only where x and
    y do not commute: under ordering commuting it is the derivative, and
    parse derives nothing; and a constraint that does not determine u is
    still refused where it is used."""
    derived = []
    real = textio.implicit_partial
    with pytest.MonkeyPatch.context() as m:
        m.setattr(textio, "implicit_partial", lambda *a: derived.append(a) or real(*a))
        commuting = parse_context(_SUM_DENOMINATOR_CONSTRAINT + "ordering commuting\n")
    assert derived == []
    u, x = (commuting.find_symbol(n) for n in ("u", "x"))
    assert print_expr(commuting.representation(u, x)) == "(-u)/(x + y)"
    with pytest.raises(ParseError):
        parse_context(_SUM_DENOMINATOR_CONSTRAINT)
    degenerate = tmp_path / "degenerate.ctx"
    degenerate.write_text(_SUM_DENOMINATOR_CONSTRAINT.replace("u*(x+y) - 1", "x - y"))
    assert cli_main(["derive", str(degenerate), "--expr", "x", "--wrt", "y"]) == 0
    assert cli_main(["derive", str(degenerate), "--expr", "u", "--wrt", "x"]) == 3
    assert "does not determine u" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stmt, expect",
    [
        # accepted: the statement reads as its canonical spelling
        ("representation  dE / dp1=p1/E", "representation dE/dp1 = p1/E"),
        ("commutator[p1,p2]=kappa12", "commutator [p1,p2] = kappa12"),
        ("opaque g ( p1 , E )", "opaque g(p1,E)"),
        ("param q\r", "param q"),
        ("param  q   # comment \r", "param q"),
        ("  # comment only", ""),
        ("constraint E^2-m^2=0solves E", "constraint E^2 - m^2 = 0 solves E"),
        ("ordering  paper \r", "ordering paper"),
        # rejected
        ("representation dE/dp1 =", ParseError),
        ("commutator [p1,p2] =   # empty value", ParseError),
        ("constraint E^2 - m^2 = 0.0 solves E", ParseError),
        ("constraint E^2 - m^2 = 0 solves", ParseError),
        ("constraint = 0 solves E", ParseError),
        ("representation dE/d = 1", ParseError),
        ("representation dE/d1 = 1", ParseError),
        ("representation E/dp1 = 1", ParseError),
        ("opaque (p1)", ParseError),
        ("opaque g(p1,)", ParseError),
        ("independent", ParseError),
        ("independent p4,p5", ParseError),
        ("dependent E F", ParseError),
        ("ordering", ParseError),
        ("ordering paper operator", ParseError),
        ("ordering sideways", ParseError),
        ("= 0", ParseError),
        ("commutator [p1,p2] = 1", ContextError),
        # E is solved by one constraint: a second one is refused
        ("constraint E^2 - m^2 = 0 solves E", ContextError),
        # only d<dependent>/d<independent> is read, and only once
        ("representation dm/dp1 = p1", ParseError),
        ("representation dE/dm = p1", ParseError),
        ("representation dE/dE = 1", ParseError),
        ("representation dp1/dp2 = p1", ParseError),
        ("representation dE/dp1 = p1/E", ParseError),
        # a constraint solves a dependent, or it is never imposed
        ("constraint p1 - m = 0 solves p1", ParseError),
        ("constraint p1 - m = 0 solves m", ParseError),
        ("constraint p1 - m = 0 solves f", ParseError),
        # one commutator per pair, in either order
        ("commutator [p1,p2] = kappa\ncommutator [p2,p1] = kappa", ParseError),
        ("commutator [p1,p2] = kappa\ncommutator [p1,p2] = kappa", ParseError),
        # one ordering statement, even when both name the same mode
        ("ordering paper\nordering commuting", ParseError),
        ("ordering paper\nordering paper", ParseError),
    ],
)
def test_parse_context_statement_table(stmt, expect):
    base = MASS_SHELL_SRC
    kw = stmt.split()[0]
    if isinstance(expect, str) and kw in ("constraint", "representation"):
        # an accepted constraint or representation stands in for the file's own
        base = "".join(ln for ln in base.splitlines(True) if not ln.startswith(kw))
    src = base + stmt + "\n"
    if isinstance(expect, str):
        want = parse_context(base + expect + "\n")
        assert serialize_context(parse_context(src)) == serialize_context(want)
    else:
        with pytest.raises(expect):
            parse_context(src)


@pytest.mark.parametrize(
    "src, message",
    [
        (MASS_SHELL_SRC.replace("dp1 = p1/E", "dp1 = f(p1,p2,p3,E)"),
         "representation dE/dp1 mentions disallowed symbol 'f'"),
        (MASS_SHELL_SRC + "constraint E^2 - m^2 = 0 solves E\n",
         "dependent 'E' is solved by 2 constraints"),
        (MASS_SHELL_SRC + "opaque f(p1,E)\n", "symbol 'f' declared twice"),
    ],
    ids=["opaque in representation", "two constraints", "opaque twice"],
)
def test_parse_context_reports_each_error_once(src, message):
    with pytest.raises(ContextError) as exc:
        parse_context(src)
    assert str(exc.value) == message


def test_parse_context_commuting_ordering_keeps_the_commutators():
    """ordering commuting makes every symbol commute; the commutator lines
    are still read and written back."""
    src = MASS_SHELL_SRC + "commutator [p1,p2] = kappa12\n"
    for tail, klass in (("ordering commuting\n", 0), ("", 1)):
        ctx = parse_context(src + tail)
        assert [s.klass for s in ctx.independents] == [klass, klass, 0]
        assert "commutator [p1,p2] = kappa12" in serialize_context(ctx)


def test_parse_context_ordering_argument_stands_in_for_the_statement():
    """An ordering passed to parse_context (commutator --ordering) replaces
    the file's statement, which is still read and checked."""
    src = MASS_SHELL_SRC + "commutator [p1,p2] = kappa12\n"
    for tail in ("", "ordering paper\n", "ordering commuting\n"):
        ctx = parse_context(src + tail, "commuting")
        assert ctx.ordering_mode == "commuting"
        assert [s.klass for s in ctx.independents] == [0, 0, 0]
        assert parse_context(src + tail, "paper").ordering_mode == "paper"
    for tail in ("ordering sideways\n", "ordering paper\nordering paper\n"):
        with pytest.raises(ParseError):
            parse_context(src + tail, "paper")


def test_parse_context_semantic_errors():
    with pytest.raises(ContextError):
        parse_context(MASS_SHELL_SRC + "dependent E\n")
    with pytest.raises(ParseError):
        parse_context("independent p1\nfrobnicate x\n")
    with pytest.raises(ParseError):
        parse_context("ordering sideways\n")


def test_source_span_invariant():
    with pytest.raises(ValueError, match="^span start exceeds end$"):
        SourceSpan(5, 2)
    with pytest.raises(ValueError, match="^span start exceeds end$"):
        SourceSpan(start=5, end=2)
    span = SourceSpan(end=5, start=5)
    assert (span.start, span.end) == (5, 5)


@pytest.mark.xfail(
    strict=True, reason="a bare opaque name inside an expression parses as a constant symbol"
)
def test_bare_opaque_name_inside_expression_is_its_application(ms_commuting):
    ctx = ms_commuting
    v = ctx.find_symbol("p1")
    got = whole_partial(parse_expr_in_context("2*f", ctx), v, ctx)
    assert equals_canonical(got, 2 * whole_partial(field_of(ctx), v, ctx))
