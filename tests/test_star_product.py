"""normal_order against an independent oracle: the standard-ordering star
product (Moyal, Proc. Camb. Phil. Soc. 45, 1949), computed in SymPy.

With central [p_a, p_b] = kappa_ab, the symbol of a product of letters in
normal order (p1 left of p2 left of p3) is the fold of the letters under

    f * g = f g - sum_{a<b} kappa_ab d_{p_b} f d_{p_a} g,

truncated at first order in kappa.  The oracle never orders a word: it
differentiates commuting polynomials."""

import functools
import itertools
import operator

import pytest

sympy = pytest.importorskip("sympy")

from wholediff import MassShellScenario, build_mass_shell  # noqa: E402
from wholediff.symexpr import Expr, normal_order  # noqa: E402

PS = sympy.symbols("p1 p2 p3")
KAPPA = {(a, b): sympy.Symbol(f"kappa{a + 1}{b + 1}") for a, b in itertools.combinations(range(3), 2)}
B1, B2, B3 = sympy.symbols("B1 B2 B3")
# [p1,p2] = i*B3, [p2,p3] = i*B1, [p3,p1] = i*B2: kappa_ab = i*eps_abc*B_c.
FEYNMAN = {KAPPA[0, 1]: sympy.I * B3, KAPPA[1, 2]: sympy.I * B1, KAPPA[0, 2]: -sympy.I * B2}


def _star(f, g):
    f0 = f.subs({k: 0 for k in KAPPA.values()})  # first order: drop kappa * kappa
    return sympy.expand(f * g - sum(k * sympy.diff(f0, PS[b]) * sympy.diff(g, PS[a])
                                    for (a, b), k in KAPPA.items()))


def _as_sympy(e: Expr):
    """The commuting polynomial of a normal-ordered Expr, after checking
    that each word has its noncommuting letters in key order."""
    assert e.den_is_one()
    out = 0
    for c, f in e._num:
        keys = [a.key for a, _e in f if a.noncommuting]
        assert keys == sorted(keys)
        term = sympy.Rational(c.re.numerator, c.re.denominator)
        term += sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for a, n in f:
            term *= sympy.Symbol(a.name) ** n
        out += term
    return sympy.expand(out)


@pytest.mark.parametrize("feynman", [False, True], ids=["kappa", "feynman"])
def test_normal_order_matches_the_star_product(feynman):
    """Every word of length 1..4 over p1, p2, p3 and the central letters
    1/E and m, on the operator-mode mass shell."""
    ctx = build_mass_shell(MassShellScenario(ordering_mode="operator", feynman=feynman))
    E, m = (ctx.find_symbol(n) for n in ("E", "m"))
    letters = [Expr.symbol(ctx.find_symbol(f"p{i}")) for i in (1, 2, 3)]
    letters += [Expr.symbol(E) ** -1, Expr.symbol(m)]
    oracle = [*PS, 1 / sympy.Symbol("E"), sympy.Symbol("m")]
    count = 0
    for n in range(1, 5):
        for word in itertools.product(range(len(letters)), repeat=n):
            got = normal_order(functools.reduce(operator.mul, (letters[i] for i in word)),
                               ctx.commutators)
            want = functools.reduce(_star, (oracle[i] for i in word))
            if feynman:
                want = sympy.expand(want.subs(FEYNMAN))
            assert sympy.expand(_as_sympy(got) - want) == 0, word
            count += 1
    assert count == 5 + 5 ** 2 + 5 ** 3 + 5 ** 4
