"""Property tests over context files (ROADMAP item 16): a strategy over the
statement grammar, with two properties of every file parse_context accepts.

- serialize_context o parse_context is a fixed point: the canonical text of
  an accepted file reads back to the same canonical text.
- Every statement has an effect: deleting any one statement of an accepted
  file changes its serialization, or makes the file an error.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wholediff.errors import WholediffError
from wholediff.textio import parse_context, serialize_context

INDEPENDENTS = ("x", "y", "p1")
PARAMS = ("m", "a")
DEPENDENTS = ("u", "w")
MODES = ("commuting", "operator", "paper")


@st.composite
def _square_sum(draw, names):
    """c1*s1^2 + ... + k over a nonempty subset of names, as {name: c} and k."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    return {s: draw(st.integers(1, 3)) for s in chosen}, draw(st.integers(1, 2))


@st.composite
def _value(draw, names):
    """A small rational expression over names: products, a quotient, sqrt."""
    atom = st.one_of(st.sampled_from(names), st.integers(1, 3).map(str))
    mono = st.lists(atom, min_size=1, max_size=3).map("*".join)
    poly = st.lists(mono, min_size=1, max_size=3).map(" + ".join)
    shape = draw(st.sampled_from(["{0}", "({0})/({1})", "sqrt({0})", "{0} - {1}"]))
    return shape.format(draw(poly), draw(poly))


@st.composite
def context_files(draw):
    """The text of a context file: declarations, constraints (one that
    mentions a second dependent now and then), representations, an opaque
    function, commutators, an ordering statement, comments and blank lines,
    the statements in any order."""
    indeps = draw(st.lists(st.sampled_from(INDEPENDENTS), min_size=1, max_size=3, unique=True))
    params = draw(st.lists(st.sampled_from(PARAMS), max_size=2, unique=True))
    deps = draw(st.lists(st.sampled_from(DEPENDENTS), max_size=2, unique=True))
    split = draw(st.integers(1, len(indeps)))
    stmts = ["independent " + " ".join(indeps[:split])]
    if indeps[split:]:
        stmts.append("independent " + " ".join(indeps[split:]))
    if params:
        stmts.append("param " + " ".join(params))
    for u in deps:
        stmts.append(f"dependent {u}")
        how = draw(st.sampled_from(["solved", "solved", "represented", "chained"]))
        if how == "solved":
            # u^2 = sum of c*s^2 + k, so du/dv = c*v/u exactly (0 for an absent v)
            coeffs, k = draw(_square_sum(indeps + params))
            rhs = " + ".join(f"{c}*{s}^2" for s, c in coeffs.items())
            stmts.append(f"constraint {u}^2 - ({rhs} + {k}) = 0 solves {u}")
            for v in draw(st.lists(st.sampled_from(indeps), unique=True)):
                exact = f"{coeffs[v]}*{v}/{u}" if v in coeffs else "0"
                value = draw(st.sampled_from([exact, exact, f"{v}/{u}"]))
                stmts.append(f"representation d{u}/d{v} = {value}")
        elif how == "represented":
            for v in indeps:
                value = draw(_value(indeps + params))
                stmts.append(f"representation d{u}/d{v} = {value}")
        else:
            # item 17: a constraint through another dependent is refused
            other = [d for d in DEPENDENTS if d != u][0]
            stmts.append(f"constraint {u} - {other}*{indeps[0]} = 0 solves {u}")
    if draw(st.booleans()):
        args = draw(st.lists(st.sampled_from(indeps + deps), min_size=1, unique=True))
        stmts.append(f"opaque f({','.join(args)})")
    if len(indeps) > 1:
        for a, b, k in draw(st.lists(st.sampled_from([(indeps[0], indeps[1], "kappa"),
                                                      (indeps[1], indeps[-1], "k2")]),
                                     max_size=2, unique=True)):
            stmts.append(f"commutator [{a},{b}] = {k}")
    stmts += [f"ordering {mode}" for mode in draw(st.lists(st.sampled_from(MODES), max_size=1))]
    stmts = draw(st.permutations(stmts))
    lines = []
    for s in stmts:
        lines += draw(st.lists(st.sampled_from(["", "# a comment"]), max_size=1))
        lines.append(s + draw(st.sampled_from(["", "", "  # note"])))
    return "\n".join(lines) + "\n"


def _accepted(text):
    try:
        return serialize_context(parse_context(text))
    except WholediffError:
        return None


def _statement_deletions(text):
    """(statement, file without it) for each statement line of text."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        stmt = line.split("#", 1)[0].strip()
        if stmt:
            yield stmt, "\n".join(lines[:i] + lines[i + 1:])


_SETTINGS = settings(max_examples=60, deadline=None)


@_SETTINGS
@given(text=context_files())
def test_serialized_context_is_a_fixed_point(text):
    canonical = _accepted(text)
    assume(canonical is not None)
    assert serialize_context(parse_context(canonical)) == canonical


@_SETTINGS
@given(text=context_files())
def test_deleting_a_statement_changes_the_file(text):
    canonical = _accepted(text)
    assume(canonical is not None)
    for stmt, rest in _statement_deletions(text):
        if stmt.split()[0] != "ordering":
            assert _accepted(rest) != canonical, stmt


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 16: an ordering statement has no effect when it names the "
    "default mode (commuting without commutators, operator with them), because "
    "serialize_context writes the mode in every file; omitting it there changes the "
    "scenario golden digests, so it lands with a benchmark change",
)
@_SETTINGS
@example(text="independent x\nordering commuting\n")
@given(text=context_files())
def test_deleting_an_ordering_statement_changes_the_file(text):
    canonical = _accepted(text)
    assume(canonical is not None)
    for stmt, rest in _statement_deletions(text):
        if stmt.split()[0] == "ordering":
            assert _accepted(rest) != canonical, stmt
