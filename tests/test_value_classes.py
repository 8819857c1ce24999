"""Value semantics of the hand-written value classes: == and hash where
values are compared or hashed, immutability where a class is frozen, and a
fresh mutable default per instance."""

import pytest

from wholediff import (
    DependencyContext,
    DerivativeGenerator,
    Diagnostic,
    DifferentialOperator,
    Expr,
    MassShellScenario,
    NumericBinding,
    OpaqueFn,
    PositionCommutatorTable,
    RetardedScenario,
    SourceSpan,
    Symbol,
    SymbolKind,
    VerificationReport,
)
from wholediff.textio import Token

P1 = Symbol("p1", SymbolKind.INDEPENDENT, klass=1)


def test_symbol_equality_and_hash():
    twin = Symbol("p1", kind=SymbolKind.INDEPENDENT, klass=1)
    assert P1 == P1 and hash(P1) == hash(P1)
    assert twin is not P1 and twin == P1 and hash(twin) == hash(P1)
    assert hash(P1) == hash(("p1", SymbolKind.INDEPENDENT, 1))
    assert P1 != Symbol("p1", SymbolKind.DEPENDENT, klass=1)
    assert P1 != Symbol("p1", SymbolKind.INDEPENDENT, klass=2)
    assert P1 != Symbol("p2", SymbolKind.INDEPENDENT, klass=1)
    assert P1.__eq__("p1") is NotImplemented and P1 != "p1"
    assert P1.__eq__(DerivativeGenerator(P1, "plain")) is NotImplemented
    assert len({P1, twin, Symbol("p1", SymbolKind.INDEPENDENT)}) == 2
    assert Symbol("k", SymbolKind.COMMUTATOR, klass=3) == Symbol("k", SymbolKind.COMMUTATOR)
    assert Symbol("m") == Symbol("m", SymbolKind.PARAMETER, 0)
    with pytest.raises(ValueError, match="unknown symbol kind 'bogus'"):
        Symbol("x", "bogus")


def test_derivative_generator_equality_and_hash():
    g = DerivativeGenerator(P1, "whole")
    twin = DerivativeGenerator(variable=Symbol("p1", SymbolKind.INDEPENDENT, klass=1), mode="whole")
    assert g == g and twin == g and hash(twin) == hash(g)
    assert hash(g) == hash((P1, "whole"))
    assert g != DerivativeGenerator(P1, "plain")
    assert g != DerivativeGenerator(Symbol("p1", SymbolKind.DEPENDENT, klass=1), "whole")
    assert g != DerivativeGenerator(Symbol("p1", SymbolKind.INDEPENDENT, klass=2), "whole")
    assert g.__eq__(P1) is NotImplemented and g != (P1, "whole")
    assert {g: 1}[twin] == 1


def _frozen_instances():
    op = DifferentialOperator.identity(DependencyContext((P1,)))
    return [
        (P1, "klass"),
        (Diagnostic("error", "message"), "level"),
        (DerivativeGenerator(P1, "plain"), "mode"),
        (op, "terms"),
        (MassShellScenario(), "dimension"),
        (PositionCommutatorTable(operators=(op,), entries=((op,),)), "entries"),
        (RetardedScenario(trajectory=Expr.symbol(P1)), "parameters"),
        (SourceSpan(0, 1), "start"),
        (Token("id", "p1", SourceSpan(0, 2)), "text"),
    ]


FROZEN = _frozen_instances()


@pytest.mark.parametrize("obj, field", FROZEN, ids=[type(o).__name__ for o, _ in FROZEN])
def test_frozen_classes_refuse_assignment(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, field) is before


def test_mutable_defaults_are_per_instance():
    a, b = DependencyContext((P1,)), DependencyContext((P1,))
    assert a.representations == {} and a.representations is not b.representations
    assert a.commutators is not b.commutators
    assert a.parameters == a.dependents == a.constraints == a.opaques == ()
    assert a.ordering_mode == "operator"
    a.declare_representation(P1, P1, 1)
    assert b.representations == {}
    assert OpaqueFn(abs).partials is not OpaqueFn(abs).partials
    n1, n2 = NumericBinding(), NumericBinding()
    assert n1.values == n1.opaques == {} and n1.values is not n2.values
    assert n1.opaques is not n2.opaques
    r1, r2 = (VerificationReport(1, 0, 0.0, 0.0, 1e-8, 1e-9) for _ in range(2))
    assert r1.diagnostics == [] and r1.diagnostics is not r2.diagnostics
