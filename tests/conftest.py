import importlib.util
from pathlib import Path

import pytest

from wholediff import (
    Expr,
    MassShellScenario,
    build_mass_shell,
)


@pytest.fixture(scope="session")
def ms_commuting():
    return build_mass_shell(MassShellScenario(ordering_mode="commuting"))


@pytest.fixture(scope="session")
def ms_paper():
    return build_mass_shell(MassShellScenario(ordering_mode="paper"))


@pytest.fixture(scope="session")
def ms_operator():
    return build_mass_shell(MassShellScenario(ordering_mode="operator"))


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, loaded read-only: its input domains and the
    golden digests of bench/golden.json that the output must match."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    w = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(w)
    return w


def field_of(ctx):
    fn, args = ctx.opaques[0]
    return Expr.opaque(fn, args)


class PropertyOutcomes:
    """Runs each check in test_properties.PROPERTIES at most once and
    records the exception it raised, or None when the property held."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._outcomes = {}

    def get(self, name):
        if name not in self._outcomes:
            import test_properties

            try:
                test_properties.PROPERTIES[name](self.ctx)
                self._outcomes[name] = None
            except Exception as exc:
                self._outcomes[name] = exc
        return self._outcomes[name]

    def check(self, name):
        exc = self.get(name)
        if exc is not None:
            raise exc


@pytest.fixture(scope="session")
def property_outcomes(ms_commuting):
    return PropertyOutcomes(ms_commuting)
