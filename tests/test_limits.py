"""The search budget is set in one place, `limits.scope`, and reaches
every search nested in the scope."""

import pytest

from pultr import limits
from pultr.adjoints import power_functor
from pultr.errors import BudgetExceededError, ParameterError
from pultr.functors import builtin_template, verify_adjunction
from pultr.graphs import complete_graph, cycle_graph

from conftest import functions_taking

# The setter itself and the raw kernel contract, whose budget is positional.
BUDGET_TAKERS = {"pultr.limits.scope", "pultr._fallback.solve"}


def test_scope_budget_reaches_nested_searches():
    t3, c5, k3 = builtin_template("t3"), cycle_graph(5), complete_graph(3)
    assert verify_adjunction(t3, c5, k3)
    # K3 has no loop, so the lambda side, C15 -> K3, must search.
    with limits.scope(budget=1), pytest.raises(BudgetExceededError):
        verify_adjunction(t3, c5, k3)
    # A path template's gamma is built by semijoin passes, which make no
    # decisions.
    with limits.scope(budget=0):
        assert power_functor(3, 1, c5).n == 5


def test_only_the_scope_sets_a_budget():
    assert functions_taking("budget") == BUDGET_TAKERS


def test_budget_env(monkeypatch):
    monkeypatch.setenv(limits.BUDGET_ENV, "7")
    assert limits.default_budget() == 7
    with limits.scope(budget=3):
        assert limits.default_budget() == 3
    monkeypatch.setenv(limits.BUDGET_ENV, "")
    assert limits.default_budget() == limits.DEFAULT_NODE_BUDGET
    for raw in ("1e6", "10**6", "-5", "many"):
        monkeypatch.setenv(limits.BUDGET_ENV, raw)
        with pytest.raises(ParameterError, match=limits.BUDGET_ENV):
            limits.default_budget()
