"""The search budget is set in one place, `limits.scope`, and reaches
every search nested in the scope."""

import ast
from pathlib import Path

import pytest

from pultr import limits
from pultr.adjoints import power_functor
from pultr.errors import BudgetExceededError
from pultr.functors import builtin_template, verify_adjunction
from pultr.graphs import complete_graph, cycle_graph

from conftest import functions_taking

# The setter itself and the raw kernel contract, whose budget is positional.
BUDGET_TAKERS = {"pultr.limits.scope", "pultr._fallback.solve"}
SRC = Path(__file__).resolve().parent.parent / "src" / "pultr"
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_scope_budget_reaches_nested_searches():
    assert limits.default_budget() == limits.DEFAULT_NODE_BUDGET
    with limits.scope(budget=3):
        with limits.scope(size_guard=10):
            assert limits.default_budget() == 3
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


def test_no_module_reads_the_environment():
    """A limit set through os.environ would apply to the whole process;
    limits apply per scope."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name in ENVIRONMENT_READERS
            ]
    assert found == []
