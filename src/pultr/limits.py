"""Resource limits: construction size guard and search node budget.

The size guard bounds vertices+arcs of any single constructed graph
(the Omega and exponential constructions explode quickly).  The node
budget bounds backtracking decisions per engine call; exceeding it is an
error, never a guess.

Both limits are scoped: `scope(budget=..., size_guard=...)` sets them
for the code it wraps and restores the enclosing values on exit.  A
per-call `budget=` argument still takes precedence over the scope.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import SizeGuardError

DEFAULT_SIZE_GUARD = 2_000_000
DEFAULT_NODE_BUDGET = 100_000_000
BUDGET_ENV = "PULTR_BUDGET"

# (budget, size guard) of the innermost scope.  A budget of None defers
# to PULTR_BUDGET and then to the default.
_limits = ContextVar("pultr_limits", default=(None, DEFAULT_SIZE_GUARD))


@contextmanager
def scope(budget=None, size_guard=None):
    """Run the enclosed code under these limits.  None inherits the
    enclosing value; size_guard=math.inf disables the guard."""
    outer_budget, outer_guard = _limits.get()
    token = _limits.set(
        (
            outer_budget if budget is None else budget,
            outer_guard if size_guard is None else size_guard,
        )
    )
    try:
        yield
    finally:
        _limits.reset(token)


def size_guard():
    return _limits.get()[1]


def check_size(estimate, what="construction"):
    """Raise SizeGuardError if the estimated vertices+arcs exceed the guard."""
    guard = size_guard()
    if estimate > guard:
        raise SizeGuardError(estimate, guard, what)


def default_budget():
    budget = _limits.get()[0]
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_NODE_BUDGET
