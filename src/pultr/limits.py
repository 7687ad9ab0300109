"""Resource limits: construction size guard and search node budget.

The size guard bounds vertices+arcs of any single constructed graph
(the Omega and exponential constructions explode quickly).  The node
budget bounds backtracking decisions per engine call; exceeding it is an
error, never a guess.

Both limits are scoped: `scope(budget=..., size_guard=...)` sets them
for the code it wraps and restores the enclosing values on exit.  It is
the only way to set them, in-process or from the CLI's `--budget` and
`--unsafe-size`; no search function takes a budget argument, and no
environment variable sets them.  `engine.kernel_args` and
`chromatic.k_colourable` read the budget through `default_budget`.
The searches keep their open branches on explicit stacks, so deep
inputs need no change to Python's recursion limit, which is
process-wide.
"""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import SizeGuardError

DEFAULT_SIZE_GUARD = 2_000_000
DEFAULT_NODE_BUDGET = 100_000_000

# (budget, size guard) of the innermost scope.
_limits = ContextVar(
    "pultr_limits", default=(DEFAULT_NODE_BUDGET, DEFAULT_SIZE_GUARD)
)


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
    """The budget of the innermost scope, else DEFAULT_NODE_BUDGET."""
    return _limits.get()[0]
