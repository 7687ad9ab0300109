"""The compiled kernel and the pure-Python fallback must be bit-identical:
same witnesses, same counts, same enumeration order, same decision counts.
The compiled kernel is the committed _speedups.c, built by the `speedups`
fixture of conftest.py.

Only the existence search is a real comparison here: the compiled
kernel hands counting and enumeration to _fallback, so those tests
compare the fallback with itself.  A fault that both kernels share, in
any mode, is caught by test_kernel_golden, which pins the payloads and
decision counts of all three modes over a recorded corpus of pairs.
"""

import sys

from pultr import _fallback, engine, limits
from pultr.engine import kernel_args
from pultr.graphs import cycle_graph, complete_graph, enumerate_graphs
from pultr.adjoints import omega_odd_path

from conftest import random_digraph


def both(speedups, g, h, mode, limit=-1):
    a = speedups.solve(*kernel_args(g, h, mode, limit=limit))
    b = _fallback.solve(*kernel_args(g, h, mode, limit=limit))
    return a, b


def test_parity_exhaustive_order2(speedups):
    universe = list(
        enumerate_graphs(2, directed=True, loops=True, all_orders=True)
    )
    for g in universe:
        for h in universe:
            for mode in (0, 1, 2):
                a, b = both(speedups, g, h, mode)
                assert a == b


def test_parity_random(speedups, rng):
    for _ in range(300):
        g = random_digraph(rng, rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]))
        h = random_digraph(rng, rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]))
        for mode in (0, 1, 2):
            a, b = both(speedups, g, h, mode)
            assert a == b, (g, h, mode)


def test_parity_budget_cutoff(speedups, rng):
    # identical decision counting implies identical budget behaviour
    g = cycle_graph(9)
    h = cycle_graph(7)
    for budget in (1, 3, 10, 50, 1000):
        with limits.scope(budget=budget):
            a, b = both(speedups, g, h, 0)
        assert a == b


def test_parity_large_domain(speedups):
    om = omega_odd_path(5, cycle_graph(5))  # 210 vertices, multi-word masks
    for g in list(enumerate_graphs(3, directed=False, loops=True))[:40]:
        a, b = both(speedups, g, om, 0)
        assert a == b


def test_parity_enumeration_limit(speedups):
    g, h = complete_graph(2), complete_graph(4)
    for limit in (0, 1, 5, -1):
        a, b = both(speedups, g, h, 2, limit=limit)
        assert a == b


def test_fixture_keeps_the_kernel_private(speedups):
    assert engine._kernel is not speedups
    assert sys.modules.get("pultr._speedups") is not speedups
