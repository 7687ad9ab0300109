"""The compiled kernel and the pure-Python fallback must be bit-identical:
same witnesses, same counts, same enumeration order, same decision counts.
"""

import pytest

from pultr import _fallback
from pultr.engine import kernel_args
from pultr.graphs import Digraph, cycle_graph, complete_graph, enumerate_graphs
from pultr.adjoints import omega_odd_path

from conftest import random_digraph

speedups = pytest.importorskip("pultr._speedups")


def both(g, h, mode, budget=10**9, limit=-1):
    a = speedups.solve(*kernel_args(g, h, mode, budget=budget, limit=limit))
    b = _fallback.solve(*kernel_args(g, h, mode, budget=budget, limit=limit))
    return a, b


def test_parity_exhaustive_order2():
    universe = list(
        enumerate_graphs(2, directed=True, loops=True, all_orders=True)
    )
    for g in universe:
        for h in universe:
            for mode in (0, 1, 2):
                a, b = both(g, h, mode)
                assert a == b


def test_parity_random(rng):
    for _ in range(300):
        g = random_digraph(rng, rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]))
        h = random_digraph(rng, rng.randint(0, 6), rng.choice([0.2, 0.5, 0.8]))
        for mode in (0, 1, 2):
            a, b = both(g, h, mode)
            assert a == b, (g, h, mode)


def test_parity_budget_cutoff(rng):
    # identical decision counting implies identical budget behaviour
    g = cycle_graph(9)
    h = cycle_graph(7)
    for budget in (1, 3, 10, 50, 1000):
        a, b = both(g, h, 0, budget=budget)
        assert a == b


def test_parity_large_domain():
    om = omega_odd_path(5, cycle_graph(5))  # 210 vertices, multi-word masks
    for g in list(enumerate_graphs(3, directed=False, loops=True))[:40]:
        a, b = both(g, om, 0)
        assert a == b


def test_parity_enumeration_limit():
    g, h = complete_graph(2), complete_graph(4)
    for limit in (0, 1, 5, -1):
        a, b = both(g, h, 2, limit=limit)
        assert a == b
