"""Gamma_T(K) against the construction it replaced, kept here as the
oracle: one pinned existence search for Q -> K per ordered pair of maps
P -> K.  A forest Q is settled by semijoin passes, which call no kernel
beyond the enumeration of hom(P, K) when P has arcs; any other Q still
searches."""

import pytest

from pultr import engine
from pultr.functors import (
    builtin_template,
    gamma_functor,
    path_template,
    shift_template,
)
from pultr.graphs import Digraph, as_graph, enumerate_graphs

from conftest import oriented_path_template

ORDER_3 = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
ORDER_2 = list(enumerate_graphs(2, directed=True, loops=True, all_orders=True))

FOREST = [
    (builtin_template("t1"), ORDER_3),
    (builtin_template("t3"), ORDER_3),
    (builtin_template("t5"), ORDER_3),
    (path_template(7), ORDER_3),
    (builtin_template("arc-graph"), ORDER_3),
    (builtin_template("iota-1"), ORDER_3),
    (builtin_template("iota-2"), ORDER_3),
    (shift_template(3), ORDER_3),
    (oriented_path_template("1101"), ORDER_3),
    (oriented_path_template("0110"), ORDER_3),
    (builtin_template("iota-3"), ORDER_2),
]
NOT_FOREST = [
    (builtin_template("lex-k2"), ORDER_2),
    (builtin_template("tensor-c3"), ORDER_2),
]


def _gamma_by_pinned_search(t, k):
    gens = [w.mapping for w in engine.hom_enumerate(t.p, k)]
    arcs = []
    for i, g1 in enumerate(gens):
        for j, g2 in enumerate(gens):
            pins = {}
            consistent = all(
                pins.setdefault(qv, val) == val
                for qv, val in zip(t.eps1 + t.eps2, g1 + g2)
            )
            if consistent and engine.hom_exists_pinned(t.q, k, pins):
                arcs.append((i, j))
    out = Digraph(len(gens), arcs)
    return as_graph(out) if t.symmetry is not None and k.is_symmetric else out


def _gammas_counting_kernel_calls(monkeypatch, t, universe, allow):
    """gamma_functor over the universe, with a kernel that counts its
    calls and refuses any that `allow(mode)` rejects."""
    solve = engine._kernel.solve
    calls = []

    def counting_solve(*args):
        if not allow(args[6]):
            raise AssertionError(f"{t.name}: kernel called in mode {args[6]}")
        calls.append(args[6])
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(engine._kernel, "solve", counting_solve)
        return [gamma_functor(t, k) for k in universe], calls


def _assert_matches_oracle(t, universe, got):
    for k, out in zip(universe, got):
        want = _gamma_by_pinned_search(t, k)
        assert type(out) is type(want), (t.name, k)
        assert (out.n, out.out_masks) == (want.n, want.out_masks), (t.name, k)


@pytest.mark.parametrize(
    "t, universe", FOREST, ids=[t.name for t, _ in FOREST]
)
def test_forest_gamma_matches_pinned_search(monkeypatch, t, universe):
    # Only hom(P, K) may reach the kernel, and only when P has arcs.
    got, _ = _gammas_counting_kernel_calls(
        monkeypatch,
        t,
        universe,
        lambda mode: t.p.arc_count and mode == engine.MODE_ENUM,
    )
    _assert_matches_oracle(t, universe, got)


@pytest.mark.parametrize(
    "t, universe", NOT_FOREST, ids=[t.name for t, _ in NOT_FOREST]
)
def test_other_gamma_matches_pinned_search(monkeypatch, t, universe):
    got, calls = _gammas_counting_kernel_calls(
        monkeypatch, t, universe, lambda mode: True
    )
    assert engine.MODE_EXISTS in calls
    _assert_matches_oracle(t, universe, got)
