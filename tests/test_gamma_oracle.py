"""Gamma_T(K) against the construction it replaced, kept here as the
oracle: one pinned existence search for Q -> K per ordered pair of maps
P -> K.  P = K_1 with a forest Q is settled by semijoin passes, which
call no kernel; any other template lists hom(Q, K) once, after counting
it, and never asks the kernel whether a map exists."""

import pytest

from pultr import engine, limits
from pultr.errors import SizeGuardError
from pultr.functors import (
    PultrTemplate,
    builtin_template,
    gamma_functor,
    path_template,
    shift_template,
)
from pultr.graphs import (
    Digraph,
    as_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
)

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
    (PultrTemplate("empty-p", Digraph(0), directed_path(1), (), ()), ORDER_3),
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


def _k1(t):
    return t.p.n == 1 and not t.p.arc_count


def _counts_or_lists(mode):
    return mode in (engine.MODE_COUNT, engine.MODE_ENUM)


@pytest.mark.parametrize(
    "t, universe", FOREST, ids=[t.name for t, _ in FOREST]
)
def test_forest_gamma_matches_pinned_search(monkeypatch, t, universe):
    # P = K_1 reaches no kernel; any other P only counts and lists maps.
    got, _ = _gammas_counting_kernel_calls(
        monkeypatch,
        t,
        universe,
        lambda mode: not _k1(t) and _counts_or_lists(mode),
    )
    _assert_matches_oracle(t, universe, got)


@pytest.mark.parametrize(
    "t, universe", NOT_FOREST, ids=[t.name for t, _ in NOT_FOREST]
)
def test_other_gamma_matches_pinned_search(monkeypatch, t, universe):
    got, calls = _gammas_counting_kernel_calls(
        monkeypatch, t, universe, _counts_or_lists
    )
    assert engine.MODE_ENUM in calls
    _assert_matches_oracle(t, universe, got)


def test_projection_makes_two_kernel_calls(monkeypatch):
    # P has no arcs, so one count and one listing of hom(Q, K) build Gamma;
    # one pinned search per ordered pair of the 343 maps took 117 649.
    t, c7 = builtin_template("tensor-c3"), cycle_graph(7)
    got, calls = _gammas_counting_kernel_calls(monkeypatch, t, [c7], _counts_or_lists)
    assert calls == [engine.MODE_COUNT, engine.MODE_ENUM]
    _assert_matches_oracle(t, [c7], got)


def test_projection_checks_its_size_before_listing_maps(monkeypatch):
    t, c7 = builtin_template("tensor-c3"), cycle_graph(7)
    bound = c7.n ** t.p.n + engine.hom_count(t.q, c7)
    with limits.scope(size_guard=bound):
        assert gamma_functor(t, c7).n == c7.n ** t.p.n
    listed = []
    monkeypatch.setattr(engine, "hom_enumerate", lambda *a: listed.append(a))
    with limits.scope(size_guard=bound - 1), pytest.raises(SizeGuardError):
        gamma_functor(t, c7)
    assert listed == []
