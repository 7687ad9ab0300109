import gc
import random
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pultr import _fallback, chromatic, engine, limits, suites
from pultr.chromatic import chromatic_number
from pultr.engine import compose, verify_witness
from pultr.errors import BudgetExceededError, ParameterError
from pultr.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
    kneser_pairs,
    orient_edges,
    oriented_path,
    path_graph,
    transitive_tournament,
)

from conftest import orbit_key, random_digraph


def brute_hom_exists(g, h):
    """Independent oracle: try all |V(H)|^|V(G)| maps."""
    if g.n == 0:
        return True
    if h.n == 0:
        return False
    total = h.n**g.n
    for code in range(total):
        x = code
        mapping = []
        for _ in range(g.n):
            mapping.append(x % h.n)
            x //= h.n
        if all(h.has_arc(mapping[u], mapping[v]) for u, v in g.arcs()):
            return True
    return False


def brute_hom_count(g, h):
    if g.n == 0:
        return 1
    count = 0
    for code in range(h.n**g.n):
        x = code
        mapping = []
        for _ in range(g.n):
            mapping.append(x % h.n)
            x //= h.n
        if all(h.has_arc(mapping[u], mapping[v]) for u, v in g.arcs()):
            count += 1
    return count


def test_c5_to_k3_matches_exhaustive():
    c5, k3 = cycle_graph(5), complete_graph(3)
    assert brute_hom_exists(c5, k3)
    w = engine.hom_exists(c5, k3)
    assert w is not None and verify_witness(c5, k3, w.mapping)


def test_invalid_witness_is_rejected(monkeypatch):
    """A kernel that returns a non-homomorphism is caught by the
    independent re-check on every path that hands out witnesses."""
    c5, k3 = cycle_graph(5), complete_graph(3)
    solve = engine._kernel.solve
    corrupted = []

    def corrupt(mapping):
        bad = list(mapping)
        bad[0] = bad[1]  # 0 and 1 are adjacent in C5; K3 has no loops
        corrupted.append(tuple(bad))
        return tuple(bad)

    def faulty_solve(*args):
        status, payload, decisions = solve(*args)
        if args[6] == engine.MODE_ENUM:
            payload = [corrupt(payload[0])] + payload[1:]
        else:
            payload = corrupt(payload)
        return status, payload, decisions

    monkeypatch.setattr(engine._kernel, "solve", faulty_solve)
    with pytest.raises(RuntimeError):
        engine.hom_exists(c5, k3)
    with pytest.raises(RuntimeError):
        engine.hom_exists_pinned(c5, k3, {0: 0})
    with pytest.raises(RuntimeError):
        engine.hom_enumerate(c5, k3)
    assert len(corrupted) == 3
    assert not any(verify_witness(c5, k3, m) for m in corrupted)

    # The forest walk has the same check: misled by in-rows that claim
    # every arc, it picks 0 -> 2, which h lacks.
    p2, h = directed_path(2), Digraph(4, [(1, 2), (2, 3)])
    plan = engine._forest_plan(p2, 2)
    assert engine._forest_walk(p2, plan, h) == (1, 2, 3)
    h.in_masks = (0b1111,) * 4
    with pytest.raises(RuntimeError, match=r"invalid map \[0, 2, 3\]"):
        engine._forest_walk(p2, plan, h)

    # The loop shortcut checks its constant witness on the raw row of h:
    # a cached loop mask that names a loop-free vertex is caught.
    h = Digraph(3, [(0, 1), (2, 2)])
    h.loop_mask = 0b001
    with pytest.raises(RuntimeError):
        engine.hom_exists(c5, h)


def _witness_by_arcs(g, h, mapping):
    """The definition, arc by arc, with the same length and range
    checks as verify_witness."""
    if len(mapping) != g.n or any(not 0 <= x < h.n for x in mapping):
        return False
    return all(h.has_arc(mapping[u], mapping[v]) for u, v in g.arcs())


@st.composite
def _witness_cases(draw):
    def digraph(density):
        n = draw(st.integers(0, 5))
        arc = st.sampled_from(density)
        return Digraph(
            n, [(u, v) for u in range(n) for v in range(n) if draw(arc)]
        )

    # A sparse g and a dense h, so that true cases are common; some maps
    # have a wrong length or an image out of range.
    g, h = digraph([False, False, True]), digraph([False, True, True])
    length = draw(st.sampled_from([g.n] * 6 + [g.n + 1, max(g.n - 1, 0)]))
    images = st.integers(0, h.n - 1) if h.n else st.integers(-1, 1)
    mapping = draw(st.lists(images, min_size=length, max_size=length))
    wrong = draw(st.sampled_from([None] * 6 + [-1, h.n]))
    if mapping and wrong is not None:
        mapping[draw(st.integers(0, length - 1))] = wrong
    return g, h, tuple(mapping)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_witness_cases())
def test_verify_witness_matches_arc_definition(case):
    g, h, mapping = case
    assert verify_witness(g, h, mapping) == _witness_by_arcs(g, h, mapping)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_witness_cases(), st.booleans())
def test_verify_witness_reads_only_out_rows(case, claim_all):
    """The check reads no cached arc tuple, in-row or loop mask, which a
    searcher consumes: corrupted to claim no arc or every arc, they
    leave its answer the definition's."""
    g, h, mapping = case
    want = _witness_by_arcs(g, h, mapping)
    for d in (g, h):
        full = (1 << d.n) - 1 if claim_all else 0
        arcs = tuple((u, v) for u in range(d.n) for v in range(d.n) if claim_all)
        d.in_masks = (full,) * d.n
        d.loop_mask = full
        d.arc_list = arcs
        d.loop_free_arcs = tuple((u, v) for u, v in arcs if u != v)
    assert verify_witness(g, h, mapping) == want


def test_loop_rules_agree_with_the_search():
    """The loop shortcut and the loop refutation of hom_exists give the
    answer of the search without them, on every digraph g of order <= 3
    and every digraph h of order <= 2."""
    empty = Digraph(0)
    sources = [empty, *enumerate_graphs(3, directed=True, all_orders=True)]
    targets = [empty, *enumerate_graphs(2, directed=True, all_orders=True)]
    for g in sources:
        for h in targets:
            assert (engine.hom_exists(g, h) is None) == (
                engine.hom_exists_pinned(g, h, {}) is None
            ), (g, h)


def test_hom_exists_has_one_searcher(monkeypatch):
    """Past the loop rules, every hom_exists call is one kernel call: on
    every pair of loop-free digraphs of order 1-3 it calls the kernel
    exactly once, so no second searcher answers in its place."""
    solve = engine._kernel.solve
    calls = []
    monkeypatch.setattr(
        engine._kernel, "solve", lambda *args: calls.append(args) or solve(*args)
    )
    graphs = list(enumerate_graphs(3, directed=True, loops=False, all_orders=True))
    assert len(graphs) == 69
    for g in graphs:
        for h in graphs:
            before = len(calls)
            engine.hom_exists(g, h)
            assert len(calls) == before + 1, (g, h)


def test_forest_with_antiparallel_pair_gets_the_kernel_witness(monkeypatch):
    # The kernel propagates along 1 -> 2 and 2 -> 1 one at a time; the
    # semijoin passes, with the pair merged, would give (2, 0, 2).
    g = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    h = Digraph(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
    assert engine._forest_plan(g, 0) is not None
    solve = engine._kernel.solve
    calls = []
    monkeypatch.setattr(
        engine._kernel, "solve", lambda *args: calls.append(args) or solve(*args)
    )
    assert engine.hom_exists(g, h).mapping == (0, 2, 0)
    assert len(calls) == 1


def _is_oriented_forest(g):
    """For a loop-free g: no antiparallel pair, and no arc that joins two
    vertices already connected, checked by union-find."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    if len({frozenset(arc) for arc in g.arcs()}) != g.arc_count:
        return False
    for u, v in g.arcs():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_forest_walk_agrees_with_the_search():
    """The forest walk finds a map exactly when hom_exists does, from
    every root, and every map it returns verifies: the 22 isomorphism
    classes of oriented forests on 1-4 vertices into every digraph with
    loops on at most 3 vertices."""
    loop_free = dict(directed=True, loops=False)
    forests = {}
    for f in enumerate_graphs(4, all_orders=True, **loop_free):
        if _is_oriented_forest(f):
            forests.setdefault(orbit_key(f, **loop_free), f)
    forests = list(forests.values())
    targets = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
    assert len(forests) * len(targets) == 22 * 530 == 11660
    # two components, both with an arc; a vertex of degree 3
    two_arcs = Digraph(4, [(0, 1), (2, 3)])
    assert any(engine.isomorphic(f, two_arcs) for f in forests)
    assert any(
        (f.out_masks[u] | f.in_masks[u]).bit_count() == 3
        for f in forests
        for u in range(f.n)
    )
    for f in forests:
        plans = [engine._forest_plan(f, root) for root in range(f.n)]
        for d in targets:
            want = engine.hom_exists(f, d) is not None
            for plan in plans:
                mapping = engine._forest_walk(f, plan, d)
                assert (mapping is not None) == want, (f, d, plan)
                assert mapping is None or verify_witness(f, d, mapping)


def test_oriented_path_budget_cutoffs():
    g = oriented_path("10110")
    h = orient_edges(complete_graph(4), "101010")
    assert _fallback.solve(*engine.kernel_args(g, h, engine.MODE_EXISTS)) == (
        0,
        (0, 1, 0, 1, 3, 0),
        5,
    )
    for budget in range(5):
        with limits.scope(budget=budget):
            args = engine.kernel_args(g, h, engine.MODE_EXISTS)
            status, _, decisions = _fallback.solve(*args)
            with pytest.raises(BudgetExceededError) as e:
                engine.hom_exists(g, h)
        assert status == 1
        assert e.value.decisions == decisions == budget + 1
    with limits.scope(budget=5):
        assert engine.hom_exists(g, h).mapping == (0, 1, 0, 1, 3, 0)


def test_pins_out_of_range_are_rejected():
    c5, k3 = cycle_graph(5), complete_graph(3)
    assert engine.hom_exists_pinned(c5, k3, {4: 2}) is not None
    for pins in ({0: 3}, {5: 0}, {-1: 0}):
        with pytest.raises(ParameterError):
            engine.hom_exists_pinned(c5, k3, pins)


def test_odd_cycle_to_bipartite_fails():
    assert engine.hom_exists(complete_graph(3), complete_graph(2)) is None


def test_looped_target_shortcut():
    h = Digraph(3, [(2, 2)])
    g = complete_graph(4)
    w = engine.hom_exists(g, h)
    assert w is not None and set(w.mapping) == {2}


def test_empty_cases():
    empty = Digraph(0)
    assert engine.hom_exists(empty, complete_graph(3)).mapping == ()
    assert engine.hom_count(empty, complete_graph(3)) == 1
    assert engine.hom_exists(complete_graph(1), Digraph(0)) is None
    assert engine.hom_count(complete_graph(1), Digraph(0)) == 0


def test_hom_count_examples():
    k3 = complete_graph(3)
    assert engine.hom_count(path_graph(3), k3) == 24
    assert engine.hom_count(complete_graph(1), k3) == 3
    assert engine.hom_count(complete_graph(2), complete_graph(4)) == 12


def test_count_matches_exists_small_exhaustive():
    universe = list(
        enumerate_graphs(2, directed=True, loops=True, all_orders=True)
    )
    for g in universe:
        for h in universe:
            count = engine.hom_count(g, h)
            assert brute_hom_count(g, h) == count
            assert (count > 0) == (
                engine.hom_exists_pinned(g, h, {}) is not None
            )


def test_count_and_enumeration_decision_counts():
    # Counting and enumeration share one DFS; its payloads and decision
    # counts are part of the behaviour contract, pinned here.
    k2, k4 = complete_graph(2), complete_graph(4)
    cases = [
        (path_graph(3), complete_graph(3), engine.MODE_COUNT, 24, 45),
        (cycle_graph(7), cycle_graph(5), engine.MODE_COUNT, 70, 385),
        (
            transitive_tournament(3),
            transitive_tournament(4),
            engine.MODE_COUNT,
            4,
            14,
        ),
        (
            cycle_graph(6),
            k2,
            engine.MODE_ENUM,
            [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)],
            12,
        ),
        (
            k2,
            k4,
            engine.MODE_ENUM,
            [(u, v) for u in range(4) for v in range(4) if u != v],
            16,
        ),
    ]
    for g, h, mode, payload, decisions in cases:
        args = engine.kernel_args(g, h, mode)
        assert _fallback.solve(*args) == (0, payload, decisions)


def test_count_matches_exists_all_graph_pairs_order4():
    # exhaustive cross-check over all labelled loop-free graph pairs up
    # to order 4 (75 x 75)
    universe = list(
        enumerate_graphs(4, directed=False, loops=False, all_orders=True)
    )
    for g in universe:
        for h in universe:
            count = engine.hom_count(g, h)
            assert (count > 0) == (engine.hom_exists(g, h) is not None)


def test_count_matches_exists_random(rng):
    for _ in range(150):
        g = random_digraph(rng, rng.randint(1, 4), 0.4)
        h = random_digraph(rng, rng.randint(1, 4), 0.5)
        count = engine.hom_count(g, h)
        assert count == brute_hom_count(g, h)
        assert (count > 0) == (engine.hom_exists(g, h) is not None)


def test_enumerate_is_lexicographic_and_complete():
    g, h = complete_graph(2), complete_graph(3)
    ws = engine.hom_enumerate(g, h)
    maps = [w.mapping for w in ws]
    assert maps == sorted(maps)
    assert len(maps) == 6


def test_witness_composition(rng):
    g, h, k = cycle_graph(6), complete_graph(2), complete_graph(3)
    w1 = engine.hom_exists(g, h)
    w2 = engine.hom_exists(h, k)
    w = compose(w1, w2)
    assert verify_witness(g, k, w.mapping)
    with pytest.raises(ParameterError):
        compose(w2, w1)


def test_iso_invariance_of_hom_exists(rng):
    for _ in range(40):
        g = random_digraph(rng, 4, 0.4)
        h = random_digraph(rng, 4, 0.4)
        base = engine.hom_exists(g, h) is not None
        perm_g = list(range(4))
        perm_h = list(range(4))
        rng.shuffle(perm_g)
        rng.shuffle(perm_h)
        assert (
            engine.hom_exists(g.relabel(perm_g), h.relabel(perm_h))
            is not None
        ) == base


def test_hom_equivalent():
    assert engine.hom_equivalent(kneser_pairs(4), complete_graph(2))
    assert not engine.hom_equivalent(cycle_graph(5), cycle_graph(3))
    g = cycle_graph(7)
    assert engine.hom_equivalent(g, g)


def test_budget_is_error_not_guess():
    g = cycle_graph(9)
    h = kneser_pairs(5)  # Petersen graph, forces real search
    with limits.scope(budget=1), pytest.raises(BudgetExceededError):
        engine.hom_exists(g, h)
    with limits.scope(budget=5), pytest.raises(BudgetExceededError):
        engine.hom_count(g, complete_graph(3))


def test_isomorphic():
    assert engine.isomorphic(cycle_graph(5), cycle_graph(5).relabel([3, 1, 4, 0, 2]))
    assert not engine.isomorphic(complete_graph(3), path_graph(2))
    assert not engine.isomorphic(cycle_graph(6), Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    assert engine.isomorphic(Digraph(0), Digraph(0))
    with pytest.raises(ParameterError):
        engine.isomorphic(complete_graph(13), complete_graph(13))


def test_isomorphic_random_relabels(rng):
    for _ in range(30):
        d = random_digraph(rng, 6, 0.3)
        perm = list(range(6))
        rng.shuffle(perm)
        assert engine.isomorphic(d, d.relabel(perm))


def test_isomorphic_detects_non_iso():
    # same degree sequences, different structure: C_6 vs two triangles
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not engine.isomorphic(cycle_graph(6), two_triangles)
    # directed: a 2-out star vs a directed path piece
    a = Digraph(3, [(0, 1), (0, 2)])
    b = Digraph(3, [(0, 1), (1, 2)])
    assert not engine.isomorphic(a, b)


def test_isomorphic_separates_the_classes_of_order_4(rng):
    # The class leaders of loop-free digraphs on 4 vertices are pairwise
    # non-isomorphic.  Within each group with the same degree pairs, a
    # relabelled leader is isomorphic to its own leader only.
    groups = {}
    for d in enumerate_graphs(4, directed=True, loops=False, up_to_iso=True):
        key = sorted((d.out_masks[u].bit_count(), d.in_masks[u].bit_count()) for u in range(4))
        groups.setdefault(tuple(key), []).append(d)
    assert sum(map(len, groups.values())) == 218
    for group in groups.values():
        for a in group:
            moved = a.relabel(rng.sample(range(4), 4))
            assert [engine.isomorphic(moved, b) for b in group] == [b is a for b in group]


def test_oriented_tree_counts():
    # Attach an out-leaf or an in-leaf to every vertex of every tree one
    # order lower, and keep one tree per isomorphism class, deduplicated
    # within buckets of equal degree pairs: OEIS A000238.
    level = [Digraph(1)]
    counts = [1]
    for n in range(2, 8):
        buckets = {}
        for t in level:
            for v in range(t.n):
                for arc in ((v, t.n), (t.n, v)):
                    c = Digraph(n, [*t.arcs(), arc])
                    key = tuple(sorted(zip(map(int.bit_count, c.out_masks), map(int.bit_count, c.in_masks))))
                    bucket = buckets.setdefault(key, [])
                    if not any(engine.isomorphic(c, d) for d in bucket):
                        bucket.append(c)
        level = [t for bucket in buckets.values() for t in bucket]
        counts.append(len(level))
    assert counts == [1, 1, 3, 8, 27, 91, 350]


def test_deep_searches_never_set_the_recursion_limit(monkeypatch):
    # The kernel's searches and DSATUR keep their branches on explicit
    # stacks, so no depth needs the process-wide recursion limit raised,
    # and every search deeper than Python's default limit leaves it as
    # it was.
    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    limit = sys.getrecursionlimit()
    assert engine.hom_count(path_graph(8000), complete_graph(2)) == 2
    maps = engine.hom_enumerate(path_graph(2999), complete_graph(2))
    assert [w.mapping for w in maps] == [
        tuple(i % 2 for i in range(3000)),
        tuple(1 - i % 2 for i in range(3000)),
    ]
    # 1 100 isolated vertices: the existence search branches once on each
    w = engine.hom_exists(Digraph(1100), complete_graph(2))
    assert w.mapping == (0,) * 1100
    assert chromatic_number(path_graph(1499)) == 2
    assert sys.getrecursionlimit() == limit


def test_searches_leave_no_cyclic_garbage():
    # Every search frees what it built by reference counting alone, so a
    # call leaves nothing for the cyclic collector.
    c5, c7, k2, k3 = cycle_graph(5), cycle_graph(7), complete_graph(2), complete_graph(3)
    calls = [
        lambda: engine.hom_exists(c7, k3),
        lambda: engine.hom_exists(c5, k2),
        lambda: engine.hom_exists(directed_path(3), transitive_tournament(3)),
        lambda: engine.hom_count(path_graph(8), k3),
        lambda: engine.hom_enumerate(c5, k3),
        lambda: chromatic.k_colourable(c7, 3),
        lambda: chromatic.k_colourable(c7, 2),
        lambda: chromatic.chromatic_number(kneser_pairs(7)),
        lambda: engine.isomorphic(cycle_graph(6), cycle_graph(6)),
        lambda: suites.run_suite("shift").verdict_line(),
    ]
    results = [call() for call in calls]
    gc.collect()
    gc.disable()
    try:
        for call, result in zip(calls, results):
            assert call() == result
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_multiplicativity_trivial_target():
    # K_1 without loop: anything with an edge fails to map, and products
    # of such graphs keep an edge
    assert engine.multiplicativity_search(complete_graph(1), 2) is None


def test_multiplicativity_finds_refutation_when_planted():
    # K_1 plus an isolated looped vertex would absorb products while
    # rejecting nothing; instead use the known non-multiplicative K_4exp:
    # a small sanity refutation target: the 2-vertex graph with one loop
    # absorbs everything, so no pair qualifies as a counterexample
    target = Graph(2, [(0, 0)])
    assert engine.multiplicativity_search(target, 2) is None


def _labelled_multiplicativity_hits(k, nmax):
    """Every hit of the labelled scan that multiplicativity_search
    replaces: the pairs (G, H) of loop-free graphs on up to nmax
    vertices, unordered and in enumeration order, with G -/-> k,
    H -/-> k and G x H -> k."""
    hard = [
        g
        for g in enumerate_graphs(nmax, directed=False, loops=False, all_orders=True)
        if engine.hom_exists(g, k) is None
    ]
    return [
        (g, h)
        for g, h in combinations_with_replacement(hard, 2)
        if engine.hom_exists(engine.tensor_product(g, h), k) is not None
    ]


@pytest.mark.parametrize("seed", range(6))
def test_multiplicativity_class_scan_matches_labelled_scan(monkeypatch, seed):
    # The real product gives no hit at these orders, so a seeded wrong
    # product that is invariant under relabelling G and H stands in: K_1,
    # which maps into every k, when the arc counts sum to a seeded residue.
    # k = K_2 only: on up to 4 vertices the graphs that do not map into
    # C_5 or C_7 are the same as for K_2, those with a triangle.
    rng = random.Random(seed)
    modulus = rng.randint(2, 7)
    residue = rng.randrange(modulus)
    product = engine.tensor_product

    def wrong_product(g, h):
        if (g.arc_count + h.arc_count) % modulus == residue:
            return complete_graph(1)
        return product(g, h)

    monkeypatch.setattr(engine, "tensor_product", wrong_product)
    k = complete_graph(2)
    hits = _labelled_multiplicativity_hits(k, 4)
    assert hits, (modulus, residue)
    assert engine.multiplicativity_search(k, 4) == hits[0]


def test_multiplicativity_budget_reports_progress():
    with limits.scope(budget=2), pytest.raises(BudgetExceededError) as e:
        engine.multiplicativity_search(cycle_graph(5), 4)
    assert e.value.progress is not None


def test_searcher_witnesses_always_verify(rng):
    for _ in range(60):
        g = random_digraph(rng, 4, 0.5)
        h = random_digraph(rng, 4, 0.5)
        w = engine.hom_exists(g, h)
        if w is not None:
            assert verify_witness(g, h, w.mapping)
