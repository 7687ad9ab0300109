import math
from itertools import combinations, permutations

import pytest

from pultr.errors import ParameterError, SizeGuardError
from pultr.graphs import (
    Digraph,
    Graph,
    as_graph,
    canonical_form,
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_cycle,
    directed_path,
    dominated_reduction,
    enumerate_graphs,
    exponential_graph,
    is_connected,
    is_oriented_tree,
    kneser_pairs,
    lexicographic_product,
    odd_girth,
    orient_edges,
    orientations,
    oriented_path,
    path_graph,
    standard_family,
    symmetrization,
    tensor_product,
    transitive_tournament,
)
from pultr import engine, limits

from conftest import random_digraph, random_graph


def test_digraph_basics():
    d = Digraph(3, [(0, 1), (0, 1), (2, 2)])
    assert d.arc_count == 2  # duplicates collapse
    assert d.has_arc(0, 1) and not d.has_arc(1, 0)
    assert d.loop_mask == 0b100
    assert list(d.arcs()) == [(0, 1), (2, 2)]
    with pytest.raises(ParameterError):
        Digraph(2, [(0, 5)])


def test_graph_symmetry_and_edges():
    g = Graph(4, [(0, 1), (2, 2)])
    assert g.is_symmetric
    assert sorted(g.edges()) == [(0, 1), (2, 2)]
    assert g.arc_count == 3  # loop is a single arc
    with pytest.raises(ParameterError):
        as_graph(Digraph(2, [(0, 1)]))


def test_relabel_and_equality():
    g = cycle_graph(5)
    h = g.relabel([1, 2, 3, 4, 0])
    assert g == h  # cycles are invariant under rotation
    assert isinstance(h, Graph)
    assert hash(g) == hash(h)


def test_circular_complete_is_odd_cycle():
    # K_{5/2} has the adjacency u-v in {2,3} mod 5, which is C_5 relabelled
    assert engine.isomorphic(circular_complete(5, 2), cycle_graph(5))
    for m in (1, 2, 3, 4):
        assert engine.isomorphic(
            circular_complete(2 * m + 1, m), cycle_graph(2 * m + 1)
        )
    with pytest.raises(ParameterError):
        circular_complete(3, 2)  # 2m > n
    with pytest.raises(ParameterError):
        circular_complete(6, 2)  # not reduced


def test_kneser_pairs_matches_brute_force():
    # independent oracle: all 2-subsets of a 4-set, adjacent iff disjoint
    pairs = list(combinations(range(4), 2))
    edges = set()
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i < j and not set(a) & set(b):
                edges.add((i, j))
    got = kneser_pairs(4)
    assert got.n == 6
    assert set(got.edges()) == edges
    assert got.edge_count == 3  # a perfect matching


def test_trivial_families():
    assert transitive_tournament(1).arc_count == 0
    assert directed_path(0).n == 1
    assert standard_family("K5/2") == circular_complete(5, 2)
    assert standard_family("dP3") == directed_path(3)
    assert standard_family("o101") == oriented_path("101")
    with pytest.raises(ParameterError):
        standard_family("Z9")


def test_tensor_product_rule_brute_force():
    k2 = complete_graph(2)
    t = tensor_product(k2, k2)
    # oracle: enumerate the 4x4 adjacency rule directly
    expect = set()
    for u in range(2):
        for v in range(2):
            for x in range(2):
                for y in range(2):
                    if u != v and x != y:
                        expect.add((u * 2 + x, v * 2 + y))
    assert set(t.arcs()) == expect
    assert isinstance(t, Graph)
    # two disjoint edges
    assert t.arc_count == 4 and odd_girth(t) == math.inf


def test_tensor_commutes_by_coordinate_swap():
    g = cycle_graph(5)
    h = path_graph(2)
    gh = tensor_product(g, h)
    hg = tensor_product(h, g)
    swap = [0] * (g.n * h.n)
    for u in range(g.n):
        for x in range(h.n):
            swap[u * h.n + x] = x * g.n + u
    assert gh.relabel(swap) == hg


def test_product_dispatcher():
    from pultr.graphs import product

    k2 = complete_graph(2)
    assert product("tensor", k2, k2) == tensor_product(k2, k2)
    assert product("lexicographic", cycle_graph(5), k2) == lexicographic_product(
        cycle_graph(5), k2
    )
    with pytest.raises(ParameterError):
        product("cartesian", k2, k2)


def test_tensor_unit_is_looped_vertex():
    unit = Digraph(1, [(0, 0)])
    g = directed_cycle(4)
    assert tensor_product(g, unit) == g


def test_lexicographic_product():
    c5k2 = lexicographic_product(cycle_graph(5), complete_graph(2))
    assert c5k2.n == 10
    # each vertex pairs with its twin plus both neighbouring blocks
    assert all(c5k2.out_masks[v].bit_count() == 5 for v in range(10))
    with pytest.raises(ParameterError):
        lexicographic_product(cycle_graph(5), directed_path(1))


def test_exponential_graph_rule():
    k3, k2 = complete_graph(3), complete_graph(2)
    # exponentiating by the looped vertex (the tensor unit) returns the base
    unit = Graph(1, [(0, 0)])
    assert engine.isomorphic(exponential_graph(k2, unit), k2)
    # by the loop-free single vertex the edge condition is vacuous, giving
    # the absorbing complete-with-loops graph (G x K_1 is edgeless, so it
    # maps anywhere; the adjunction forces every G to map into K^{K_1})
    e1 = exponential_graph(k2, complete_graph(1))
    assert e1.n == 2 and e1.arc_count == 4
    e = exponential_graph(k3, k2)
    assert e.n == 9
    # oracle: check the rule over all 81 ordered pairs of maps
    maps = [(a, b) for a in range(3) for b in range(3)]
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            expect = f[0] != g[1] and f[1] != g[0]
            assert e.has_arc(i, j) == expect
    # loop at f iff f is a homomorphism K_2 -> K_3
    for i, f in enumerate(maps):
        assert e.has_arc(i, i) == (f[0] != f[1])
    # K_2^{K_3} has no loops since K_3 is not 2-colourable
    assert not exponential_graph(k2, complete_graph(3)).has_loop()


def test_symmetrization_idempotent():
    d = transitive_tournament(4)
    s = symmetrization(d)
    assert s == complete_graph(4)
    assert symmetrization(s) == s
    assert engine.isomorphic(symmetrization(directed_path(2)), path_graph(2))
    assert symmetrization(directed_cycle(3)) == cycle_graph(3)


def test_orientations_count_and_streaming():
    c3 = cycle_graph(3)
    all_orients = list(orientations(c3))
    assert len(all_orients) == 8
    cyclic = [d for d in all_orients if all(m.bit_count() == 1 for m in d.out_masks)]
    assert len(cyclic) == 2
    assert len(list(orientations(complete_graph(2)))) == 2
    assert len(list(orientations(complete_graph(1)))) == 1
    with pytest.raises(ParameterError):
        next(orientations(Graph(1, [(0, 0)])))


def test_orient_edges_spec_length():
    g = cycle_graph(3)
    d = orient_edges(g, "110")
    assert d.arc_count == 3
    with pytest.raises(ParameterError):
        orient_edges(g, "1")


def test_odd_girth():
    assert odd_girth(cycle_graph(5)) == 5
    assert odd_girth(kneser_pairs(4)) == math.inf
    assert odd_girth(complete_graph(4)) == 3
    assert odd_girth(Graph(2, [(0, 0)])) == 1
    assert odd_girth(path_graph(6)) == math.inf


def test_odd_girth_iff_bipartite_cross_module(rng):
    k2 = complete_graph(2)
    for g in enumerate_graphs(4, directed=False, loops=False, all_orders=True):
        assert (odd_girth(g) == math.inf) == (
            engine.hom_exists(g, k2) is not None
        )
    for _ in range(25):
        g = random_graph(rng, 7, 0.4)
        assert (odd_girth(g) == math.inf) == (
            engine.hom_exists(g, k2) is not None
        )


def test_enumerate_graphs_counts():
    assert sum(1 for _ in enumerate_graphs(1, directed=True, loops=True)) == 2
    assert sum(1 for _ in enumerate_graphs(2, directed=False, loops=False)) == 2
    n3 = list(enumerate_graphs(3, directed=True, loops=False, up_to_iso=True))
    assert len(n3) == 16
    # oracle for the count: quotient the 2^6 labelled digraphs by S_3
    labelled = list(enumerate_graphs(3, directed=True, loops=False))
    assert len(labelled) == 64
    classes = set()
    for g in labelled:
        best = min(
            tuple(g.relabel(list(p)).out_masks)
            for p in permutations(range(3))
        )
        classes.add(best)
    assert len(classes) == 16
    with pytest.raises(ParameterError):
        next(enumerate_graphs(9, directed=True))


def test_enumerate_invariants():
    for g in enumerate_graphs(3, directed=False, loops=True, all_orders=True):
        assert isinstance(g, Graph) and g.is_symmetric
        for u, v in g.arcs():
            assert 0 <= u < g.n and 0 <= v < g.n


def test_canonical_form_is_invariant(rng):
    for _ in range(20):
        d = random_digraph(rng, 5, 0.3)
        perm = list(range(5))
        rng.shuffle(perm)
        assert canonical_form(d) == canonical_form(d.relabel(perm))


def test_connectivity_and_trees():
    assert is_connected(cycle_graph(4))
    assert not is_connected(Graph(2))
    assert is_oriented_tree(directed_path(3))
    assert is_oriented_tree(oriented_path("101"))
    assert not is_oriented_tree(directed_cycle(3))
    assert not is_oriented_tree(Digraph(2, [(0, 1), (1, 0)]))


def test_dominated_reduction_keeps_hom_class(rng):
    for _ in range(20):
        g = random_graph(rng, 6, 0.4, loops=False)
        r = dominated_reduction(g)
        assert r.n <= g.n
        assert engine.hom_equivalent(g, r)
    # a star reduces to a single edge
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert dominated_reduction(star).n == 2


def test_size_guard():
    with limits.scope(size_guard=10):
        with pytest.raises(SizeGuardError):
            exponential_graph(complete_graph(3), complete_graph(3))
    # guard restored afterwards
    assert limits.size_guard() == limits.DEFAULT_SIZE_GUARD
