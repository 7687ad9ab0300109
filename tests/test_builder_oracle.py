"""The graph constructions against the arc-list and pairwise builds they
replaced, kept here as oracles: each oracle lists the arcs (or tests
every vertex pair) and hands them to the public constructors, where the
builders write each out-row directly.  Type, order and rows must agree."""

import math
from itertools import combinations, permutations, product

from pultr.adjoints import arc_graph
from pultr.bitset import iter_bits
from pultr.duality import shift_graph
from pultr.graphs import (
    Digraph,
    Graph,
    as_graph,
    circular_complete,
    complete_graph,
    enumerate_graphs,
    is_connected,
    is_oriented_tree,
    kneser_pairs,
    lexicographic_product,
    orient_edges,
    orientations,
    oriented_path,
    symmetrization,
    tensor_product,
    transitive_tournament,
)

DIGRAPHS_3 = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
DIGRAPHS_4 = list(enumerate_graphs(4, directed=True, loops=False))
GRAPHS_3 = list(enumerate_graphs(3, loops=True, all_orders=True))
GRAPHS_4 = list(enumerate_graphs(4, loops=True, all_orders=True))
LOOP_FREE_4 = list(enumerate_graphs(4, loops=False, all_orders=True))[::3]


def _rows(n, arcs):
    masks = [0] * n
    for u, v in arcs:
        masks[u] |= 1 << v
    return masks


def reverse_by_arcs(d):
    return Digraph(d.n, ((v, u) for u, v in d.arcs()))


def induced_by_arcs(d, verts):
    index = {v: i for i, v in enumerate(verts)}
    arcs = [
        (index[u], index[v])
        for u in verts
        for v in iter_bits(d.out_masks[u])
        if v in index
    ]
    return type(d)._from_masks(len(verts), _rows(len(verts), arcs))


def complete_by_pairs(n):
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def tournament_by_pairs(n):
    return Digraph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def circular_by_pairs(n, m):
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if m <= (v - u) % n <= n - m
        ],
    )


def kneser_by_pairs(n):
    pairs = list(combinations(range(n), 2))
    return Graph(
        len(pairs),
        [
            (i, j)
            for i, a in enumerate(pairs)
            for j, b in enumerate(pairs)
            if i < j and not (set(a) & set(b))
        ],
    )


def oriented_path_by_arcs(spec):
    arcs = [(i, i + 1) if b == "1" else (i + 1, i) for i, b in enumerate(spec)]
    return Digraph(len(spec) + 1, arcs)


def tensor_by_arcs(g, h):
    arcs = [(u * h.n + x, v * h.n + y) for u, v in g.arcs() for x, y in h.arcs()]
    cls = Graph if isinstance(g, Graph) and isinstance(h, Graph) else Digraph
    return cls._from_masks(g.n * h.n, _rows(g.n * h.n, arcs))


def lexicographic_by_arcs(g, h):
    g, h = as_graph(g), as_graph(h)
    arcs = [
        (u * h.n + x, v * h.n + y)
        for u, v in g.arcs()
        for x in range(h.n)
        for y in range(h.n)
    ]
    arcs += [(u * h.n + x, u * h.n + y) for u in range(g.n) for x, y in h.arcs()]
    return Graph._from_masks(g.n * h.n, _rows(g.n * h.n, arcs))


def orient_by_arcs(g, spec):
    edges = list(g.edges())
    arcs = [(u, v) if b == "1" else (v, u) for (u, v), b in zip(edges, spec)]
    return Digraph._from_masks(g.n, _rows(g.n, arcs))


def arc_graph_by_arcs(h):
    arcs_h = list(h.arc_list)
    index = {a: i for i, a in enumerate(arcs_h)}
    return Digraph(
        len(arcs_h),
        [(index[a], index[b]) for a in arcs_h for b in arcs_h if a[1] == b[0]],
    )


def shift_by_windows(n, k, directed):
    tuples = list(combinations(range(n), k))
    index = {t: i for i, t in enumerate(tuples)}
    d = Digraph(
        len(tuples),
        [(index[w[:-1]], index[w[1:]]) for w in combinations(range(n), k + 1)],
    )
    return d if directed else symmetrization(d)


def is_oriented_tree_by_arcs(d):
    if d.n == 0 or d.loop_mask or d.arc_count != d.n - 1:
        return False
    if any(d.has_arc(v, u) for u, v in d.arcs()):
        return False
    return is_connected(d)


def _same(got, want):
    assert type(got) is type(want)
    assert (got.n, got.out_masks) == (want.n, want.out_masks)


def _vertex_lists(n):
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            yield from permutations(subset)


def test_reverse_induced_and_arc_graph_match_arc_lists():
    for d in DIGRAPHS_3 + GRAPHS_3:
        _same(d.reverse(), reverse_by_arcs(d))
        _same(arc_graph(d), arc_graph_by_arcs(d))
        for verts in _vertex_lists(d.n):
            _same(d.induced(list(verts)), induced_by_arcs(d, verts))


def test_products_match_arc_lists():
    for g in GRAPHS_4[::7]:
        for h in GRAPHS_4[::41]:
            _same(tensor_product(g, h), tensor_by_arcs(g, h))
            _same(lexicographic_product(g, h), lexicographic_by_arcs(g, h))
    for g in DIGRAPHS_3[::11]:
        for h in DIGRAPHS_3[::17] + GRAPHS_3[::9]:
            _same(tensor_product(g, h), tensor_by_arcs(g, h))
            _same(tensor_product(h, g), tensor_by_arcs(h, g))


def test_families_match_pairwise():
    for n in range(80):
        _same(complete_graph(n), complete_by_pairs(n))
        if n:
            _same(transitive_tournament(n), tournament_by_pairs(n))
    for n in range(2, 30):
        for m in range(1, n // 2 + 1):
            if math.gcd(n, m) == 1:
                _same(circular_complete(n, m), circular_by_pairs(n, m))
    for n in range(2, 14):
        _same(kneser_pairs(n), kneser_by_pairs(n))
    for n in range(2, 10):
        for k in range(2, n + 1):
            for directed in (True, False):
                _same(shift_graph(n, k, directed), shift_by_windows(n, k, directed))


def test_orientations_match_arc_lists():
    for g in LOOP_FREE_4:
        e = g.edge_count
        # orientations counts s with bit i on edge i.
        by_counter = ["".join("01"[s >> i & 1] for i in range(e)) for s in range(1 << e)]
        for got, spec in zip(orientations(g), by_counter, strict=True):
            _same(got, orient_by_arcs(g, spec))
            _same(orient_edges(g, spec), orient_by_arcs(g, spec))
    for k in range(7):
        for bits in product("01", repeat=k):
            spec = "".join(bits)
            _same(oriented_path(spec), oriented_path_by_arcs(spec))


def test_counts_and_repr_match_arc_walks():
    for g in GRAPHS_4 + [complete_graph(6), circular_complete(7, 2)]:
        assert g.edge_count == sum(1 for _ in g.edges())
    for d in DIGRAPHS_4:
        assert is_oriented_tree(d) == is_oriented_tree_by_arcs(d)
    for d in DIGRAPHS_3 + GRAPHS_4[::5] + [complete_graph(5), transitive_tournament(6)]:
        assert is_oriented_tree(d) == is_oriented_tree_by_arcs(d)
        kind = "Graph" if isinstance(d, Graph) else "Digraph"
        arcs = list(d.arcs())
        want = (
            f"{kind}(n={d.n}, arcs={len(arcs)})"
            if len(arcs) > 12
            else f"{kind}({d.n}, {arcs})"
        )
        assert repr(d) == want
