"""Lambda_T(G) against the construction it replaced, kept here as the
oracle: a union-find over tuple labels, (0, u, p) for vertex p of the
P-copy at u and (1, e, w) for vertex w of the Q-copy at edge or arc
number e, whose classes are renumbered by their least label."""

import pytest

from pultr.functors import (
    BUILTIN_TEMPLATE_NAMES,
    builtin_template,
    lambda_functor,
)
from pultr.graphs import Digraph, as_graph, enumerate_graphs

ORDER_2 = [
    g
    for directed in (False, True)
    for g in enumerate_graphs(2, directed=directed, loops=True, all_orders=True)
]
ORDER_3 = [
    g
    for directed in (False, True)
    for g in enumerate_graphs(3, directed=directed, loops=True)
]
NAMES = BUILTIN_TEMPLATE_NAMES + ("shift-2", "shift-3")
WITH_ORDER_3 = ("t3", "arc-graph", "iota-2")


def _lambda_by_labels(t, g):
    undirected = t.symmetry is not None and g.is_symmetric
    edges = list(as_graph(g).edges()) if undirected else list(g.arc_list)
    parent = {}
    for u in range(g.n):
        for a in range(t.p.n):
            parent[(0, u, a)] = (0, u, a)
    for ei in range(len(edges)):
        for w in range(t.q.n):
            parent[(1, ei, w)] = (1, ei, w)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[ra] = parent[rb] = min(ra, rb)

    for ei, (u, v) in enumerate(edges):
        for a in range(t.p.n):
            union((1, ei, t.eps1[a]), (0, u, a))
            union((1, ei, t.eps2[a]), (0, v, a))
    arcs = set()
    for u in range(g.n):
        for a, b in t.p.arcs():
            arcs.add((find((0, u, a)), find((0, u, b))))
    for ei in range(len(edges)):
        for a, b in t.q.arcs():
            arcs.add((find((1, ei, a)), find((1, ei, b))))
    roots = sorted({find(x) for x in parent})
    index = {r: i for i, r in enumerate(roots)}
    out = Digraph(len(roots), ((index[a], index[b]) for a, b in arcs))
    return as_graph(out) if undirected else out


@pytest.mark.parametrize("name", NAMES)
def test_lambda_matches_labelled_union_find(name):
    t = builtin_template(name)
    universe = ORDER_2 + (ORDER_3 if name in WITH_ORDER_3 else [])
    for g in universe:
        got, want = lambda_functor(t, g), _lambda_by_labels(t, g)
        assert type(got) is type(want), (name, g)
        assert (got.n, got.out_masks) == (want.n, want.out_masks), (name, g)
