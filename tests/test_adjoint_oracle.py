"""The three subset-tuple and map constructions against the pairwise
definitions they replaced, kept here as oracles: Omega_m, Omega_Q and K^H
test every pair of vertices against the adjacency rule, where the
builders list each out-row directly.  Vertex order and rows must agree."""

from itertools import product

import pytest

from pultr.adjoints import omega_odd_path, omega_oriented_path
from pultr.graphs import (
    Digraph,
    Graph,
    enumerate_graphs,
    exponential_graph,
    oriented_path,
)

GRAPHS_4 = list(enumerate_graphs(4, loops=True, all_orders=True))
GRAPHS_3 = GRAPHS_4[:74]
DIGRAPHS_2 = list(enumerate_graphs(2, directed=True, loops=True, all_orders=True))
DIGRAPHS_3 = list(enumerate_graphs(3, directed=True, loops=True))[::23]
SPECS = ["".join(bits) for k in (1, 2, 3) for bits in product("01", repeat=k)]


def _submasks_ascending(mask):
    s = 0
    while True:
        yield s
        s = (s - mask) & mask
        if s == 0:
            return


def _common_neighbours(adj, full, mask):
    c = full
    while mask:
        low = mask & -mask
        c &= adj[low.bit_length() - 1]
        mask ^= low
    return c


def omega_odd_path_pairwise(m, h):
    k = (m - 1) // 2
    n = h.n
    adj = h.out_masks
    full = (1 << n) - 1
    verts = []
    coms = []

    def extend(u, prefix, allowed):
        if len(prefix) == k:
            verts.append((u, tuple(prefix)))
            coms.append(allowed)
            return
        for s in _submasks_ascending(allowed):
            extend(u, prefix + [s], _common_neighbours(adj, full, s))

    for u in range(n):
        extend(u, [], adj[u])
    edges = []
    for a, (u, ua) in enumerate(verts):
        for b in range(a, len(verts)):
            v, vb = verts[b]
            if not (vb[0] >> u & 1 and ua[0] >> v & 1):
                continue
            for t in range(1, k):
                if ua[t - 1] & ~vb[t] or vb[t - 1] & ~ua[t]:
                    break
            else:
                if not vb[k - 1] & ~coms[a]:
                    edges.append((a, b))
    return Graph(len(verts), edges)


def omega_oriented_path_pairwise(q, h):
    m = q.n - 1
    flags = [q.has_arc(i, i + 1) for i in range(m)]
    n = h.n
    full = (1 << n) - 1
    verts = [
        (u, free + (last,))
        for u in range(n)
        for free in product(range(full + 1), repeat=m - 1)
        for last in _submasks_ascending(h.out_masks[u])
    ]
    arcs = []
    for a, (u, ua) in enumerate(verts):
        for b, (v, vb) in enumerate(verts):
            if not (vb[0] >> u & 1 if flags[0] else ua[0] >> v & 1):
                continue
            for i in range(1, m):
                if ua[i - 1] & ~vb[i] if flags[i] else vb[i - 1] & ~ua[i]:
                    break
            else:
                arcs.append((a, b))
    return Digraph(len(verts), arcs)


def exponential_graph_pairwise(k, h):
    maps = list(product(range(k.n), repeat=h.n))
    edges = []
    for i, f in enumerate(maps):
        for j in range(i, len(maps)):
            g = maps[j]
            for x, y in h.arc_list:
                if not k.has_arc(f[x], g[y]):
                    break
            else:
                edges.append((i, j))
    return Graph(len(maps), edges)


def _same(got, want):
    assert type(got) is type(want)
    assert (got.n, got.out_masks) == (want.n, want.out_masks)


@pytest.mark.parametrize("m, hs", [(3, GRAPHS_4), (5, GRAPHS_4[:300])])
def test_omega_odd_path_matches_pairwise(m, hs):
    for h in hs:
        _same(omega_odd_path(m, h), omega_odd_path_pairwise(m, h))


@pytest.mark.parametrize("spec", SPECS)
def test_omega_oriented_path_matches_pairwise(spec):
    q = oriented_path(spec)
    for h in DIGRAPHS_2 + (DIGRAPHS_3 if len(spec) <= 2 else []):
        _same(omega_oriented_path(q, h), omega_oriented_path_pairwise(q, h))


def test_exponential_graph_matches_pairwise():
    for k in GRAPHS_3:
        for h in GRAPHS_3[:40]:
            _same(exponential_graph(k, h), exponential_graph_pairwise(k, h))
