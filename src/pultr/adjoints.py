"""Explicit right adjoints of central Pultr functors and derived
composites: subset-tuple constructions for the odd-path templates
(undirected) and oriented-path templates (directed), the arc graph and
its left adjoint, interleaved adjoints, and the power/root composites.
The interleaved adjoint and the composites are built through the Pultr
functors of `pultr.functors`.  The arc graph is also a central functor,
but it is built directly: Gamma takes quadratic time on a sparse digraph.

Vertex subsets inside the tuple constructions are bitmasks over V(H);
output vertices are ordered lexicographically on (u, U_1, ..., U_k) with
sets compared as mask integers.  Empty sets are legal tuple entries (the
definitions do not exclude them); the resulting vertices are typically
isolated and harmless.
"""

from __future__ import annotations

from itertools import product

from . import limits
from .errors import ParameterError
from .functors import (
    arc_graph_template,
    gamma_functor,
    iota_template,
    lambda_functor,
    path_template,
)
from .graphs import Digraph, Graph, as_graph


def _require_odd(value, name):
    if value < 1 or value % 2 == 0:
        raise ParameterError(f"{name} must be a positive odd integer, got {value}")


def _common_neighbours(adj, full, mask):
    """Vertices adjacent to every member of `mask` (full mask if empty)."""
    c = full
    while mask:
        low = mask & -mask
        c &= adj[low.bit_length() - 1]
        mask ^= low
    return c


def _submasks_ascending(mask):
    s = 0
    while True:
        yield s
        s = (s - mask) & mask
        if s == 0:
            return


def omega_odd_path(m, h):
    """Right adjoint of the m-th walk-power functor, for odd m = 2k+1 >= 3.

    Vertices are tuples (u, U_1, ..., U_k) with u in V(H), U_1 a subset of
    N(u), and U_i completely joined to U_{i-1} for i >= 2.  Tuples
    (u, U...) and (v, V...) are adjacent iff u in V_1, v in U_1,
    U_{i-1} within V_i and V_{i-1} within U_i for i = 2..k, and U_k
    completely joined to V_k.
    """
    if m % 2 == 0:
        raise ParameterError(f"the subset-tuple right adjoint exists for odd m only, got {m}")
    if m < 3:
        raise ParameterError("use the identity functor for m = 1")
    h = as_graph(h)
    k = (m - 1) // 2
    n = h.n
    limits.check_size(n * (1 << (k * n)) if n else 0, "omega construction")
    adj = h.out_masks
    full = (1 << n) - 1

    verts = []
    coms = []  # common neighbourhood of the last set, per vertex

    def extend(u, prefix, allowed):
        depth = len(prefix)
        if depth == k:
            verts.append((u, tuple(prefix)))
            coms.append(allowed if k else adj[u])
            return
        for s in _submasks_ascending(allowed):
            extend(u, prefix + [s], _common_neighbours(adj, full, s))

    for u in range(n):
        extend(u, [], adj[u])

    edges = []
    for a, (u, ua) in enumerate(verts):
        com_a = coms[a]
        for b in range(a, len(verts)):
            v, vb = verts[b]
            if not (vb[0] >> u & 1 and ua[0] >> v & 1):
                continue
            ok = True
            for t in range(1, k):
                if ua[t - 1] & ~vb[t] or vb[t - 1] & ~ua[t]:
                    ok = False
                    break
            if ok and not vb[k - 1] & ~com_a:
                edges.append((a, b))
        limits.check_size(len(verts) + 2 * len(edges), "omega construction")
    return Graph(len(verts), edges)


def _oriented_path_shape(q):
    """Forward/backward flags of an oriented path on vertices 0..m."""
    m = q.n - 1
    if m < 1:
        raise ParameterError("oriented path template needs at least one arc")
    if q.arc_count != m:
        raise ParameterError("not an orientation of a path")
    flags = []
    for i in range(m):
        fwd = q.has_arc(i, i + 1)
        bwd = q.has_arc(i + 1, i)
        if fwd == bwd:
            raise ParameterError("not an orientation of a path")
        flags.append(fwd)
    return flags


def omega_oriented_path(q, h):
    """Right adjoint of the central functor of an oriented-path template.

    Vertices are tuples (u, U_1, ..., U_m) of a vertex and m vertex
    subsets of H with an arc from u to every element of U_m.  There is an
    arc from (u, U...) to (v, V...) iff u in V_1 when 0->1 in Q, v in U_1
    when 1->0, and for each i: U_i within V_{i+1} when i->i+1, V_i within
    U_{i+1} when i+1->i.
    """
    flags = _oriented_path_shape(q)
    m = len(flags)
    n = h.n
    limits.check_size(n * (1 << (m * n)) if n else 0, "omega construction")
    full = (1 << n) - 1
    out = h.out_masks

    verts = [
        (u, free + (last,))
        for u in range(n)
        for free in product(range(full + 1), repeat=m - 1)
        for last in _submasks_ascending(out[u])
    ]

    arcs = []
    for a, (u, ua) in enumerate(verts):
        for b, (v, vb) in enumerate(verts):
            if flags[0]:
                if not vb[0] >> u & 1:
                    continue
            elif not ua[0] >> v & 1:
                continue
            ok = True
            for i in range(1, m):
                if flags[i]:
                    if ua[i - 1] & ~vb[i]:
                        ok = False
                        break
                elif vb[i - 1] & ~ua[i]:
                    ok = False
                    break
            if ok:
                arcs.append((a, b))
        limits.check_size(len(verts) + len(arcs), "omega construction")
    return Digraph(len(verts), arcs)


def arc_graph(h):
    """The arc graph: vertices are the arcs of H in lexicographic order,
    with (u,v) -> (x,y) iff v = x.  Its size, |A(H)| plus in(v) out(v)
    arcs through each v, is checked before it is built."""
    through = zip(h.in_masks, h.out_masks)
    limits.check_size(
        h.arc_count + sum(i.bit_count() * o.bit_count() for i, o in through),
        "arc graph",
    )
    arcs_h = list(h.arc_list)
    index = {a: i for i, a in enumerate(arcs_h)}
    by_tail = {}
    for a in arcs_h:
        by_tail.setdefault(a[0], []).append(a)
    arcs = [
        (index[a], index[b])
        for a in arcs_h
        for b in by_tail.get(a[1], ())
    ]
    return Digraph(len(arcs_h), arcs)


def arc_graph_left(g):
    """Left adjoint of the arc graph: vertex u splits into an arc
    u0 -> u1, and each arc u -> v glues u1 = v0.  This is the left Pultr
    functor of the arc-graph template."""
    return lambda_functor(arc_graph_template(), g)


def interleaved_adjoint(m, h):
    """m-th interleaved adjoint: vertices are all m-tuples of vertices of
    H in lexicographic order; (u_1..u_m) -> (v_1..v_m) iff u_i -> v_i for
    all i and v_i -> u_{i+1} for i < m.  It is the central functor of the
    interleaved template (pultr.functors.iota_template), and is built as
    one: Q is a directed path, so Gamma computes the arcs by semijoin
    passes.  A size-guard hit past the pre-check below names the gamma
    functor."""
    if m < 1:
        raise ParameterError("interleaved adjoint needs m >= 1")
    limits.check_size(h.n**m + h.arc_count if h.n else 0, "interleaved adjoint")
    return gamma_functor(iota_template(m), h)


def power_functor(s, r, g):
    """P^s_r: the s-th walk power of the r-subdivision (odd s, r)."""
    g = as_graph(g)
    _require_odd(s, "s")
    _require_odd(r, "r")
    x = g if r == 1 else lambda_functor(path_template(r), g)
    if s == 1:
        return x
    return gamma_functor(path_template(s), x)


def root_functor(r, s, h):
    """R^r_s: the r-th walk power of the s-th subset-tuple adjoint
    (odd r, s).  The expensive composite: check root_size_estimate first."""
    _require_odd(r, "r")
    _require_odd(s, "s")
    h = as_graph(h)
    x = h if s == 1 else omega_odd_path(s, h)
    if r == 1:
        return x
    return gamma_functor(path_template(r), x)


def root_size_estimate(r, s, h):
    """Upper estimate of the intermediate vertex count of root_functor."""
    if s == 1:
        return h.n
    k = (s - 1) // 2
    return h.n * (1 << (k * h.n)) if h.n else 0
