"""Explicit right adjoints of central Pultr functors and derived
composites: subset-tuple constructions for the odd-path templates
(undirected) and oriented-path templates (directed), the arc graph and
its left adjoint, interleaved adjoints, and the power/root composites.
The interleaved adjoint and the composites are built through the Pultr
functors of `pultr.functors`.  The arc graph is also a central functor,
but it is built directly: that build is 9-16x faster than Gamma's
listing of the directed 2-walks on T_3, T_4, K_8 and the directed C_400
(best of 30, Python 3.11, 2 cores).

Vertex subsets inside the tuple constructions are bitmasks over V(H);
output vertices are ordered lexicographically on (u, U_1, ..., U_k) with
sets compared as mask integers.  Empty sets are legal tuple entries; the
resulting vertices are typically isolated.  Both tuple constructions are
built by rows (graphs.by_rows): each coordinate of an out-neighbour lies
between two sets read off the vertex, so the cost follows the arcs.
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
from .bitset import iter_bits
from .graphs import Digraph, Graph, as_graph, by_rows


def _require_odd(value, name):
    if value < 1 or value % 2 == 0:
        raise ParameterError(f"{name} must be a positive odd integer, got {value}")


def _tuple_count(k, n):
    """n 2^(kn) tuples (u, U_1, ..., U_k): the vertex estimate of each build."""
    return n << k * n


def _between(lo, hi):
    """The sets S with lo <= S <= hi, ascending."""
    if lo & ~hi:
        return
    free = hi & ~lo
    s = 0
    while True:
        yield lo | s
        s = (s - free) & free
        if s == 0:
            return


def omega_odd_path(m, h):
    """Right adjoint of the m-th walk-power functor, for odd m = 2k+1 >= 3.

    Vertices are tuples (u, U_1, ..., U_k) with u in V(H), U_1 a subset of
    N(u), and U_i completely joined to U_{i-1} for i >= 2.  Tuples
    (u, U...) and (v, V...) are adjacent iff u in V_1, v in U_1,
    U_{i-1} within V_i and V_{i-1} within U_i for i = 2..k, and U_k
    completely joined to V_k.  So the row of (u, U...) lists the (v, V...)
    with v in U_1 and each V_i between its entry of ({u}, U_1, ...,
    U_{k-1}) and of (U_2, ..., U_k, CN(U_k)), CN(S) being the vertices
    adjacent to all of S.
    """
    _require_odd(m, "m")
    if m == 1:
        raise ParameterError("use the identity functor for m = 1")
    h = as_graph(h)
    k = (m - 1) // 2
    n = h.n
    limits.check_size(_tuple_count(k, n), "omega construction")
    adj = h.out_masks
    # cn[S]: the common neighbourhood of S, all of V(H) for S empty
    cn = [(1 << n) - 1]
    for row in adj:
        cn += [c & row for c in cn]

    def tuples(vs, lows, highs):
        """The vertices (v, V...) with v in vs and lows[i] <= V_i <= highs[i],
        in order: V_1 grows within N(v), then V_i within CN(V_{i-1})."""
        ends = [(v, ()) for v in vs]
        for lo, hi in zip(lows, highs):
            ends = [
                (v, p + (s,))
                for v, p in ends
                for s in _between(lo, hi & (cn[p[-1]] if p else adj[v]))
            ]
        return ends

    verts = tuples(range(n), [0] * k, [cn[0]] * k)

    def row(x):
        u, us = x
        return tuples(iter_bits(us[0]), (1 << u,) + us[:-1], us[1:] + (cn[us[-1]],))

    return Graph._from_masks(len(verts), by_rows(verts, row, "omega construction"))


def _oriented_path_shape(q):
    """Forward/backward flags of an oriented path on vertices 0..m."""
    m = q.n - 1
    if m < 1:
        raise ParameterError("oriented path template needs at least one arc")
    flags = [q.has_arc(i, i + 1) for i in range(m)]
    if q.arc_count != m or any(q.has_arc(i + 1, i) == f for i, f in enumerate(flags)):
        raise ParameterError("not an orientation of a path")
    return flags


def omega_oriented_path(q, h):
    """Right adjoint of the central functor of an oriented-path template.

    Vertices are tuples (u, U_1, ..., U_m) of a vertex and m vertex
    subsets of H with an arc from u to every element of U_m.  There is an
    arc from (u, U...) to (v, V...) iff u in V_1 when 0->1 in Q, v in U_1
    when 1->0, and for each i: U_i within V_{i+1} when i->i+1, V_i within
    U_{i+1} when i+1->i.  So the row of (u, U...) lists each V_i between
    U_{i-1} (or {u}) when i-1->i and U_{i+1} when i+1->i, V_m in N+(v).
    """
    flags = _oriented_path_shape(q)
    m = len(flags)
    n = h.n
    limits.check_size(_tuple_count(m, n), "omega construction")
    full = (1 << n) - 1
    out = h.out_masks

    def tuples(vs, lows, highs):
        """The vertices (v, V...) with v in vs, lows[i] <= V_i <= highs[i]
        for i < m and V_m within N+(v), in order."""
        return [
            (v, t) for v in vs for t in product(*map(_between, lows, [*highs, out[v]]))
        ]

    verts = tuples(range(n), [0] * m, [full] * (m - 1))

    def row(x):
        u, us = x
        return tuples(
            range(n) if flags[0] else iter_bits(us[0]),
            [w if f else 0 for w, f in zip((1 << u,) + us, flags)],
            [full if f else w for w, f in zip(us[1:], flags[1:])],
        )

    return Digraph._from_masks(len(verts), by_rows(verts, row, "omega construction"))


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
    one: Gamma lists the homomorphisms of Q, the directed path on 2m
    vertices, into H, each giving one arc.  A size-guard hit past the
    pre-check below names the gamma functor."""
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
    _require_odd(r, "r")
    _require_odd(s, "s")
    return _tuple_count((s - 1) // 2, h.n)
