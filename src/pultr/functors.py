"""Pultr templates and their left (gluing) and central (hom-enumeration)
functors, with adjunction and product-commutation verifiers.

A template is a quadruple (P, Q, eps1, eps2) of digraphs and
homomorphisms P -> Q.  For the undirected setting the template also
carries an automorphism of Q swapping eps1 and eps2; that symmetry,
applied to a symmetric argument, is what makes both functors produce a
graph rather than a digraph.  `_is_undirected` is the one place that
decides the mode.

The left functor glues one copy of P per vertex and one copy of Q per
edge/arc of the argument, identifying the eps images with the endpoint
copies of P.  The central functor's vertices are the homomorphisms
P -> K, with an arc (g1, g2) whenever some h: Q -> K restricts to g1 and
g2 along eps1 and eps2.  Its arc set is thus the image of hom(Q, K)
under h -> (h . eps1, h . eps2), and it is built as that image: hom(Q, K)
is listed once and each map adds its one arc.  When P = K_1 and Q is a
forest, leaf-to-root semijoin passes over bitmask domains compute the
same rows without search (Yannakakis, VLDB 1981; Hell, Nesetril & Zhu,
Trans. AMS 1996), one pass per vertex of K.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import itemgetter

from . import engine, limits
from .engine import _forest_plan, _semijoin
from .errors import ParameterError
from .graphs import (
    Digraph,
    Graph,
    as_graph,
    complete_graph,
    cycle_graph,
    directed_path,
    path_graph,
    tensor_product,
)


class PultrTemplate(
    namedtuple(
        "PultrTemplate", "name p q eps1 eps2 symmetry", defaults=(None,)
    )
):
    """A named template (P, Q, eps1, eps2): digraphs P and Q, and the
    homomorphisms eps1, eps2: P -> Q as vertex tuples.  `symmetry`, a
    vertex tuple or None, is the automorphism of Q that swaps eps1 and
    eps2 in the undirected setting."""

    __slots__ = ()


def validate_template(t, undirected_mode=False):
    """Return a list of violation strings (empty = valid).

    In undirected mode a missing or invalid symmetry automorphism is a
    violation, and P and Q must be symmetric.
    """
    bad = []
    for label, eps in (("eps1", t.eps1), ("eps2", t.eps2)):
        if len(eps) != t.p.n:
            bad.append(f"{label} has {len(eps)} entries, P has order {t.p.n}")
            continue
        if any(not 0 <= x < t.q.n for x in eps):
            bad.append(f"{label} maps outside V(Q)")
            continue
        for u, v in t.p.arcs():
            if not t.q.has_arc(eps[u], eps[v]):
                bad.append(
                    f"{label} does not preserve arc ({u},{v}) of P: "
                    f"({eps[u]},{eps[v]}) is not an arc of Q"
                )
    sym = t.symmetry
    if sym is not None:
        if sorted(sym) != list(range(t.q.n)):
            bad.append("symmetry is not a permutation of V(Q)")
        else:
            for u, v in t.q.arcs():
                if not t.q.has_arc(sym[u], sym[v]):
                    bad.append(
                        f"symmetry does not preserve arc ({u},{v}) of Q"
                    )
            for p_v in range(min(t.p.n, len(t.eps1), len(t.eps2))):
                if sym[t.eps1[p_v]] != t.eps2[p_v]:
                    bad.append(f"symmetry . eps1 != eps2 at P-vertex {p_v}")
                if sym[t.eps2[p_v]] != t.eps1[p_v]:
                    bad.append(f"symmetry . eps2 != eps1 at P-vertex {p_v}")
    if undirected_mode:
        if sym is None:
            bad.append("undirected mode requires a symmetry automorphism")
        if not t.p.is_symmetric:
            bad.append("undirected mode requires symmetric P")
        if not t.q.is_symmetric:
            bad.append("undirected mode requires symmetric Q")
    return bad


def require_valid(t, undirected_mode=False):
    bad = validate_template(t, undirected_mode)
    if bad:
        raise ParameterError(
            f"template {t.name!r} invalid: " + "; ".join(bad)
        )


def _is_undirected(t, g):
    """The functor mode, and the only place that decides it: a template
    with a symmetry applied to a symmetric argument gives the graph
    form, anything else the digraph form."""
    return t.symmetry is not None and g.is_symmetric


def _glue(pieces, pairs):
    """The quotient of the disjoint union of the digraphs `pieces`, whose
    vertices are numbered piece by piece, by the pairs (x, y), and the
    class of each vertex.  Classes are numbered in the order of their
    least vertices."""
    parent = list(range(sum(d.n for d in pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    # A class is numbered when its least vertex is met.
    index = {}
    classes = [index.setdefault(find(x), len(index)) for x in range(len(parent))]
    rows = [0] * len(index)
    offset = 0
    for d in pieces:
        for a, b in d.arc_list:
            rows[classes[offset + a]] |= 1 << classes[offset + b]
        offset += d.n
    return Digraph._from_masks(len(index), rows), classes


def lambda_functor(t, g):
    """Left Pultr functor: one copy of P per vertex and one copy of Q per
    edge (undirected mode) or arc, glued along eps1 and eps2 (_glue).
    The mode is undirected exactly when t has a symmetry and g is
    symmetric; the result is then a Graph."""
    return _lambda_with_labels(t, g)[0]


def _lambda_with_labels(t, g):
    """lambda_functor, the class of each vertex of the disjoint union (the
    P-copy at u holds vertices u*|P| + p, and the Q-copy at edge or arc
    number e follows all P-copies, at e*|Q| + w), and the edges."""
    undirected = _is_undirected(t, g)
    edges = list(as_graph(g).edges()) if undirected else list(g.arc_list)
    p, q = t.p, t.q
    limits.check_size(
        g.n * (p.n + p.arc_count) + len(edges) * (q.n + q.arc_count),
        "lambda functor",
    )
    pairs = []
    for ei, (u, v) in enumerate(edges):
        e = g.n * p.n + ei * q.n
        for a in range(p.n):
            pairs += ((e + t.eps1[a], u * p.n + a), (e + t.eps2[a], v * p.n + a))
    out, classes = _glue([p] * g.n + [q] * len(edges), pairs)
    return (as_graph(out) if undirected else out), classes, edges


def _forest_rows(t, k, plan):
    """The rows of Gamma_T(K) by semijoin passes, when P = K_1, Q is a
    forest and `plan` is rooted at eps2[0]: the pass with eps1 pinned to
    a leaves at the root exactly the row of a.  The size is checked
    after each row."""
    both = tuple(o & i for o, i in zip(k.out_masks, k.in_masks))
    up = (None, k.out_masks, k.in_masks, both)
    rows = []
    size = k.n
    for a in range(k.n):
        doms = engine.domains(t.q, k, {t.eps1[0]: a})
        rows.append(doms[t.eps2[0]] if _semijoin(plan, doms, up) else 0)
        size += rows[-1].bit_count()
        limits.check_size(size, "gamma functor")
    return rows


def _projected_rows(t, k):
    """The rows of Gamma_T(K) as the image of hom(Q, K) under
    h -> (h . eps1, h . eps2), a map whose image is not a vertex adding
    no arc.  |hom(P, K)| + |hom(Q, K)| is checked before the maps of Q
    are listed."""
    if t.p.arc_count:
        gens = [w.mapping for w in engine.hom_enumerate(t.p, k)]
    else:
        gens = list(product(range(k.n), repeat=t.p.n))
    limits.check_size(len(gens) + engine.hom_count(t.q, k), "gamma functor")
    index = {g: j for j, g in enumerate(gens)}
    rows = [0] * len(gens)
    m = len(t.eps1)
    # One itemgetter call per map costs a third of two tuple builds; it
    # needs an index, and returns a tuple only from two on.
    pick = itemgetter(*t.eps1, *t.eps2) if m else lambda h: ()
    for w in engine.hom_enumerate(t.q, k):
        h = pick(w.mapping)
        i = index.get(h[:m])
        j = index.get(h[m:])
        if i is not None and j is not None:
            rows[i] |= 1 << j
    return rows


def gamma_functor(t, k):
    """Central Pultr functor: vertices are the homomorphisms P -> K in
    lexicographic order; (g1, g2) is an arc iff some h: Q -> K satisfies
    h . eps1 = g1 and h . eps2 = g2.  The mode is undirected exactly when
    t has a symmetry and k is symmetric; the result is then a Graph.

    The arcs are the image of hom(Q, K) under h -> (h . eps1, h . eps2),
    and `_projected_rows` lists hom(Q, K) once to build them.  When
    P = K_1 and Q is a forest (`_forest_plan`), `_forest_rows` computes
    the same rows without search, one semijoin pass per vertex of K."""
    undirected = _is_undirected(t, k)
    limits.check_size(k.n ** t.p.n if t.p.n else 1, "gamma functor")
    plan = None
    if t.p.n == 1 and not t.p.arc_count:
        plan = _forest_plan(t.q, t.eps2[0])
    if plan is None:
        rows = _projected_rows(t, k)
    else:
        rows = _forest_rows(t, k, plan)
    out = Digraph._from_masks(len(rows), rows)
    if undirected:
        if not out.is_symmetric:
            raise RuntimeError(
                f"gamma output for template {t.name!r} is not symmetric; "
                "the symmetry automorphism cannot be valid"
            )
        return as_graph(out)
    return out


def verify_adjunction(t, g, k):
    """Whether hom(Lambda_T(G) -> K) and hom(G -> Gamma_T(K)) agree.  Each
    functor takes the undirected mode exactly when t has a symmetry and
    its argument is symmetric."""
    left = engine.hom_exists(lambda_functor(t, g), k) is not None
    right = engine.hom_exists(g, gamma_functor(t, k)) is not None
    return left == right


def product_commutation_check(t, g, h):
    """Whether Gamma_T(G x H) is hom-equivalent to Gamma_T(G) x Gamma_T(H)."""
    lhs = gamma_functor(t, tensor_product(g, h))
    rhs = tensor_product(gamma_functor(t, g), gamma_functor(t, h))
    return engine.hom_equivalent(lhs, rhs)


# ---------------------------------------------------------------------------
# built-in templates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def path_template(m):
    """Undirected odd-path template: P = K_1, Q the path with m edges,
    eps mapping to the endpoints, symmetry = path reversal."""
    if m < 1:
        raise ParameterError("path template needs m >= 1")
    return PultrTemplate(
        name=f"t{m}",
        p=Graph(1),
        q=path_graph(m),
        eps1=(0,),
        eps2=(m,),
        symmetry=tuple(m - i for i in range(m + 1)),
    )


@lru_cache(maxsize=None)
def lexicographic_template():
    """P = K_2, Q = K_4, eps mapping K_2 to two non-incident edges of K_4,
    symmetry swapping the two edges.  Lambda is the product G[K_2]."""
    return PultrTemplate(
        name="lex-k2",
        p=complete_graph(2),
        q=complete_graph(4),
        eps1=(0, 1),
        eps2=(2, 3),
        symmetry=(2, 3, 0, 1),
    )


def tensor_template(h, name=None):
    """P = H x K_1 (an independent set), Q = H x K_2, eps the two natural
    injections, symmetry swapping the two layers.  Lambda is G x H."""
    h = as_graph(h)
    sym = []
    for v in range(h.n):
        sym.extend((2 * v + 1, 2 * v))
    return PultrTemplate(
        name=name or f"tensor-{h.n}",
        p=Graph(h.n),
        q=tensor_product(h, complete_graph(2)),
        eps1=tuple(2 * v for v in range(h.n)),
        eps2=tuple(2 * v + 1 for v in range(h.n)),
        symmetry=tuple(sym),
    )


@lru_cache(maxsize=None)
def arc_graph_template():
    """P = single arc, Q = directed 2-path, eps1 = identity, eps2 = shift.
    The central functor is the arc graph."""
    return PultrTemplate(
        name="arc-graph",
        p=directed_path(1),
        q=directed_path(2),
        eps1=(0, 1),
        eps2=(1, 2),
    )


@lru_cache(maxsize=None)
def iota_template(m):
    """Template whose central functor is the m-th interleaved adjoint:
    P has m isolated vertices; Q has vertices u_1 = 2u, u_2 = 2u+1 with
    arcs u_1 -> u_2 and u_2 -> (u+1)_1; eps1(u) = u_1, eps2(u) = u_2."""
    if m < 1:
        raise ParameterError("interleaved template needs m >= 1")
    arcs = [(2 * u, 2 * u + 1) for u in range(m)]
    arcs += [(2 * u + 1, 2 * u + 2) for u in range(m - 1)]
    return PultrTemplate(
        name=f"iota-{m}",
        p=Digraph(m),
        q=Digraph(2 * m, arcs),
        eps1=tuple(2 * u for u in range(m)),
        eps2=tuple(2 * u + 1 for u in range(m)),
    )


@lru_cache(maxsize=None)
def shift_template(k):
    """Template with P, Q directed paths on k and k+1 vertices and the two
    shift embeddings; the central functor applied to a transitive
    tournament gives the directed shift graph."""
    if k < 2:
        raise ParameterError("shift template needs k >= 2")
    return PultrTemplate(
        name=f"shift-{k}",
        p=directed_path(k - 1),
        q=directed_path(k),
        eps1=tuple(range(k)),
        eps2=tuple(range(1, k + 1)),
    )


# The names that `formats.load_template` and the CLI's `--template` resolve
# through `builtin_template`; any other string there is a file path.
# `builtin_template` itself takes more names, such as `t7` and `shift-3`.
BUILTIN_TEMPLATE_NAMES = (
    "t1",
    "t3",
    "t5",
    "lex-k2",
    "tensor-c3",
    "arc-graph",
    "iota-1",
    "iota-2",
    "iota-3",
)


def builtin_template(name):
    key = name.strip().lower()
    if key.startswith("t") and key[1:].isdigit():
        return path_template(int(key[1:]))
    if key == "lex-k2":
        return lexicographic_template()
    if key == "tensor-c3":
        return tensor_template(cycle_graph(3), name="tensor-c3")
    if key == "arc-graph":
        return arc_graph_template()
    if key.startswith("iota-") and key[5:].isdigit():
        return iota_template(int(key[5:]))
    if key.startswith("shift-") and key[6:].isdigit():
        return shift_template(int(key[6:]))
    raise ParameterError(f"unknown template {name!r}")
