"""Pultr templates and their left (gluing) and central (hom-enumeration)
functors, with adjunction and product-commutation verifiers.

A template is a quadruple (P, Q, eps1, eps2) of digraphs and
homomorphisms P -> Q.  For the undirected setting the template also
carries an automorphism of Q swapping eps1 and eps2; that symmetry is
what makes the central functor produce a graph rather than a digraph.

The left functor glues one copy of P per vertex and one copy of Q per
edge/arc of the argument, identifying the eps images with the endpoint
copies of P.  The central functor's vertices are the homomorphisms
P -> K, with an arc (g1, g2) whenever some h: Q -> K restricts to g1 and
g2 along eps1 and eps2; the search for h pins the eps images and only
explores the interior of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import engine, limits
from .errors import ParameterError
from .graphs import (
    Digraph,
    Graph,
    as_graph,
    complete_graph,
    cycle_graph,
    directed_path,
    oriented_path,
    path_graph,
    tensor_product,
)


@dataclass(frozen=True)
class PultrTemplate:
    name: str
    p: Digraph
    q: Digraph
    eps1: tuple
    eps2: tuple
    symmetry: tuple | None = None


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


def _is_undirected(t, g, undirected):
    if undirected is None:
        return t.symmetry is not None and g.is_symmetric
    return undirected


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b):
    """Join the classes of a and b under the smaller root, so every root
    is the minimum of its class."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return
    root = min(ra, rb)
    parent[ra] = parent[rb] = root


def lambda_functor(t, g, undirected=None):
    """Left Pultr functor: one copy of P per vertex, one copy of Q per
    edge (undirected mode) or arc, glued along eps1 / eps2 by union-find
    with the smallest composite label as class representative, then
    renumbered canonically."""
    return _lambda_with_labels(t, g, undirected)[0]


def _lambda_with_labels(t, g, undirected=None):
    """lambda_functor plus the map from composite labels to vertices:
    (0, u, p) is vertex p of the P-copy at u; (1, e, w) is vertex w of the
    Q-copy at edge/arc number e."""
    undirected = _is_undirected(t, g, undirected)
    if undirected and not g.is_symmetric:
        raise ParameterError("undirected lambda needs a symmetric argument")
    if undirected:
        edges = list(as_graph(g).edges())
    else:
        edges = list(g.arc_list)
    limits.check_size(
        g.n * (t.p.n + t.p.arc_count) + len(edges) * (t.q.n + t.q.arc_count),
        "lambda functor",
    )
    parent = {}
    for u in range(g.n):
        for a in range(t.p.n):
            parent[(0, u, a)] = (0, u, a)
    for ei in range(len(edges)):
        for w in range(t.q.n):
            parent[(1, ei, w)] = (1, ei, w)
    for ei, (u, v) in enumerate(edges):
        for a in range(t.p.n):
            _union(parent, (1, ei, t.eps1[a]), (0, u, a))
            _union(parent, (1, ei, t.eps2[a]), (0, v, a))
    arcs = set()
    for u in range(g.n):
        for a, b in t.p.arcs():
            arcs.add((_find(parent, (0, u, a)), _find(parent, (0, u, b))))
    for ei in range(len(edges)):
        for a, b in t.q.arcs():
            arcs.add((_find(parent, (1, ei, a)), _find(parent, (1, ei, b))))
    roots = sorted({_find(parent, x) for x in parent})
    index = {r: i for i, r in enumerate(roots)}
    out = Digraph(len(roots), ((index[a], index[b]) for a, b in arcs))
    labels = {lab: index[_find(parent, lab)] for lab in parent}
    return (as_graph(out) if undirected else out), labels, edges


def gamma_functor(t, k, undirected=None, budget=None):
    """Central Pultr functor: vertices are the homomorphisms P -> K in
    lexicographic order; (g1, g2) is an arc iff some h: Q -> K satisfies
    h . eps1 = g1 and h . eps2 = g2."""
    undirected = _is_undirected(t, k, undirected)
    limits.check_size(k.n ** t.p.n if t.p.n else 1, "gamma functor")
    gens = [w.mapping for w in engine.hom_enumerate(t.p, k, budget=budget)]
    n = len(gens)
    arcs = []
    for i, g1 in enumerate(gens):
        for j, g2 in enumerate(gens):
            pins = {}
            ok = True
            for p_v in range(t.p.n):
                for qv, val in (
                    (t.eps1[p_v], g1[p_v]),
                    (t.eps2[p_v], g2[p_v]),
                ):
                    if pins.setdefault(qv, val) != val:
                        ok = False
                        break
                if not ok:
                    break
            if ok and engine.hom_exists_pinned(t.q, k, pins, budget=budget):
                arcs.append((i, j))
        limits.check_size(n + len(arcs), "gamma functor")
    out = Digraph(n, arcs)
    if undirected:
        if not out.is_symmetric:
            raise RuntimeError(
                f"gamma output for template {t.name!r} is not symmetric; "
                "the symmetry automorphism cannot be valid"
            )
        return as_graph(out)
    return out


def verify_adjunction(t, g, k, undirected=None, budget=None):
    """Whether hom(Lambda_T(G) -> K) and hom(G -> Gamma_T(K)) agree."""
    left = (
        engine.hom_exists(lambda_functor(t, g, undirected), k, budget=budget)
        is not None
    )
    right = (
        engine.hom_exists(g, gamma_functor(t, k, undirected), budget=budget)
        is not None
    )
    return left == right


def product_commutation_check(t, g, h, budget=None):
    """Whether Gamma_T(G x H) is hom-equivalent to Gamma_T(G) x Gamma_T(H)."""
    lhs = gamma_functor(t, tensor_product(g, h), budget=budget)
    rhs = tensor_product(
        gamma_functor(t, g, budget=budget), gamma_functor(t, h, budget=budget)
    )
    return engine.hom_equivalent(lhs, rhs, budget=budget)


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
    if not isinstance(h, Graph):
        raise ParameterError("tensor template needs an undirected graph")
    q = tensor_product(h, complete_graph(2))
    sym = []
    for v in range(h.n):
        sym.extend((2 * v + 1, 2 * v))
    return PultrTemplate(
        name=name or f"tensor-{h.n}",
        p=Graph(h.n),
        q=as_graph(q),
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


def oriented_path_template(spec, name=None):
    """Template (K_1, Q) for an oriented path Q given by an orientation
    string.  eps1 maps to the last vertex and eps2 to vertex 0: with the
    subset-tuple right adjoint construction implemented in
    pultr.adjoints, this is the endpoint assignment under which the
    adjunction biconditional holds (the survey text leaves the
    assignment open; the harness arbitrates)."""
    q = oriented_path(spec)
    return PultrTemplate(
        name=name or f"path-{spec}",
        p=Digraph(1),
        q=q,
        eps1=(q.n - 1,),
        eps2=(0,),
    )


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
