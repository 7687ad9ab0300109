"""The thin adjunction and product commutation hold for *every* template,
so randomly generated templates exercise the gluing/enumeration stack far
beyond the built-in ones.  Generation is derandomized, so the examples are
the same on every run; failures are real bugs.  Each functor picks its
mode from the template and the argument, so a symmetric template runs
the undirected form and any other the directed form.  The adjunction on
order-2 universes cannot tell eps1 from eps2 inside one functor, so
Gamma and Lambda are also checked against their definitions by brute
force."""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pultr import engine
from pultr.functors import (
    PultrTemplate,
    gamma_functor,
    lambda_functor,
    product_commutation_check,
    validate_template,
    verify_adjunction,
)
from pultr.graphs import Digraph, Graph, enumerate_graphs, symmetrization


def _fuzz_settings(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None)


@st.composite
def digraphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    slots = [(u, v) for u in range(n) for v in range(n)]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return Digraph(n, [s for s, k in zip(slots, keep) if k])


@st.composite
def directed_templates(draw):
    """P on 1-2 and Q on 1-3 vertices, both arbitrary digraphs with
    loops; eps1 and eps2 any two homomorphisms P -> Q."""
    p = draw(digraphs(1, 2))
    q = draw(digraphs(1, 3))
    ws = [w.mapping for w in engine.hom_enumerate(p, q)]
    assume(ws)
    t = PultrTemplate(
        "fuzz", p, q, draw(st.sampled_from(ws)), draw(st.sampled_from(ws))
    )
    assert validate_template(t) == []
    return t


@st.composite
def symmetric_templates(draw):
    """Q a graph closed under an involution sigma with 1-2 swapped pairs
    and 0-1 fixed points; P a graph on 1-2 vertices; eps1 any
    homomorphism P -> Q and eps2 = sigma . eps1."""
    swaps = draw(st.integers(1, 2))
    nq = 2 * swaps + draw(st.integers(0, 1))
    sigma = list(range(nq))
    for i in range(swaps):
        sigma[2 * i], sigma[2 * i + 1] = 2 * i + 1, 2 * i
    slots = [(u, v) for u in range(nq) for v in range(u, nq)]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    edges = []
    for (u, v), k in zip(slots, keep):
        if k:
            edges += [(u, v), (sigma[u], sigma[v])]
    q = Graph(nq, edges)
    np_ = draw(st.integers(1, 2))
    p = Graph(np_, [(0, 1)] if np_ == 2 and draw(st.booleans()) else [])
    ws = [w.mapping for w in engine.hom_enumerate(p, q)]
    assume(ws)
    e1 = draw(st.sampled_from(ws))
    e2 = tuple(sigma[x] for x in e1)
    t = PultrTemplate("fuzz-u", p, q, e1, e2, symmetry=tuple(sigma))
    assert validate_template(t, undirected_mode=True) == []
    return t


DIRECTED_2 = list(enumerate_graphs(2, directed=True, loops=True, all_orders=True))
UNDIRECTED_2 = list(
    enumerate_graphs(2, directed=False, loops=True, all_orders=True)
)


@_fuzz_settings(25)
@given(directed_templates())
def test_adjunction_random_directed_templates(t):
    for g in DIRECTED_2:
        for k in DIRECTED_2:
            assert verify_adjunction(t, g, k), (t, g, k)


@_fuzz_settings(25)
@given(symmetric_templates())
def test_adjunction_random_undirected_templates(t):
    for g in UNDIRECTED_2:
        for k in UNDIRECTED_2:
            assert verify_adjunction(t, g, k), (t, g, k)


@_fuzz_settings(10)
@given(directed_templates(), digraphs(2, 2), digraphs(3, 3))
def test_product_commutation_random_templates(t, g2, g3):
    probes = (g2, g3)
    for g in probes:
        for h in probes:
            assert product_commutation_check(t, g, h), (t, g, h)


def _gamma_by_definition(t, k):
    """Gamma_T(K) by brute force over all vertex maps: the homomorphisms
    P -> K in lexicographic order, and an arc (h . eps1, h . eps2) for
    every homomorphism h: Q -> K."""

    def homs(a):
        return [
            m
            for m in product(range(k.n), repeat=a.n)
            if all(k.has_arc(m[u], m[v]) for u, v in a.arcs())
        ]

    index = {m: i for i, m in enumerate(homs(t.p))}
    arcs = [
        (index[tuple(h[x] for x in t.eps1)], index[tuple(h[x] for x in t.eps2)])
        for h in homs(t.q)
    ]
    return Digraph(len(index), arcs)


@_fuzz_settings(25)
@given(directed_templates(), digraphs(0, 3))
def test_gamma_matches_definition_directed(t, k):
    out = gamma_functor(t, k)
    assert type(out) is Digraph
    assert out == _gamma_by_definition(t, k), (t, k)


@_fuzz_settings(25)
@given(symmetric_templates(), digraphs(0, 3).map(symmetrization))
def test_gamma_matches_definition_undirected(t, k):
    out = gamma_functor(t, k)
    assert type(out) is Graph
    assert out == _gamma_by_definition(t, k), (t, k)



def _lambda_by_definition(t, g, undirected):
    """Lambda_T(G) as a quotient: one copy of P per vertex and of Q per
    edge (u <= v) or arc, in ascending order, with (1, e, eps1[a]) ~
    (0, u, a) and (1, e, eps2[a]) ~ (0, v, a) for e = (u, v).  The
    classes are found by relaxing every identification to the smaller
    label until nothing changes, so each class carries its minimum
    label; the classes are then numbered in label order."""
    edges = sorted((u, v) for u, v in g.arcs() if u <= v or not undirected)
    label = {(0, u, a): (0, u, a) for u in range(g.n) for a in range(t.p.n)}
    label.update(
        {(1, e, w): (1, e, w) for e in range(len(edges)) for w in range(t.q.n)}
    )
    same = [
        ((1, e, eps[a]), (0, x, a))
        for e, (u, v) in enumerate(edges)
        for eps, x in ((t.eps1, u), (t.eps2, v))
        for a in range(t.p.n)
    ]
    changed = True
    while changed:
        changed = False
        for x, y in same:
            low = min(label[x], label[y])
            for z in (x, y):
                if label[z] != low:
                    label[z] = low
                    changed = True
    index = {lab: i for i, lab in enumerate(sorted(set(label.values())))}

    def vertex(x):
        return index[label[x]]

    arcs = [
        (vertex((0, u, a)), vertex((0, u, b)))
        for u in range(g.n)
        for a, b in t.p.arcs()
    ] + [
        (vertex((1, e, a)), vertex((1, e, b)))
        for e in range(len(edges))
        for a, b in t.q.arcs()
    ]
    return Digraph(len(index), arcs)


@_fuzz_settings(25)
@given(directed_templates(), digraphs(0, 3))
def test_lambda_matches_definition_directed(t, g):
    out = lambda_functor(t, g)
    assert type(out) is Digraph
    assert out == _lambda_by_definition(t, g, undirected=False), (t, g)


@_fuzz_settings(25)
@given(symmetric_templates(), digraphs(0, 3).map(symmetrization))
def test_lambda_matches_definition_undirected(t, g):
    out = lambda_functor(t, g)
    assert type(out) is Graph
    assert out == _lambda_by_definition(t, g, undirected=True), (t, g)
