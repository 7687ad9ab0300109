import pytest

from pultr import engine
from pultr.errors import ParameterError
from pultr.functors import (
    PultrTemplate,
    arc_graph_template,
    builtin_template,
    gamma_functor,
    iota_template,
    lambda_functor,
    _lambda_with_labels,
    lexicographic_template,
    path_template,
    product_commutation_check,
    require_valid,
    shift_template,
    tensor_template,
    validate_template,
    verify_adjunction,
)
from pultr.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    directed_cycle,
    directed_path,
    enumerate_graphs,
    exponential_graph,
    kneser_pairs,
    lexicographic_product,
    path_graph,
    tensor_product,
)

from conftest import (
    functions_taking,
    interleaved_by_definition,
    oriented_path_template,
    random_graph,
)


TEMPLATES_SMALL = ("t1", "t3", "lex-k2", "arc-graph", "iota-2")


def test_mode_follows_template_and_argument():
    # Undirected exactly when the template has a symmetry and the
    # argument is symmetric; nothing else picks the mode.
    t3, delta = path_template(3), arc_graph_template()
    c5, d = cycle_graph(5), directed_path(2)
    sym_d = Digraph(c5.n, c5.arc_list)
    assert isinstance(lambda_functor(t3, c5), Graph)
    assert lambda_functor(t3, sym_d) == lambda_functor(t3, c5)
    assert isinstance(gamma_functor(t3, sym_d), Graph)
    for t, g in ((t3, d), (delta, c5), (delta, d)):
        assert not isinstance(lambda_functor(t, g), Graph)
        assert not isinstance(gamma_functor(t, g), Graph)
    # The digraph form of a symmetric template on a digraph: one arc of
    # d becomes one copy of the path Q.
    assert lambda_functor(t3, directed_path(1)).arc_count == t3.q.arc_count


def test_no_function_takes_a_derived_or_fixed_option():
    # The functor mode follows from the template and the graph, and the
    # scan, universe and enumeration caps are fixed by the library.
    for parameter in ("undirected", "scan_cap", "universe"):
        assert functions_taking(parameter) == set(), parameter
    assert "pultr.graphs.enumerate_graphs" not in functions_taking("cap")


def test_validate_builtin_templates():
    for name in ("t1", "t3", "t5", "lex-k2", "tensor-c3"):
        t = builtin_template(name)
        assert validate_template(t, undirected_mode=True) == []
    for name in ("arc-graph", "iota-1", "iota-2", "iota-3"):
        assert validate_template(builtin_template(name)) == []


def test_validate_catches_bad_symmetry():
    t3 = path_template(3)
    broken = PultrTemplate(
        "bad", t3.p, t3.q, t3.eps1, t3.eps2, symmetry=(0, 1, 2, 3)
    )
    bad = validate_template(broken, undirected_mode=True)
    assert any("eps1" in msg for msg in bad)
    with pytest.raises(ParameterError):
        require_valid(broken, undirected_mode=True)


def test_validate_catches_non_hom_eps():
    p = complete_graph(2)
    q = Graph(3, [(0, 1)])
    t = PultrTemplate("bad", p, q, (0, 2), (0, 1), symmetry=None)
    bad = validate_template(t)
    assert any("does not preserve arc" in msg for msg in bad)


def test_validate_undirected_requires_symmetry():
    t = arc_graph_template()
    bad = validate_template(t, undirected_mode=True)
    assert any("symmetry" in m for m in bad)


def test_lambda_subdivision(monkeypatch):
    # C_15 is above the isomorphism cap, and its refinement search is fast
    monkeypatch.setattr(engine, "ISO_CAP", 15)
    t3 = path_template(3)
    assert engine.isomorphic(
        lambda_functor(t3, complete_graph(2)), path_graph(3)
    )
    # an edge of C_5 becomes a 3-edge path: C_15
    assert engine.isomorphic(
        lambda_functor(t3, cycle_graph(5)), cycle_graph(15)
    )


def test_lambda_lexicographic():
    lex = lexicographic_template()
    c5 = cycle_graph(5)
    assert engine.isomorphic(
        lambda_functor(lex, c5),
        lexicographic_product(c5, complete_graph(2)),
    )


def test_lambda_tensor_template():
    tk2 = tensor_template(complete_graph(2))
    g = cycle_graph(5)
    got = lambda_functor(tk2, g)
    want = tensor_product(g, complete_graph(2))
    assert engine.isomorphic(got, want)


def test_identity_template():
    t1 = path_template(1)
    for g in (cycle_graph(4), complete_graph(3)):
        assert lambda_functor(t1, g) == g
        assert gamma_functor(t1, g) == g


def test_lambda_size_bound(rng):
    for name in TEMPLATES_SMALL:
        t = builtin_template(name)
        directed = t.symmetry is None
        for _ in range(5):
            g = random_graph(rng, 4, 0.5)
            if directed:
                g = Digraph(g.n, g.arc_list)
            lam = lambda_functor(t, g)
            edges = g.arc_count if directed else g.arc_count // 2 + (
                g.loop_mask.bit_count()
            )
            assert lam.n <= g.n * t.p.n + edges * t.q.n


def test_lambda_on_loop_applies_quotient_literally():
    t3 = path_template(3)
    loop = Graph(1, [(0, 0)])
    lam = lambda_functor(t3, loop)
    # one vertex copy of K_1, one path glued at both ends to it: a 3-cycle
    assert engine.isomorphic(lam, cycle_graph(3))


def test_gamma_walk_power():
    t3 = path_template(3)
    assert engine.isomorphic(gamma_functor(t3, cycle_graph(5)), complete_graph(5))
    gk3 = gamma_functor(t3, complete_graph(3))
    assert set(gk3.arcs()) == {(a, b) for a in range(3) for b in range(3)}


def test_gamma_lexicographic_doubled_kneser():
    lex = lexicographic_template()
    g = gamma_functor(lex, complete_graph(4))
    assert g.n == 12
    assert engine.hom_equivalent(g, kneser_pairs(4))


def test_gamma_exponential():
    tk2 = tensor_template(complete_graph(2))
    got = gamma_functor(tk2, complete_graph(3))
    want = exponential_graph(complete_graph(3), complete_graph(2))
    assert engine.isomorphic(got, want)


def test_gamma_iota_template_matches_direct():
    universe = [Digraph(0), *enumerate_graphs(3, directed=True, all_orders=True)]
    for m in (1, 2, 3):
        t = iota_template(m)
        for h in universe:
            got = gamma_functor(t, h)
            assert type(got) is Digraph, (m, h)
            assert got == interleaved_by_definition(m, h), (m, h)


def test_gamma_shift_template():
    from pultr.duality import shift_graph
    from pultr.graphs import transitive_tournament

    t = shift_template(2)
    assert gamma_functor(t, transitive_tournament(4)) == shift_graph(4, 2)


def test_gamma_undirected_output_symmetric(rng):
    for name in ("t3", "t5", "lex-k2", "tensor-c3"):
        t = builtin_template(name)
        for _ in range(4):
            k = random_graph(rng, 4, 0.5, loops=True)
            out = gamma_functor(t, k)
            assert isinstance(out, Graph) and out.is_symmetric


def test_adjunction_explicit_cases():
    t3 = path_template(3)
    c5 = cycle_graph(5)
    assert verify_adjunction(t3, c5, c5)
    lex = lexicographic_template()
    assert verify_adjunction(lex, c5, complete_graph(4))
    # and both sides are individually what the theorems say
    lam = lambda_functor(t3, c5)
    assert engine.hom_exists(lam, c5) is not None  # C_15 -> C_5 wraps around
    assert engine.hom_exists(c5, gamma_functor(t3, c5)) is not None


def test_unit_and_counit(rng):
    for name in TEMPLATES_SMALL:
        t = builtin_template(name)
        directed = t.symmetry is None
        universe = list(
            enumerate_graphs(3, directed=directed, loops=True, all_orders=True)
        )
        sample = universe[:: max(1, len(universe) // 24)]
        for g in sample:
            assert (
                engine.hom_exists(
                    g, gamma_functor(t, lambda_functor(t, g))
                )
                is not None
            )
            assert (
                engine.hom_exists(
                    lambda_functor(t, gamma_functor(t, g)), g
                )
                is not None
            )


def test_gamma_functoriality(rng):
    # a witness f: K -> K' induces g |-> f.g between the central functors
    for name in ("t3", "arc-graph", "iota-2"):
        t = builtin_template(name)
        directed = t.symmetry is None
        for _ in range(6):
            k = random_graph(rng, 3, 0.6, loops=True)
            k2 = random_graph(rng, 4, 0.7, loops=True)
            if directed:
                k = Digraph(k.n, k.arc_list)
                k2 = Digraph(k2.n, k2.arc_list)
            f = engine.hom_exists(k, k2)
            if f is None:
                continue
            gk = gamma_functor(t, k)
            gk2 = gamma_functor(t, k2)
            verts_k = [w.mapping for w in engine.hom_enumerate(t.p, k)]
            verts_k2 = {
                w.mapping: i
                for i, w in enumerate(engine.hom_enumerate(t.p, k2))
            }
            induced = tuple(
                verts_k2[tuple(f.mapping[x] for x in g)] for g in verts_k
            )
            assert engine.verify_witness(gk, gk2, induced)


def test_lambda_functoriality(rng):
    # a witness f: G -> G' induces Lambda(G) -> Lambda(G') sending the
    # P-copy at u to the P-copy at f(u) and Q-copies along edge images
    for name in ("t3", "arc-graph"):
        t = builtin_template(name)
        directed = t.symmetry is None
        for _ in range(6):
            g = random_graph(rng, 3, 0.6)
            g2 = random_graph(rng, 4, 0.6)
            if directed:
                g = Digraph(g.n, g.arc_list)
                g2 = Digraph(g2.n, g2.arc_list)
            f = engine.hom_exists(g, g2)
            if f is None:
                continue
            lam, classes, edges = _lambda_with_labels(t, g)
            lam2, classes2, edges2 = _lambda_with_labels(t, g2)
            eindex2 = {e: i for i, e in enumerate(edges2)}
            # The P-copy at u holds vertices u*|P| + p of the disjoint
            # union, and the Q-copy at edge e follows all P-copies.
            pn, qn = t.p.n, t.q.n
            mapping = [None] * lam.n
            for x, vertex in enumerate(classes):
                if x < g.n * pn:
                    u, p = divmod(x, pn)
                    target = classes2[f.mapping[u] * pn + p]
                else:
                    ei, w = divmod(x - g.n * pn, qn)
                    u, v = edges[ei]
                    fu, fv = f.mapping[u], f.mapping[v]
                    if directed:
                        e2 = eindex2[(fu, fv)]
                    else:
                        e2 = eindex2[(min(fu, fv), max(fu, fv))]
                        if (fu, fv) != edges2[e2] and fu != fv:
                            # edge got flipped: compose with the symmetry
                            w = t.symmetry[w]
                    target = classes2[g2.n * pn + e2 * qn + w]
                assert mapping[vertex] in (None, target)
                mapping[vertex] = target
            assert engine.verify_witness(lam, lam2, mapping)


def test_undirected_edge_orientation_is_immaterial(rng, monkeypatch):
    # laying Q with eps1/eps2 swapped gives an isomorphic result, by the
    # symmetry automorphism; some results are above the isomorphism cap
    monkeypatch.setattr(engine, "ISO_CAP", 40)
    for name in ("t3", "t5", "lex-k2", "tensor-c3"):
        t = builtin_template(name)
        swapped = PultrTemplate(
            t.name + "-swapped", t.p, t.q, t.eps2, t.eps1, t.symmetry
        )
        assert validate_template(swapped, undirected_mode=True) == []
        for _ in range(4):
            g = random_graph(rng, 4, 0.5, loops=True)
            assert engine.isomorphic(
                lambda_functor(t, g), lambda_functor(swapped, g)
            )


def test_product_commutation():
    assert product_commutation_check(
        arc_graph_template(), directed_cycle(3), directed_cycle(3)
    )
    assert product_commutation_check(
        path_template(3), complete_graph(2), complete_graph(2)
    )
    t1 = path_template(1)
    assert product_commutation_check(t1, cycle_graph(4), complete_graph(2))


def test_oriented_path_template_adjunction():
    # the endpoint assignment in oriented_path_template is the one under
    # which the subset-tuple adjoint satisfies the biconditional; spot
    # check the template alone via the left functor: Lambda replaces each
    # arc by a copy of the path
    t = oriented_path_template("11")
    lam = lambda_functor(t, directed_path(1))
    assert engine.isomorphic(lam, directed_path(2))
