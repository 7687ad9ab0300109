import math
from itertools import combinations, permutations, product

import pytest

from pultr.errors import ParameterError, SizeGuardError
from pultr.graphs import (
    Digraph,
    Graph,
    as_graph,
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
    stream_index,
    symmetrization,
    tensor_product,
    transitive_tournament,
)
from pultr import engine, limits
from pultr.functors import tensor_template

from conftest import orbit_key, random_digraph, random_graph


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


def test_graph_rows_are_both_arcs_of_each_edge(rng):
    # Graph ORs u -> v and v -> u into the rows in one pass; the rows are
    # those of the Digraph on both arcs, for edges in either order, with
    # loops and repeats, and a generator is read once
    for n in range(6):
        for _ in range(20):
            edges = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))
            ]
            arcs = [a for u, v in edges for a in ((u, v), (v, u))]
            assert Graph(n, edges).out_masks == Digraph(n, arcs).out_masks
            assert Graph(n, iter(edges)).out_masks == Digraph(n, arcs).out_masks
    # the checks and messages of Digraph, on the edge as given
    for n, edges, message in [
        (-1, [], "order must be non-negative, got -1"),
        (3, [(0, 1), (1, 3)], "arc (1,3) out of range for order 3"),
        (3, [(3, 1)], "arc (3,1) out of range for order 3"),
        (3, [(0, -1)], "arc (0,-1) out of range for order 3"),
    ]:
        with pytest.raises(ParameterError) as e:
            Graph(n, edges)
        assert str(e.value) == message


def _transpose(g):
    """The transposed rows of g, read arc by arc from the out-rows."""
    return tuple(
        sum(1 << u for u in range(g.n) if g.out_masks[u] >> v & 1)
        for v in range(g.n)
    )


def test_in_rows_are_the_transpose(rng):
    for n in range(8):
        for p in (0.2, 0.5, 0.9):
            d = random_digraph(rng, n, p)
            assert d.in_masks == _transpose(d)
    # a long cycle, whose in-row v holds only its predecessor
    cycle = directed_cycle(1000)
    assert cycle.in_masks == tuple(1 << (v - 1) % 1000 for v in range(1000))


def test_every_graph_construction_gives_symmetric_rows(rng):
    """A Graph's in-rows are its out-rows and its symmetry is not
    computed, so every construction that returns a Graph must give rows
    equal to their own transpose."""
    from pultr.adjoints import omega_odd_path
    from pultr.functors import builtin_template, gamma_functor

    c5, k3 = cycle_graph(5), complete_graph(3)
    looped = Graph(3, [(0, 1), (1, 1), (1, 2)])
    digraphs = [random_digraph(rng, 5, 0.3) for _ in range(5)]
    made = [
        Graph(4, [(0, 1), (2, 2), (3, 1)]),
        looped,
        c5,
        k3,
        path_graph(3),
        circular_complete(7, 3),
        kneser_pairs(5),
        as_graph(Digraph(2, [(0, 1), (1, 0), (1, 1)])),
        *map(symmetrization, digraphs),
        tensor_product(c5, looped),
        lexicographic_product(c5, complete_graph(2)),
        exponential_graph(k3, path_graph(1)),
        c5.relabel([2, 0, 4, 1, 3]),
        looped.relabel([2, 1, 0]),
        kneser_pairs(5).induced([9, 0, 4, 7]),
        *enumerate_graphs(3, directed=False, loops=True, all_orders=True),
        *enumerate_graphs(4, directed=False, loops=False, up_to_iso=True),
        omega_odd_path(3, k3),
        omega_odd_path(5, c5),
        gamma_functor(builtin_template("t3"), c5),
        gamma_functor(builtin_template("lex-k2"), looped),
        gamma_functor(builtin_template("tensor-c3"), k3),
    ]
    for g in made:
        assert isinstance(g, Graph), g
        assert g.out_masks == _transpose(g), g
        assert g.in_masks == g.out_masks and g.is_symmetric
    d = Digraph(3, [(0, 1), (1, 1)])
    assert not d.is_symmetric and d.in_masks == _transpose(d)


def test_relabel_and_equality():
    g = cycle_graph(5)
    h = g.relabel([1, 2, 3, 4, 0])
    assert g == h  # cycles are invariant under rotation
    assert isinstance(h, Graph)
    assert hash(g) == hash(h)


def test_induced_checks_its_vertex_list():
    g = Digraph(3, [(0, 1), (2, 2)])
    assert g.induced([2, 0, 1]) == Digraph(3, [(0, 0), (1, 2)])
    assert g.induced([]) == Digraph(0)
    for verts in ([-1], [0, 0], [5], [1, 3]):
        with pytest.raises(ParameterError):
            g.induced(verts)


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


def test_undirected_inputs_may_be_symmetric_digraphs():
    # as_graph views a symmetric Digraph as a Graph; loop_free_graph also
    # refuses a loop.
    sym = Digraph(2, [(0, 1), (1, 0)])
    k2 = complete_graph(2)
    assert orient_edges(sym, "1") == Digraph(2, [(0, 1)])
    assert list(orientations(sym)) == [Digraph(2, [(1, 0)]), Digraph(2, [(0, 1)])]
    for bad in (directed_path(1), Digraph(2, [(0, 1), (1, 0), (1, 1)])):
        with pytest.raises(ParameterError):
            orient_edges(bad, "1")
        with pytest.raises(ParameterError):
            next(orientations(bad))
    assert lexicographic_product(sym, k2) == lexicographic_product(k2, k2)
    assert exponential_graph(sym, sym) == exponential_graph(k2, k2)
    assert tensor_template(sym) == tensor_template(k2)


def test_orient_edges_spec_length():
    g = cycle_graph(3)
    d = orient_edges(g, "110")
    assert d.arc_count == 3
    with pytest.raises(ParameterError):
        orient_edges(g, "1")


def test_orientation_strings_hold_only_0_and_1():
    assert oriented_path("") == Digraph(1)
    assert oriented_path("10") == Digraph(3, [(0, 1), (2, 1)])
    assert orient_edges(path_graph(2), "10") == Digraph(3, [(0, 1), (2, 1)])
    for bad in ("f", "r", "fr", "1f", "1 0", [1, 0], (True, False), b"10", 10):
        with pytest.raises(ParameterError, match="string of 0s and 1s"):
            oriented_path(bad)
        with pytest.raises(ParameterError, match="string of 0s and 1s"):
            orient_edges(path_graph(2), bad)


def test_odd_girth():
    assert odd_girth(cycle_graph(5)) == 5
    assert odd_girth(kneser_pairs(4)) == math.inf
    assert odd_girth(complete_graph(4)) == 3
    assert odd_girth(Graph(2, [(0, 0)])) == 1
    assert odd_girth(path_graph(6)) == math.inf


def test_odd_girth_is_the_least_odd_cycle_that_maps():
    # C_c -> g for odd c exactly when g has an odd closed walk of length
    # c, and a shortest odd cycle has at most n vertices.
    for g in enumerate_graphs(5, directed=False, loops=True, all_orders=True):
        if g.loop_mask:
            assert odd_girth(g) == 1
            continue
        cycles = (
            c for c in range(3, g.n + 1, 2)
            if engine.hom_exists(cycle_graph(c), g) is not None
        )
        assert odd_girth(g) == next(cycles, math.inf), g


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
    with pytest.raises(ParameterError, match="order 6 exceeds cap 5$"):
        next(enumerate_graphs(6, directed=True))
    with pytest.raises(ParameterError, match="order 7 exceeds cap 6$"):
        next(enumerate_graphs(7))
    with pytest.raises(ParameterError, match="order -1 is negative$"):
        next(enumerate_graphs(-1, directed=True))
    assert list(enumerate_graphs(0, directed=True)) == [Digraph(0, [])]
    assert list(enumerate_graphs(0, directed=True, up_to_iso=True)) == [Digraph(0, [])]


def test_enumerate_graphs_follows_the_slot_order():
    """Bit i of the counter s selects slot i; slots run over (u, v) in
    lexicographic order, v >= u for graphs, u != v without loops."""
    for directed, orders in ((True, 3), (False, 4)):
        for loops in (True, False):
            expected = []
            for k in range(1, orders + 1):
                slots = [
                    (u, v)
                    for u in range(k)
                    for v in range(k)
                    if (directed or v >= u) and (loops or u != v)
                ]
                for s in range(1 << len(slots)):
                    chosen = [slot for i, slot in enumerate(slots) if s >> i & 1]
                    if directed:
                        expected.append(Digraph(k, chosen))
                    else:
                        expected.append(Graph(k, chosen))
            got = list(
                enumerate_graphs(
                    orders, directed=directed, loops=loops, all_orders=True
                )
            )
            assert [type(g) for g in got] == [type(g) for g in expected]
            assert got == expected


def test_labelled_digraph_positions():
    """What the duality pass relies on: the digraph of order k is number
    offset_k + sum(out_masks[u] << u*k) + 1 of the labelled stream, where
    offset_k counts the digraphs of order below k; the loop-free stream is
    its loop-free subsequence; and the labelled graph after a loop-free g
    is g with the loop (0, 0)."""
    labelled = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
    assert len(labelled) == 2 + 16 + 512
    for position, g in enumerate(labelled, 1):
        k = g.n
        offset = sum(1 << j * j for j in range(1, k))
        s = sum(row << u * k for u, row in enumerate(g.out_masks))
        assert position == offset + s + 1
    loop_free = list(enumerate_graphs(3, directed=True, loops=False, all_orders=True))
    assert loop_free == [g for g in labelled if not g.loop_mask]
    for i, g in enumerate(labelled):
        if not g.loop_mask:
            assert labelled[i + 1] == Digraph(g.n, list(g.arcs()) + [(0, 0)])


def test_enumerate_invariants():
    for g in enumerate_graphs(3, directed=False, loops=True, all_orders=True):
        assert isinstance(g, Graph) and g.is_symmetric
        for u, v in g.arcs():
            assert 0 <= u < g.n and 0 <= v < g.n


def _labelled_keys(graphs, directed, loops):
    """The orbit key of each graph of a labelled stream, in order,
    relabelling once per class: every position of an orbit is keyed by
    the least, when the stream first meets the orbit."""
    keys = {}
    for g in graphs:
        position = stream_index(g, directed, loops)
        if position not in keys:
            orbit = {
                stream_index(g.relabel(perm), directed, loops)
                for perm in permutations(range(g.n))
            }
            keys.update(dict.fromkeys(orbit, min(orbit)))
        yield keys[position]


def _burnside(n, directed, loops):
    """The isomorphism classes of order n by Burnside's lemma: the mean,
    over the permutations p, of 2 to the number of cycles of p on the
    slots (arcs, or edges {u, v} as pairs u <= v)."""
    total = 0
    for p in permutations(range(n)):
        slots = {
            (u, v)
            for u in range(n)
            for v in range(0 if directed else u, n)
            if loops or u != v
        }
        cycles = 0
        while slots:
            cycles += 1
            u, v = slots.pop()
            while True:
                u, v = p[u], p[v]
                if not directed and u > v:
                    u, v = v, u
                if (u, v) not in slots:
                    break
                slots.remove((u, v))
        total += 1 << cycles
    return total // math.factorial(n)


def test_orbit_keys_are_invariant_under_relabelling(rng):
    """On a seeded sample of the 2^20 loop-free digraphs on five
    vertices: a digraph and a relabelling of it share their orbit key,
    the key is the position of one of the 9 608 first members that
    up_to_iso yields, and that first member is isomorphic to both."""
    kind = dict(directed=True, loops=False)
    firsts = {
        stream_index(g, **kind): g
        for g in enumerate_graphs(5, up_to_iso=True, **kind)
    }
    assert len(firsts) == 9608
    slots = [(u, v) for u in range(5) for v in range(5) if u != v]
    for _ in range(40):
        d = Digraph(5, [slot for slot in slots if rng.random() < 0.3])
        perm = list(range(5))
        rng.shuffle(perm)
        key = orbit_key(d, **kind)
        assert orbit_key(d.relabel(perm), **kind) == key
        assert engine.isomorphic(firsts[key], d)


def test_up_to_iso_yields_the_first_members_one_order_up(rng):
    """The 9 608 loop-free digraphs on five vertices that up_to_iso
    yields come in stream order, from the edgeless one, and on a seeded
    sample each is the first member of its class: its orbit key is its
    own position."""
    kind = dict(directed=True, loops=False)
    firsts = list(enumerate_graphs(5, up_to_iso=True, **kind))
    positions = [stream_index(g, **kind) for g in firsts]
    assert len(firsts) == 9608
    assert positions == sorted(set(positions))
    assert positions[0] == stream_index(Digraph(5), **kind)
    for i in rng.sample(range(len(firsts)), 300):
        assert orbit_key(firsts[i], **kind) == positions[i]


@pytest.mark.parametrize("directed, loops", list(product((True, False), repeat=2)))
def test_stream_index_is_the_position(directed, loops):
    nmax = 4 if directed else 5
    graphs = enumerate_graphs(nmax, directed, loops, all_orders=True)
    for position, g in enumerate(graphs):
        assert stream_index(g, directed, loops) == position


@pytest.mark.parametrize(
    "n, directed, loops, classes",
    [(4, True, True, 3044), (6, False, False, 156), (5, False, True, 544)],
)
def test_orbit_keys_count_the_classes_one_order_up(
    rng, n, directed, loops, classes
):
    """up_to_iso yields as many graphs as Burnside's lemma counts
    classes, and on a seeded sample each is its own orbit key."""
    firsts = list(enumerate_graphs(n, directed, loops, up_to_iso=True))
    assert len(firsts) == _burnside(n, directed, loops) == classes
    for g in rng.sample(firsts, 60):
        assert orbit_key(g, directed, loops) == stream_index(g, directed, loops)


# Isomorphism classes on 1, 2, ... vertices.
CLASS_COUNTS = [
    pytest.param(True, False, (1, 3, 16, 218), id="loop-free-digraphs"),
    pytest.param(True, True, (2, 10, 104), id="digraphs-with-loops"),
    pytest.param(False, False, (1, 2, 4, 11, 34), id="graphs"),
    pytest.param(False, True, (2, 6, 20, 90), id="graphs-with-loops"),
]


@pytest.mark.parametrize("directed, loops, counts", CLASS_COUNTS)
def test_orbit_keys_are_a_complete_invariant(directed, loops, counts):
    """The orbit key of each graph of enumerate_graphs, in its order: a
    key is the position of its class's first member, every member is
    isomorphic to that first member, and the first members of one order
    are pairwise non-isomorphic; engine.isomorphic checks the keys.
    up_to_iso=True yields exactly the first members."""
    nmax = len(counts)
    graphs = list(enumerate_graphs(nmax, directed, loops, all_orders=True))
    keys = list(_labelled_keys(graphs, directed, loops))
    first = {}
    for position, (g, key) in enumerate(zip(graphs, keys)):
        if key == position:
            first[key] = g
        assert engine.isomorphic(g, first[key])
    by_order = {}
    for g in first.values():
        by_order.setdefault(g.n, []).append(g)
    assert tuple(len(by_order[k]) for k in range(1, nmax + 1)) == counts
    for members in by_order.values():
        for a, b in combinations(members, 2):
            assert not engine.isomorphic(a, b)
    firsts = list(
        enumerate_graphs(nmax, directed, loops, all_orders=True, up_to_iso=True)
    )
    assert firsts == list(first.values())
    assert {type(g) for g in firsts} == {Digraph if directed else Graph}


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


def _has_dominated_vertex(d):
    """Whether some u has a w != u with N_out(u)-{u} <= N_out(w),
    N_in(u)-{u} <= N_in(w), and a loop at w if u has one."""
    out, inn, loops = d.out_masks, d.in_masks, d.loop_mask
    return any(
        not out[u] & ~(1 << u) & ~out[w]
        and not inn[u] & ~(1 << u) & ~inn[w]
        and (loops >> w & 1 or not loops >> u & 1)
        for u, w in permutations(range(d.n), 2)
    )


def test_dominated_reduction_leaves_no_dominated_vertex():
    # every graph with loops on at most 4 vertices and every digraph
    # with loops on at most 3: a looped neighbour of u may dominate it
    assert dominated_reduction(Digraph(2, [(0, 1), (1, 1)])) == Digraph(1, [(0, 0)])
    for directed, nmax in ((False, 4), (True, 3)):
        for g in enumerate_graphs(nmax, directed=directed, loops=True, all_orders=True):
            r = dominated_reduction(g)
            assert not _has_dominated_vertex(r)
            assert engine.hom_equivalent(g, r)


def test_size_guard():
    with limits.scope(size_guard=10):
        with pytest.raises(SizeGuardError):
            exponential_graph(complete_graph(3), complete_graph(3))
    # K_{n/m} has n vertices and n(n - 2m + 1) arcs, checked before the build.
    for n, m in ((4, 1), (5, 2), (7, 2), (7, 3), (9, 4)):
        size = n + n * (n - 2 * m + 1)
        g = circular_complete(n, m)
        assert g.n + g.arc_count == size
        with limits.scope(size_guard=size):
            assert circular_complete(n, m) == g
        with limits.scope(size_guard=size - 1), pytest.raises(SizeGuardError):
            circular_complete(n, m)
    # K(n,2) has C(n,2) vertices and C(n,2) C(n-2,2) arcs, checked before
    # the build.
    for n in (2, 3, 4, 5, 7):
        size = math.comb(n, 2) * (1 + math.comb(n - 2, 2))
        g = kneser_pairs(n)
        assert g.n + g.arc_count == size
        with limits.scope(size_guard=size):
            assert kneser_pairs(n) == g
        with limits.scope(size_guard=size - 1), pytest.raises(SizeGuardError):
            kneser_pairs(n)
    # guard restored afterwards
    assert limits.size_guard() == limits.DEFAULT_SIZE_GUARD
