import math
from fractions import Fraction
from itertools import product

import pytest

from pultr import chromatic, engine, limits
from pultr.adjoints import arc_graph, omega_odd_path
from pultr.chromatic import (
    chromatic_number,
    circular_bound_via_powers,
    circular_chromatic_number,
    circular_colouring,
    circular_gallai_roy_check,
    gallai_roy_orientation,
    greedy_clique,
    k_colourable,
    reversal_path_specs,
    reversal_paths,
)
from pultr.errors import BudgetExceededError, ParameterError
from pultr.graphs import (
    Graph,
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
    is_connected,
    kneser_pairs,
    lexicographic_product,
    orient_edges,
    oriented_path,
    path_graph,
    symmetrization,
)

from conftest import random_graph


def iso_classes(n, connected_only=False):
    out = []
    for g in enumerate_graphs(
        n, directed=False, loops=False, all_orders=True, up_to_iso=True
    ):
        if connected_only and not is_connected(g):
            continue
        out.append(g)
    return out


def test_chromatic_basics():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(path_graph(4)) == 2
    assert chromatic_number(Graph(3)) == 1
    assert chromatic_number(Graph(0)) == 0
    with pytest.raises(ParameterError):
        chromatic_number(Graph(1, [(0, 0)]))


def test_chromatic_matches_hom_search():
    # the colouring search and the raw engine must agree: least n with a
    # homomorphism into K_n
    for g in iso_classes(5):
        if g.arc_count == 0:
            continue
        chi = chromatic_number(g)
        assert engine.hom_exists(g, complete_graph(chi)) is not None
        assert engine.hom_exists(g, complete_graph(chi - 1)) is None


def test_k_colourable_returns_proper_colouring(rng):
    for _ in range(30):
        g = random_graph(rng, 7, 0.5)
        chi = chromatic_number(g)
        col = k_colourable(g, chi)
        assert col is not None
        assert all(col[u] != col[v] for u, v in g.edges() if u != v)
        assert max(col, default=-1) < chi


def test_k_colourable_rejects_an_invalid_colouring(monkeypatch):
    # A seed clique that repeats a vertex is counted as two assigned
    # vertices, so the search stops with one vertex still uncoloured.
    g = path_graph(3)
    assert k_colourable(g, 3) is not None
    monkeypatch.setattr(chromatic, "greedy_clique", lambda g: [0, 0])
    with pytest.raises(RuntimeError, match="invalid"):
        k_colourable(g, 3)


def _scan_dsatur(g, k):
    """(colouring or None, decisions) of the search that k_colourable
    makes, with each pick a scan of all n vertices for the largest
    (saturation, degree, -index)."""
    n = g.n
    if n == 0:
        return [], 0
    adj = g.out_masks
    clique = greedy_clique(g)
    if k == 0 or len(clique) > k:
        return None, 0
    colours = [-1] * n
    used = [0] * n
    for c, v in enumerate(clique):
        colours[v] = c
        for w in range(n):
            if adj[v] >> w & 1:
                used[w] |= 1 << c
    decisions = 0

    def dfs(assigned, max_used):
        nonlocal decisions
        if assigned == n:
            return True
        v = max(
            (u for u in range(n) if colours[u] < 0),
            key=lambda u: (used[u].bit_count(), adj[u].bit_count(), -u),
        )
        for c in range(min(k, max_used + 2)):
            if used[v] >> c & 1:
                continue
            decisions += 1
            colours[v] = c
            touched = [
                w
                for w in range(n)
                if adj[v] >> w & 1 and colours[w] < 0 and not used[w] >> c & 1
            ]
            for w in touched:
                used[w] |= 1 << c
            dead = any(used[w] == (1 << k) - 1 for w in touched)
            if not dead and dfs(assigned + 1, max(max_used, c)):
                return True
            for w in touched:
                used[w] &= ~(1 << c)
            colours[v] = -1
        return False

    return (colours if dfs(len(clique), len(clique) - 1) else None), decisions


def _decisions_are_exact(g, k, expect, decisions):
    """k_colourable(g, k) returns `expect` within `decisions` decisions
    and runs out of budget with one fewer."""
    with limits.scope(budget=decisions):
        assert k_colourable(g, k) == expect
    if decisions:
        with limits.scope(budget=decisions - 1):
            with pytest.raises(BudgetExceededError):
                k_colourable(g, k)


def test_k_colourable_matches_the_scan_oracle():
    """Same colouring and the same decision count as the scan-based
    DSATUR on every loop-free graph of order <= 5, for every k."""
    cases = 0
    for g in enumerate_graphs(5, directed=False, loops=False, all_orders=True):
        for k in range(g.n + 1):
            _decisions_are_exact(g, k, *_scan_dsatur(g, k))
            cases += 1
    assert cases == 6504


def test_k_colourable_decision_counts():
    omega = omega_odd_path(3, complete_graph(4))
    assert _scan_dsatur(omega, 3) == (None, 3577)
    _decisions_are_exact(omega, 3, None, 3577)
    delta = symmetrization(arc_graph(complete_graph(8)))
    _decisions_are_exact(delta, 4, None, 10776)
    five = k_colourable(delta, 5)
    assert five is not None and max(five) == 4
    _decisions_are_exact(delta, 5, five, 16431)


def test_greedy_clique_is_clique():
    g = lexicographic_product(cycle_graph(5), complete_graph(2))
    q = greedy_clique(g)
    assert all(g.has_arc(u, v) for u in q for v in q if u != v)


def test_chromatic_examples_from_powers():
    assert chromatic_number(
        lexicographic_product(cycle_graph(5), complete_graph(2))
    ) == 5
    assert chromatic_number(omega_odd_path(3, complete_graph(4))) == 4


def test_budget_propagates():
    with limits.scope(budget=2), pytest.raises(BudgetExceededError):
        chromatic_number(kneser_pairs(5))


def test_circular_chromatic_values():
    assert circular_chromatic_number(cycle_graph(5)) == Fraction(5, 2)
    assert circular_chromatic_number(cycle_graph(7)) == Fraction(7, 3)
    assert circular_chromatic_number(complete_graph(4)) == Fraction(4)
    for n, m in ((5, 2), (7, 3), (8, 3), (4, 1)):
        assert circular_chromatic_number(circular_complete(n, m)) == Fraction(n, m)


def test_circular_chromatic_edge_cases():
    assert circular_chromatic_number(Graph(3)) == Fraction(1)
    assert circular_chromatic_number(complete_graph(1)) == Fraction(1)
    frac, witness = circular_colouring(cycle_graph(9))
    assert frac == Fraction(9, 4)
    assert engine.verify_witness(cycle_graph(9), circular_complete(9, 4), witness.mapping)


def test_fraction_scan_walks_every_reduced_fraction_in_order():
    # The Farey walk against the sorted list of all reduced n/m with
    # 2m <= n <= |V|.
    for order in range(60):
        fracs = sorted(
            (Fraction(n, m), n, m)
            for n in range(2, order + 1)
            for m in range(1, n // 2 + 1)
            if math.gcd(n, m) == 1
        )
        assert list(chromatic._fraction_scan(Graph(order))) == fracs, order


def test_chi_c_between_chi_minus_one_and_chi():
    for g in iso_classes(6, connected_only=True):
        chi = chromatic_number(g)
        chi_c = circular_chromatic_number(g)
        assert chi - 1 < chi_c <= chi, g


def test_denominator_bound_is_safe():
    # scanning with denominators up to 2|V| finds nothing smaller than the
    # bounded scan (empirical justification for the m <= |V| bound);
    # ascending order with first-success cutoff, by monotonicity
    for g in iso_classes(5, connected_only=True):
        if g.arc_count == 0:
            continue
        chi_c = circular_chromatic_number(g)
        chi = chromatic_number(g)
        fracs = sorted(
            (Fraction(n, m), n, m)
            for m in range(1, 11)
            for n in range(2 * m, chi * m + 1)
            if math.gcd(n, m) == 1
        )
        best = None
        for value, n, m in fracs:
            if engine.hom_exists(g, circular_complete(n, m)) is not None:
                best = value
                break
        assert best == chi_c, g


def test_gallai_roy_certificates():
    cert = gallai_roy_orientation(cycle_graph(5), 3)
    assert cert is not None
    oriented = orient_edges(cycle_graph(5), cert.orientation)
    assert engine.hom_exists(directed_path(3), oriented) is None
    assert cert.family == (("dP3", False),)
    assert gallai_roy_orientation(complete_graph(3), 2) is None
    vac = gallai_roy_orientation(complete_graph(1), 1)
    assert vac is not None and vac.orientation == ""


@pytest.mark.parametrize("g", [cycle_graph(5), kneser_pairs(5)], ids=["C5", "K(5,2)"])
def test_gallai_roy_witness_is_the_colouring(monkeypatch, g):
    # The witness is the colouring the orientation follows, so no search
    # into K3 is made for it.
    calls = []
    hom_exists = engine.hom_exists
    monkeypatch.setattr(
        engine, "hom_exists", lambda *args: calls.append(args) or hom_exists(*args)
    )
    cert = gallai_roy_orientation(g, 3)
    assert calls == []
    w = cert.witness
    assert (w.source_order, w.target_order) == (g.n, 3)
    assert engine.verify_witness(g, complete_graph(3), w.mapping)
    edges = sorted(g.edges())
    assert cert.orientation == "".join(
        "1" if w.mapping[u] < w.mapping[v] else "0" for u, v in edges
    )


def test_orientation_scans_are_capped():
    # K_7 has 21 edges, above ORIENTATION_SCAN_CAP; a certificate needs no
    # scan, a refutation does.
    k7 = complete_graph(7)
    assert gallai_roy_orientation(k7, 7) is not None
    with pytest.raises(ParameterError, match="exceeds cap 18"):
        gallai_roy_orientation(k7, 3)
    with pytest.raises(ParameterError, match="exceeds cap 18"):
        circular_gallai_roy_check(k7, 5, 2)


def test_gallai_roy_exact_threshold():
    for g in iso_classes(5):
        if g.arc_count == 0:
            continue
        chi = chromatic_number(g)
        assert gallai_roy_orientation(g, chi) is not None
        if chi > 1:
            assert gallai_roy_orientation(g, chi - 1) is None


def test_reversal_paths():
    assert len(reversal_paths(5, 1)) == 6
    assert list(reversal_path_specs(3, 0)) == ["111"]
    assert len(reversal_paths(7, 2)) == 1 + 7 + 21
    # every member maps onto the symmetrized path
    target = symmetrization(directed_path(4))
    for p in reversal_paths(4, 2):
        assert engine.hom_exists(p, target) is not None
    with pytest.raises(ParameterError):
        list(reversal_path_specs(3, 3))


# The orientation strings of the 30 oriented paths of 1-4 arcs.
PATH_SPECS = [
    "".join(bits) for length in range(1, 5) for bits in product("01", repeat=length)
]


def test_path_map_agrees_with_the_search():
    """The forest walk, as the Gallai-Roy checks call it, finds a map
    exactly when hom_exists does, and every map it returns verifies: all
    30 oriented paths of 1-4 arcs into every loop-free digraph of order
    1-3."""
    targets = list(enumerate_graphs(3, directed=True, loops=False, all_orders=True))
    assert (len(PATH_SPECS), len(targets)) == (30, 69)
    for spec in PATH_SPECS:
        path = oriented_path(spec)
        plan = engine._forest_plan(path, path.n - 1)
        for d in targets:
            mapping = engine._forest_walk(path, plan, d)
            assert (mapping is None) == (engine.hom_exists(path, d) is None), (spec, d)
            assert mapping is None or engine.verify_witness(path, d, mapping)


def test_path_reversal_symmetry():
    """Read from its other end, oriented_path(s) is oriented_path(s[::-1])
    with every arc reversed, so P_s -> D exactly when
    P_{s[::-1]} -> reverse(D): all 30 specs of 1-4 arcs, on every
    loop-free digraph of order 1-3."""
    targets = list(enumerate_graphs(3, directed=True, loops=False, all_orders=True))
    assert len(PATH_SPECS) * len(targets) == 2070
    for spec in PATH_SPECS:
        path, back = oriented_path(spec), oriented_path(spec[::-1])
        assert engine.isomorphic(back, path.reverse()), spec
        plan = engine._forest_plan(path, path.n - 1)
        back_plan = engine._forest_plan(back, back.n - 1)
        for d in targets:
            assert (engine._forest_walk(path, plan, d) is None) == (
                engine._forest_walk(back, back_plan, d.reverse()) is None
            ), (spec, d)


def test_circular_gallai_roy_examples():
    cert = circular_gallai_roy_check(cycle_graph(5), 5, 2)
    assert cert is not None
    assert all(not hit for _, hit in cert.family)
    assert len(cert.family) == 6  # 1 + 5 reversal paths
    assert circular_gallai_roy_check(cycle_graph(5), 7, 3) is None
    k2 = complete_graph(2)
    cert = circular_gallai_roy_check(k2, 2, 1)
    assert cert is not None and cert.orientation == "1"
    with pytest.raises(ParameterError):
        circular_gallai_roy_check(cycle_graph(5), 6, 2)


@pytest.mark.parametrize("n, m", [(6, 2), (5, 3), (1, 0), (0, 1)])
def test_circular_gallai_roy_rejects_what_circular_complete_rejects(n, m):
    # Not reduced, below 2, and not positive: one guard, one message.
    with pytest.raises(ParameterError) as want:
        circular_complete(n, m)
    with pytest.raises(ParameterError) as got:
        circular_gallai_roy_check(cycle_graph(5), n, m)
    assert str(got.value) == str(want.value)


def test_circular_gallai_roy_iff_hom_small():
    # module-level slice of the exhaustive acceptance check
    for g in iso_classes(4):
        for n, m in ((5, 2), (3, 1)):
            cert = circular_gallai_roy_check(g, n, m)
            hom = engine.hom_exists(g, circular_complete(n, m)) is not None
            assert (cert is not None) == hom, (g, n, m)


def test_powers_bound():
    rep = circular_bound_via_powers(cycle_graph(5), 2, 1)
    assert rep.value == Fraction(5, 2) and rep.attained_at == (2, 1)
    rep = circular_bound_via_powers(complete_graph(3), 1, 1)
    assert rep.value == Fraction(3) and rep.attained_at == (0, 0)
    # skipped grid points are reported: (0, 1) has denominator 0
    rep = circular_bound_via_powers(complete_graph(2), 0, 1)
    assert (0, 1) in rep.skipped


def test_powers_bound_is_certified_upper_value():
    # every success value certifies chi_c <= value, so the minimum success
    # sits at or above chi_c, with equality when the grid hits it
    for g in (cycle_graph(5), cycle_graph(7), complete_graph(3)):
        rep = circular_bound_via_powers(g, 2, 1)
        assert rep.value >= circular_chromatic_number(g)
