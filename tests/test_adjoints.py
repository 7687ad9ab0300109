import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from pultr import engine, limits, suites
from pultr.adjoints import (
    arc_graph,
    arc_graph_left,
    interleaved_adjoint,
    omega_odd_path,
    omega_oriented_path,
    power_functor,
    root_functor,
    root_size_estimate,
)
from conftest import interleaved_by_definition, oriented_path_template, random_graph
from pultr.errors import ParameterError, SizeGuardError
from pultr.functors import (
    arc_graph_template,
    builtin_template,
    gamma_functor,
    lambda_functor,
    path_template,
    verify_adjunction,
)
from pultr.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    directed_cycle,
    dominated_reduction,
    enumerate_graphs,
    exponential_graph,
    is_connected,
    oriented_path,
    symmetrization,
    transitive_tournament,
)


def brute_omega3(h):
    """Independent oracle: build the m=3 subset-tuple graph straight from
    the definition text, over explicit couples (u, U)."""
    couples = []
    for u in range(h.n):
        nbrs = [v for v in range(h.n) if h.has_arc(u, v)]
        for r in range(len(nbrs) + 1):
            for sub in combinations(nbrs, r):
                couples.append((u, frozenset(sub)))
    couples.sort(key=lambda c: (c[0], sum(1 << x for x in c[1])))
    edges = []
    for i, (u, us) in enumerate(couples):
        for j in range(i, len(couples)):
            v, vs = couples[j]
            if u in vs and v in us and all(
                h.has_arc(a, b) for a in us for b in vs
            ):
                edges.append((i, j))
    return Graph(len(couples), edges)


def test_omega3_matches_definition_oracle():
    for h in (complete_graph(2), complete_graph(3), cycle_graph(5)):
        assert omega_odd_path(3, h) == brute_omega3(h)


def test_omega_rejects_even_and_unit():
    k2 = complete_graph(2)
    for m in (4, 0, -1):
        with pytest.raises(ParameterError, match="m must be a positive odd"):
            omega_odd_path(m, k2)
        with pytest.raises(ParameterError, match="s must be a positive odd"):
            root_size_estimate(1, m, k2)
    with pytest.raises(ParameterError, match="identity functor"):
        omega_odd_path(1, k2)


def test_omega_adjunction_small():
    t3 = path_template(3)
    h = complete_graph(2)
    om = omega_odd_path(3, h)
    for g in enumerate_graphs(3, directed=False, loops=True, all_orders=True):
        left = engine.hom_exists(gamma_functor(t3, g), h) is not None
        right = engine.hom_exists(g, om) is not None
        assert left == right, g


def _labelled_omega_failures(omega, nmax):
    """The adjunction failures of suite_omega from the labelled loop: every
    graph, every target, one Gamma_m(G) per pair."""
    targets = [
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("C5", cycle_graph(5)),
    ]
    universe = list(
        enumerate_graphs(nmax, directed=False, loops=True, all_orders=True)
    )
    failures = []
    for m in (3, 5):
        tm = path_template(m)
        for hname, h in targets:
            om = omega(m, h)
            for g in universe:
                left = engine.hom_exists(gamma_functor(tm, g), h) is not None
                right = engine.hom_exists(g, om) is not None
                if left != right:
                    failures.append(
                        f"m={m} H={hname} G=({suites._gshort(g)}) {left}!={right}"
                    )
    return failures


def _seeded_adjoint(seed):
    """A wrong right adjoint: a random loop-free graph fixed by (seed, m, H)."""

    def omega(m, h):
        rng = random.Random(f"{seed}:{m}:{h.out_masks}")
        return random_graph(rng, rng.randint(2, 5), 0.5)

    return omega


MUTANT_ADJOINTS = {
    "m=3 gives H": lambda m, h: h if m == 3 else omega_odd_path(m, h),
    "m=5 gives K_|H|": lambda m, h: (
        complete_graph(h.n) if m == 5 else omega_odd_path(m, h)
    ),
    **{f"seed {seed}": _seeded_adjoint(seed) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("mutant", MUTANT_ADJOINTS)
def test_suite_omega_class_scan_matches_labelled_loop(monkeypatch, mutant):
    # With a wrong adjoint the suite must fail exactly as the labelled
    # loop does: same failures, in the same order, and the same verdict.
    omega = MUTANT_ADJOINTS[mutant]
    monkeypatch.setattr(suites, "omega_odd_path", omega)
    report = suites.run_suite("omega", nmax=4)
    expected = _labelled_omega_failures(omega, 4)
    assert expected
    assert [f for f in report.failures if f.startswith("m=")] == expected
    others = [f for f in report.failures if not f.startswith("m=")]
    reference = suites.SuiteReport("omega", False, 6596, tuple(expected + others))
    assert report.verdict_line() == reference.verdict_line()


def test_suite_omega_builds_gamma_once_per_class(monkeypatch):
    # 2 values of m x 118 classes of graphs with loops on <= 4 vertices,
    # plus the three circular-clique images; the labelled loop made 6 591.
    calls = []

    def counting(t, g):
        calls.append(g)
        return gamma_functor(t, g)

    monkeypatch.setattr(suites, "gamma_functor", counting)
    assert suites.run_suite("omega", nmax=4).verdict_line() == (
        "VERDICT omega PASS checked=6596"
    )
    assert len(calls) == 2 * 118 + 3


def _labelled_adjunction(tname, nmax, lam, gam):
    """suite_adjunction's labelled loop for one template, with the
    functors passed in: its failures, artifacts and universe size."""
    t = builtin_template(tname)
    universe = list(
        enumerate_graphs(
            nmax, directed=t.symmetry is None, loops=True, all_orders=True
        )
    )
    lams = [lam(t, g) for g in universe]
    failures = []
    artifacts = []
    for k in universe:
        gk = gam(t, k)
        for g, lg in zip(universe, lams):
            left = engine.hom_exists(lg, k) is not None
            right = engine.hom_exists(g, gk) is not None
            if left != right:
                failures.append(
                    f"{tname}: lambda-side={left} gamma-side={right} "
                    f"G=({suites._gshort(g)}) K=({suites._gshort(k)})"
                )
                artifacts += [(f"{tname}-G", g), (f"{tname}-K", k)]
    return failures, artifacts, len(universe)


# Wrong functors that commute with relabelling: Lambda_T(G) = G or
# Gamma_T(K) = K for one template.  A directed template's labelled loop
# takes 280 900 pairs at nmax 3, about a second, so one directed mutant
# runs there and the other at nmax 2.
ADJUNCTION_MUTANTS = [
    pytest.param("t3", "lambda_functor", 3, id="t3: Lambda(G) = G"),
    pytest.param("arc-graph", "lambda_functor", 3, id="arc-graph: Lambda(G) = G"),
    pytest.param("t5", "gamma_functor", 3, id="t5: Gamma(K) = K"),
    pytest.param("iota-2", "gamma_functor", 2, id="iota-2: Gamma(K) = K"),
]


@pytest.mark.parametrize("tname, functor, nmax", ADJUNCTION_MUTANTS)
def test_suite_adjunction_class_scan_matches_labelled_loop(
    monkeypatch, tname, functor, nmax
):
    # With a wrong functor the suite must fail exactly as the labelled
    # loop does: the same failures and artifacts, in the same order, the
    # same note and the same verdict.
    real = getattr(suites, functor)

    def wrong(t, g):
        return g if t.name == tname else real(t, g)

    monkeypatch.setattr(suites, functor, wrong)
    monkeypatch.setattr(suites, "ADJUNCTION_TEMPLATES", (tname,))
    report = suites.run_suite("adjunction", nmax=nmax)
    functors = {"lambda_functor": lambda_functor, "gamma_functor": gamma_functor}
    functors[functor] = wrong
    failures, artifacts, n = _labelled_adjunction(
        tname, nmax, functors["lambda_functor"], functors["gamma_functor"]
    )
    assert failures
    assert list(report.failures) == failures
    assert [(label, type(g), g) for label, g in report.artifacts] == [
        (label, type(g), g) for label, g in artifacts
    ]
    assert report.notes == (f"{tname}: {n}x{n} pairs",)
    reference = suites.SuiteReport("adjunction", False, n * n, tuple(failures))
    assert report.verdict_line() == reference.verdict_line()


def test_suite_adjunction_builds_each_functor_once_per_class(monkeypatch):
    # One Lambda_T per class of G and one Gamma_T per class of K: 28
    # classes of graphs with loops on <= 3 vertices for each undirected
    # template, 116 of digraphs with loops for each directed one.
    built = {"lambda_functor": Counter(), "gamma_functor": Counter()}
    for name, counter in built.items():
        real = getattr(suites, name)

        def counting(t, g, real=real, counter=counter):
            counter[t.name] += 1
            return real(t, g)

        monkeypatch.setattr(suites, name, counting)
    assert suites.run_suite("adjunction").verdict_line() == (
        "VERDICT adjunction PASS checked=583704"
    )
    expected = {name: 28 for name in ("t3", "t5", "lex-k2", "tensor-c3")}
    expected.update({"arc-graph": 116, "iota-2": 116})
    assert built["lambda_functor"] == built["gamma_functor"] == expected


def _labelled_ordering(power, nmax):
    """suite_ordering's labelled loop, with the power functor passed in:
    its failures and `checked`."""
    universe = [
        g
        for g in enumerate_graphs(nmax, directed=False, loops=False, all_orders=True)
        if is_connected(g)
    ]
    pairs = suites._power_grid_pairs()
    failures = []
    for g in universe:
        powers = {}
        for (s, r), (s2, r2) in pairs:
            for key in ((s, r), (s2, r2)):
                if key not in powers:
                    powers[key] = power(*key, g)
            if engine.hom_exists(powers[(s, r)], powers[(s2, r2)]) is None:
                failures.append(f"P^{s}_{r} -/-> P^{s2}_{r2} on ({suites._gshort(g)})")
    return failures, len(universe) * len(pairs)


# Wrong power functors that commute with relabelling.
ORDERING_MUTANTS = {
    "P^5_3(G) = K_|G|": lambda s, r, g: (
        complete_graph(g.n) if (s, r) == (5, 3) else power_functor(s, r, g)
    ),
    "P^1_3(G) = K_(|E| mod 4 + 1)": lambda s, r, g: (
        complete_graph(g.edge_count % 4 + 1)
        if (s, r) == (1, 3)
        else power_functor(s, r, g)
    ),
}


@pytest.mark.parametrize("mutant", ORDERING_MUTANTS)
def test_suite_ordering_class_scan_matches_labelled_loop(monkeypatch, mutant):
    power = ORDERING_MUTANTS[mutant]
    monkeypatch.setattr(suites, "power_functor", power)
    report = suites.run_suite("ordering", nmax=4)
    failures, checked = _labelled_ordering(power, 4)
    assert failures
    assert list(report.failures) == failures
    assert report.notes == ("44 connected graphs x 48 grid pairs",)
    reference = suites.SuiteReport("ordering", False, checked, tuple(failures))
    assert report.verdict_line() == reference.verdict_line()


def test_suite_ordering_decides_each_class_once(monkeypatch):
    # 10 classes of connected graphs on <= 4 vertices, 9 powers each.
    built = []

    def counting(s, r, g):
        built.append(g)
        return power_functor(s, r, g)

    monkeypatch.setattr(suites, "power_functor", counting)
    assert suites.run_suite("ordering").verdict_line() == (
        "VERDICT ordering PASS checked=2112"
    )
    assert len(built) == 10 * 9 and len(set(built)) == 10


def test_omega_cycles():
    assert engine.hom_equivalent(omega_odd_path(3, complete_graph(3)), cycle_graph(9))
    assert engine.hom_equivalent(omega_odd_path(5, complete_graph(3)), cycle_graph(15))


def test_arc_graph_examples():
    t3 = transitive_tournament(3)
    d = arc_graph(t3)
    assert d.n == 3 and list(d.arcs()) == [(0, 2)]
    assert engine.isomorphic(arc_graph(directed_cycle(3)), directed_cycle(3))
    assert engine.hom_equivalent(arc_graph(complete_graph(2)), complete_graph(2))
    # loops give loops: the arc (u,u) follows itself
    looped = Digraph(1, [(0, 0)])
    assert arc_graph(looped).has_loop()


def test_arc_graph_size_is_checked_before_the_build():
    # |A(H)| vertices and sum over v of in(v) out(v) arcs, loops included.
    universe = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
    for h in universe[::23]:
        d = arc_graph(h)
        size = d.n + d.arc_count
        with limits.scope(size_guard=size):
            assert arc_graph(h) == d
        with limits.scope(size_guard=size - 1), pytest.raises(SizeGuardError):
            arc_graph(h)


def test_row_builders_guard_vertices_and_arcs():
    # Each arc counts once, a loop too, and the pre-check on the vertex
    # estimate stays below n + arcs here, so the rows' guard is the one hit.
    loop = Digraph(1, [(0, 0)])
    builds = [
        lambda: omega_odd_path(3, complete_graph(3)),  # estimate 24, 12 + 18
        lambda: omega_odd_path(3, loop),  # estimate 2, 2 + 1
        lambda: omega_oriented_path(oriented_path("10"), loop),  # 4, 4 + 4
        lambda: exponential_graph(complete_graph(3), complete_graph(2)),  # 9, 9 + 36
        lambda: exponential_graph(loop, complete_graph(2)),  # 1, 1 + 1
    ]
    for build in builds:
        d = build()
        size = d.n + d.arc_count
        with limits.scope(size_guard=size):
            assert build() == d
        with limits.scope(size_guard=size - 1), pytest.raises(SizeGuardError):
            build()


def test_k3_is_multiplicative_on_five_vertices():
    # G x H -> K3 iff H -> K3^G, so K3 is multiplicative iff K3^G -> K3
    # whenever G does not map to K3 (true: El-Zahar & Sauer 1985).
    k3 = complete_graph(3)
    unsettled = 0
    for g in enumerate_graphs(5, loops=False, all_orders=True, up_to_iso=True):
        if engine.hom_exists(g, k3) is None:
            unsettled += 1
            power = exponential_graph(k3, g)
            assert not power.has_loop()
            assert engine.hom_exists(power, k3) is not None, g
    assert unsettled == 6


def test_arc_graph_left():
    c3 = directed_cycle(3)
    assert engine.isomorphic(arc_graph_left(c3), c3)
    single = arc_graph_left(Digraph(1))
    assert single.n == 2 and list(single.arcs()) == [(0, 1)]


def test_arc_graph_adjunction_exhaustive():
    t = arc_graph_template()
    universe = list(
        enumerate_graphs(3, directed=True, loops=True, all_orders=True)
    )
    sample = universe[:: max(1, len(universe) // 60)]
    for g in sample:
        for k in sample:
            assert verify_adjunction(t, g, k), (g, k)


def test_interleaved_examples():
    t4 = transitive_tournament(4)
    assert interleaved_adjoint(1, t4) == t4
    universe = [Digraph(0), *enumerate_graphs(3, directed=True, all_orders=True)]
    for m in (1, 2, 3):
        for h in universe:
            got = interleaved_adjoint(m, h)
            assert type(got) is Digraph, (m, h)
            assert got == interleaved_by_definition(m, h), (m, h)
    b52 = symmetrization(interleaved_adjoint(2, transitive_tournament(5)))
    from pultr.graphs import circular_complete

    assert engine.hom_equivalent(circular_complete(5, 2), b52)


def test_omega_oriented_path_identity_and_loop():
    q1 = oriented_path("1")
    for h in (directed_cycle(3), transitive_tournament(3)):
        assert engine.hom_equivalent(omega_oriented_path(q1, h), h)
    zig = oriented_path("10")
    looped = Digraph(1, [(0, 0)])
    assert omega_oriented_path(zig, looped).has_loop()


def test_omega_oriented_path_rejects_non_paths():
    with pytest.raises(ParameterError):
        omega_oriented_path(directed_cycle(3), complete_graph(2))


ORIENTED_TEMPLATES = ("1", "10", "11")


def test_oriented_adjunction_harness():
    """Adjunction biconditional for oriented-path templates, over all
    digraphs G of order <= 3 and all H of order <= 2 plus a deterministic
    slice of the order-3 targets (the full order-3 square is minutes of
    work; the slice is fixed, not random)."""
    gs = list(enumerate_graphs(3, directed=True, loops=True, all_orders=True))
    hs = list(enumerate_graphs(2, directed=True, loops=True, all_orders=True))
    hs += list(enumerate_graphs(3, directed=True, loops=True))[::37]
    for spec in ORIENTED_TEMPLATES:
        t = oriented_path_template(spec)
        q = oriented_path(spec)
        for h in hs:
            om = omega_oriented_path(q, h)
            for g in gs:
                left = engine.hom_exists(gamma_functor(t, g), h) is not None
                right = engine.hom_exists(g, om) is not None
                assert left == right, (spec, g, h)


def test_oriented_adjunction_allforward_tournament():
    # the stated 3-arc case: all-forward path into the 3-vertex tournament
    spec = "111"
    t = oriented_path_template(spec)
    h = transitive_tournament(3)
    om = omega_oriented_path(oriented_path(spec), h)
    for g in enumerate_graphs(3, directed=True, loops=True, all_orders=True):
        left = engine.hom_exists(gamma_functor(t, g), h) is not None
        right = engine.hom_exists(g, om) is not None
        assert left == right, g


def test_power_functor_examples():
    c5 = cycle_graph(5)
    assert power_functor(1, 1, c5) == c5
    assert engine.isomorphic(power_functor(3, 1, c5), complete_graph(5))
    from pultr.chromatic import k_colourable

    assert k_colourable(power_functor(5, 3, c5), 3) is not None
    with pytest.raises(ParameterError):
        power_functor(2, 1, c5)


def test_root_functor_small():
    k3 = complete_graph(3)
    assert root_functor(1, 1, k3) == k3
    r = root_functor(1, 3, k3)
    assert engine.hom_equivalent(r, cycle_graph(9))
    assert root_size_estimate(1, 1, k3) == 3
    assert root_size_estimate(1, 3, k3) == 3 * 2**3
    assert root_size_estimate(3, 3, k3) == 3 * 2**3


def test_power_root_adjunction_sampled():
    """hom(P^s_r(G), H) iff hom(G, R^r_s(H)) over the (s, r) grid."""
    gs = [complete_graph(2), cycle_graph(5), complete_graph(3)]
    hs = [complete_graph(2), complete_graph(3)]
    for s in (1, 3, 5):
        for r in (1, 3, 5):
            for h in hs:
                rh = root_functor(r, s, h)
                for g in gs:
                    left = engine.hom_exists(power_functor(s, r, g), h) is not None
                    right = engine.hom_exists(g, rh) is not None
                    assert left == right, (s, r, g.n, h.n)


def _grid_pairs():
    grid = [(s, r) for s in (1, 3, 5) for r in (1, 3, 5)]
    return [
        (a, b)
        for a in grid
        for b in grid
        if Fraction(a[0], a[1]) <= Fraction(b[0], b[1])
    ]


def test_ordering_root_side_with_reduction():
    """R^{r'}_{s'}(G) -> R^r_s(G) for s/r <= s'/r', over all loop-free
    graphs of order <= 4.  The inner subset-tuple stage is explicitly
    dominated-reduced before the outer walk power: hom-existence
    questions are invariant under hom-equivalent replacement (the
    reduction's contract, tested in test_graphs), and the unreduced grid
    is hours of work."""

    def reduced_root(r, s, g):
        x = g if s == 1 else dominated_reduction(omega_odd_path(s, g))
        if r == 1:
            return x
        return gamma_functor(path_template(r), x)

    pairs = _grid_pairs()
    for g in enumerate_graphs(4, directed=False, loops=False, all_orders=True):
        roots = {}
        for (s, r), (s2, r2) in pairs:
            for key in ((s, r), (s2, r2)):
                if key not in roots:
                    roots[key] = reduced_root(key[1], key[0], g)
            assert (
                engine.hom_exists(roots[(s2, r2)], roots[(s, r)]) is not None
            ), (g, (s, r), (s2, r2))


def test_delta_chromatic_bound():
    from pultr.chromatic import chromatic_number, k_colourable
    from pultr.duality import delta_colouring_lift
    from pultr.engine import HomWitness

    for n in (4, 8):
        kn = complete_graph(n)
        delta = arc_graph(kn)
        chi = chromatic_number(symmetrization(delta))
        col = k_colourable(symmetrization(delta), chi)
        lift = delta_colouring_lift(kn, HomWitness(delta.n, chi, tuple(col)))
        assert engine.verify_witness(kn, complete_graph(1 << chi), lift.mapping)
        assert (1 << chi) >= n  # hence chi >= ceil(log2 chi(K_n))
