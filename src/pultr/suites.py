"""Named verification suites: exhaustive small-instance checks for the
theorem families the library implements.  Each suite returns a
deterministic report whose verdict line is byte-identical across runs
(items are generated and checked in a fixed order)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import engine
from .adjoints import arc_graph, interleaved_adjoint, omega_odd_path, power_functor
from .chromatic import (
    chromatic_number,
    circular_bound_via_powers,
    circular_chromatic_number,
    digraph_chromatic_number,
    k_colourable,
)
from .duality import (
    delta_colouring_lift,
    minimal_path_sproink_specs,
    minimal_path_sproinks,
    shift_graph,
    verify_duality,
)
from .engine import HomWitness
from .errors import ParameterError
from .functors import builtin_template, gamma_functor, lambda_functor, path_template
from .graphs import (
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
    is_connected,
    odd_girth,
    symmetrization,
    transitive_tournament,
)

SUITE_NAMES = (
    "adjunction",
    "omega",
    "duality",
    "shift",
    "yeh-zhu",
    "ordering",
    "powers-chi-c",
)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    ok: bool
    checked: int
    failures: tuple = ()
    notes: tuple = ()
    artifacts: tuple = ()  # (label, graph) pairs for counterexample output

    def verdict_line(self):
        status = "PASS" if self.ok else "FAIL"
        line = f"VERDICT {self.name} {status} checked={self.checked}"
        if self.failures:
            line += f" first-failure={self.failures[0]}"
        return line


def _gshort(g):
    kind = "u" if g.is_symmetric else "d"
    return f"{kind}{g.n}:" + ",".join(f"{a}-{b}" for a, b in g.arcs())


ADJUNCTION_TEMPLATES = ("t3", "t5", "lex-k2", "tensor-c3", "arc-graph", "iota-2")


def suite_adjunction(nmax=3, budget=None):
    """Thin adjunction of the left and central functors, for the six
    reference templates, over every labelled (di)graph pair with up to
    nmax vertices (loops allowed)."""
    failures = []
    artifacts = []
    checked = 0
    notes = []
    for tname in ADJUNCTION_TEMPLATES:
        t = builtin_template(tname)
        directed = t.symmetry is None
        universe = list(
            enumerate_graphs(
                nmax, directed=directed, loops=True, all_orders=True
            )
        )
        lams = [lambda_functor(t, g, undirected=not directed) for g in universe]
        for k in universe:
            gam = gamma_functor(t, k, undirected=not directed, budget=budget)
            for g, lam in zip(universe, lams):
                left = engine.hom_exists(lam, k, budget=budget) is not None
                right = engine.hom_exists(g, gam, budget=budget) is not None
                if left != right:
                    failures.append(
                        f"{tname}: lambda-side={left} gamma-side={right} "
                        f"G=({_gshort(g)}) K=({_gshort(k)})"
                    )
                    artifacts.append((f"{tname}-G", g))
                    artifacts.append((f"{tname}-K", k))
        checked += len(universe) * len(universe)
        notes.append(f"{tname}: {len(universe)}x{len(universe)} pairs")
    return SuiteReport(
        "adjunction",
        not failures,
        checked,
        tuple(failures),
        tuple(notes),
        tuple(artifacts),
    )


def suite_omega(nmax=4, budget=None):
    """Right-adjoint checks for the odd-path walk powers: the adjunction
    biconditional on small graphs, the chromatic identity for the
    subset-tuple graphs of complete graphs, their circular structure, and
    the circular-clique image of the cubic walk power."""
    failures = []
    checked = 0
    notes = []
    targets = [
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("C5", cycle_graph(5)),
    ]
    universe = list(
        enumerate_graphs(nmax, directed=False, loops=True, all_orders=True)
    )
    combos = [(m, hname, h) for m in (3, 5) for hname, h in targets]
    for m, hname, h in combos:
        tm = path_template(m)
        om = omega_odd_path(m, h)
        for g in universe:
            left = engine.hom_exists(gamma_functor(tm, g), h, budget=budget) is not None
            right = engine.hom_exists(g, om, budget=budget) is not None
            if left != right:
                failures.append(f"m={m} H={hname} G=({_gshort(g)}) {left}!={right}")
    checked += len(combos) * len(universe)
    notes.append(f"adjunction: {len(combos)} targets x {len(universe)} graphs")

    for n in (2, 3, 4):
        chi = chromatic_number(omega_odd_path(3, complete_graph(n)), budget=budget)
        checked += 1
        if chi != n:
            failures.append(f"chi(omega_3(K{n})) = {chi} != {n}")
    notes.append("chromatic identity n=2..4")

    for m, cyc in ((3, 9), (5, 15)):
        ok = engine.hom_equivalent(
            omega_odd_path(m, complete_graph(3)), cycle_graph(cyc), budget=budget
        )
        checked += 1
        if not ok:
            failures.append(f"omega_{m}(K3) not hom-equivalent to C{cyc}")
    notes.append("cycle equivalences")

    t3 = path_template(3)
    for n, m in ((5, 2), (7, 3), (8, 3)):
        lhs = gamma_functor(t3, circular_complete(n, m), budget=budget)
        rhs = circular_complete(n, 3 * m - n)
        checked += 1
        if not engine.hom_equivalent(lhs, rhs, budget=budget):
            failures.append(
                f"gamma_3(K{n}/{m}) not hom-equivalent to K{n}/{3 * m - n}"
            )
    notes.append("circular-clique images of the cubic power")
    return SuiteReport(
        "omega", not failures, checked, tuple(failures), tuple(notes)
    )


def suite_duality(nmax=4, budget=None):
    """Path/tournament duality and the minimal-sproink duality for the
    arc graphs of transitive tournaments."""
    failures = []
    checked = 0
    notes = []
    specs3 = minimal_path_sproink_specs(3, 12)
    if specs3 != ["11"]:
        failures.append(f"minimal sproinks for the 2-arc case: {specs3}")
    checked += 1

    jobs = [("path", k) for k in (2, 3, 4)] + [("sproink", k) for k in (3, 4)]
    for kind, k in jobs:
        if kind == "path":
            rep = verify_duality(
                [directed_path(k)], transitive_tournament(k), nmax, budget=budget
            )
            label = f"paths/T{k}"
        else:
            rep = verify_duality(
                minimal_path_sproinks(k, 12),
                arc_graph(transitive_tournament(k)),
                nmax,
                family_factory=lambda length: minimal_path_sproinks(k, length),
                initial_len=12,
                budget=budget,
            )
            label = f"sproinks/delta(T{k})"
        checked += rep.checked
        if not rep.ok:
            failures.append(
                f"{label}: {rep.direction} at ({_gshort(rep.counterexample)})"
            )
        notes.append(f"{label}: {rep.checked} digraphs")
    return SuiteReport(
        "duality", not failures, checked, tuple(failures), tuple(notes)
    )


def suite_shift(budget=None):
    """Shift graphs as iterated arc graphs, their odd girth and chromatic
    number, and the colour-set lift bound on the arc graph of K_8."""
    failures = []
    checked = 0
    notes = []
    for n, k in ((4, 3), (5, 3)):
        ok = engine.isomorphic(
            shift_graph(n, k), arc_graph(shift_graph(n, k - 1))
        )
        checked += 1
        if not ok:
            failures.append(f"R({n},{k}) not isomorphic to delta(R({n},{k - 1}))")
    og = odd_girth(shift_graph(7, 3, directed=False))
    checked += 1
    if og != 7:
        failures.append(f"odd girth of R'(7,3) = {og} != 7")
    chi = chromatic_number(shift_graph(8, 2, directed=False), budget=budget)
    checked += 1
    if chi != 3:
        failures.append(f"chi(R'(8,2)) = {chi} != 3")
    k8 = complete_graph(8)
    delta8 = arc_graph(k8)
    chi8 = digraph_chromatic_number(delta8, budget=budget)
    colour = k_colourable(symmetrization(delta8), chi8, budget=budget)
    lift = delta_colouring_lift(k8, HomWitness(delta8.n, chi8, tuple(colour)))
    checked += 1
    if chi8 < 3 or len(set(lift.mapping)) < 8 or lift.target_order != 1 << chi8:
        failures.append(
            f"colour lift failed: chi(delta(K8))={chi8}, "
            f"{len(set(lift.mapping))} set-colours"
        )
    notes.append(f"chi(delta(K8)) = {chi8}; lift uses <= 2^{chi8} colours")
    return SuiteReport(
        "shift", not failures, checked, tuple(failures), tuple(notes)
    )


def suite_yeh_zhu(budget=None):
    """Hom-equivalence of circular cliques with the symmetrized
    interleaved adjoints of transitive tournaments."""
    failures = []
    checked = 0
    for n, m in ((5, 2), (7, 3)):
        b = symmetrization(interleaved_adjoint(m, transitive_tournament(n)))
        ok = engine.hom_equivalent(circular_complete(n, m), b, budget=budget)
        checked += 1
        if not ok:
            failures.append(f"K{n}/{m} not hom-equivalent to B({n},{m})")
    return SuiteReport("yeh-zhu", not failures, checked, tuple(failures))


def _power_grid_pairs():
    grid = [(s, r) for s in (1, 3, 5) for r in (1, 3, 5)]
    return [
        (a, b)
        for a in grid
        for b in grid
        if Fraction(a[0], a[1]) <= Fraction(b[0], b[1])
    ]


def suite_ordering(nmax=4, budget=None):
    """Monotonicity of the power functors: s/r <= s'/r' gives a
    homomorphism P^s_r(G) -> P^{s'}_{r'}(G), for all connected G up to
    order nmax."""
    universe = [
        g
        for g in enumerate_graphs(
            nmax, directed=False, loops=False, all_orders=True
        )
        if is_connected(g)
    ]
    pairs = _power_grid_pairs()
    failures = []
    for g in universe:
        powers = {}
        for (s, r), (s2, r2) in pairs:
            for key in ((s, r), (s2, r2)):
                if key not in powers:
                    powers[key] = power_functor(key[0], key[1], g)
            if engine.hom_exists(powers[(s, r)], powers[(s2, r2)], budget=budget) is None:
                failures.append(
                    f"P^{s}_{r} -/-> P^{s2}_{r2} on ({_gshort(g)})"
                )
    checked = len(universe) * len(pairs)
    notes = (f"{len(universe)} connected graphs x {len(pairs)} grid pairs",)
    return SuiteReport(
        "ordering", not failures, checked, tuple(failures), notes
    )


def suite_powers_chi_c(budget=None):
    """The grid bound through power functors hits the circular chromatic
    number of the 5- and 7-cycles on the stated grids."""
    failures = []
    checked = 0
    for g, i_max, j_max, expect in (
        (cycle_graph(5), 2, 1, Fraction(5, 2)),
        (cycle_graph(7), 3, 2, Fraction(7, 3)),
    ):
        rep = circular_bound_via_powers(g, i_max, j_max, budget=budget)
        chi_c = circular_chromatic_number(g, budget=budget)
        checked += 1
        if rep.value != expect or chi_c != expect:
            failures.append(
                f"grid bound {rep.value} vs chi_c {chi_c}, expected {expect}"
            )
    return SuiteReport("powers-chi-c", not failures, checked, tuple(failures))


_SUITES = {
    "adjunction": suite_adjunction,
    "omega": suite_omega,
    "duality": suite_duality,
    "shift": suite_shift,
    "yeh-zhu": suite_yeh_zhu,
    "ordering": suite_ordering,
    "powers-chi-c": suite_powers_chi_c,
}


def run_suite(name, nmax=None, workers=1, budget=None):
    """Run one named suite.  Suites run in the calling thread; `workers`
    is kept so that callers passing workers=1 (perfbench/passes.py) keep
    working, and any other value is a ParameterError."""
    if workers != 1:
        raise ParameterError(f"workers={workers!r}: suites run in one thread")
    if name not in _SUITES:
        raise ParameterError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    fn = _SUITES[name]
    kwargs = {"budget": budget}
    if nmax is not None and name in ("adjunction", "omega", "duality", "ordering"):
        kwargs["nmax"] = nmax
    return fn(**kwargs)
