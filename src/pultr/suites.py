"""Named verification suites: exhaustive small-instance checks for the
theorem families the library implements.  Each suite returns a
deterministic report whose verdict line is byte-identical across runs
(items are generated and checked in a fixed order)."""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations, product

from . import engine
from .adjoints import arc_graph, interleaved_adjoint, omega_odd_path, power_functor
from .chromatic import (
    _chromatic_colouring,
    chromatic_number,
    circular_bound_via_powers,
    circular_chromatic_number,
)
from .duality import (
    DualityJob,
    delta_colouring_lift,
    minimal_path_sproink_specs,
    minimal_path_sproinks,
    shift_graph,
    verify_dualities,
)
from .engine import HomWitness
from .errors import ParameterError
from .functors import builtin_template, gamma_functor, lambda_functor, path_template
from .graphs import (
    Digraph,
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
    is_connected,
    odd_girth,
    stream_index,
    stream_size,
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
# The suites whose universe is bounded by an nmax.
NMAX_SUITES = ("adjunction", "omega", "duality", "ordering")


class SuiteReport(
    namedtuple(
        "SuiteReport",
        "name ok checked failures notes artifacts",
        defaults=((), (), ()),
    )
):
    """The outcome of one suite: its name, whether it passed, how many
    items it checked, and tuples of failure strings, notes and
    (label, graph) artifact pairs for counterexample output."""

    __slots__ = ()

    def verdict_line(self):
        status = "PASS" if self.ok else "FAIL"
        line = f"VERDICT {self.name} {status} checked={self.checked}"
        if self.failures:
            line += f" first-failure={self.failures[0]}"
        return line


def _gshort(g):
    kind = "u" if g.is_symmetric else "d"
    return f"{kind}{g.n}:" + ",".join(f"{a}-{b}" for a, b in g.arcs())


def _labelled(items, directed, loops):
    """The items of a class scan as the labelled loop meets them.  Each
    item is a tuple whose graphs are first members of their isomorphism
    classes.  It stands for one item per choice of a member of each
    class, where the members are the distinct relabellings of the first
    member.  The items come sorted as if each graph were its stream
    position (graphs.stream_index), which is the labelled loop's order."""

    def choices(x):
        if not isinstance(x, Digraph):
            return [(x, x)]
        members = {}
        for perm in permutations(range(x.n)):
            h = x.relabel(perm)
            members[stream_index(h, directed, loops)] = h
        return members.items()

    expanded = [combo for item in items for combo in product(*map(choices, item))]
    expanded.sort(key=lambda combo: [key for key, _ in combo])
    return [tuple(x for _, x in combo) for combo in expanded]


ADJUNCTION_TEMPLATES = ("t3", "t5", "lex-k2", "tensor-c3", "arc-graph", "iota-2")


def suite_adjunction(nmax=3):
    """Thin adjunction of the left and central functors, for the six
    reference templates, over every labelled (di)graph pair with up to
    nmax vertices (loops allowed).

    Both sides of Lambda_T(G) -> K iff G -> Gamma_T(K) are invariant under
    relabelling G and under relabelling K, so the biconditional is
    decided once per pair of isomorphism classes, on their first members,
    with one Lambda_T per class of G and one Gamma_T per class of K.  A
    failing pair is reported at each labelled pair, K outer and G inner
    (_labelled), and `checked` counts the labelled pairs."""
    failures = []
    artifacts = []
    checked = 0
    notes = []
    for tname in ADJUNCTION_TEMPLATES:
        t = builtin_template(tname)
        kind = dict(directed=t.symmetry is None, loops=True)
        classes = list(enumerate_graphs(nmax, all_orders=True, up_to_iso=True, **kind))
        lams = [lambda_functor(t, g) for g in classes]
        failed = []
        for k in classes:
            gam = gamma_functor(t, k)
            for g, lam in zip(classes, lams):
                left = engine.hom_exists(lam, k) is not None
                right = engine.hom_exists(g, gam) is not None
                if left != right:
                    failed.append((k, g, left, right))
        for k, g, left, right in _labelled(failed, **kind):
            failures.append(
                f"{tname}: lambda-side={left} gamma-side={right} "
                f"G=({_gshort(g)}) K=({_gshort(k)})"
            )
            artifacts.append((f"{tname}-G", g))
            artifacts.append((f"{tname}-K", k))
        labelled = stream_size(nmax, **kind)
        checked += labelled * labelled
        notes.append(f"{tname}: {labelled}x{labelled} pairs")
    return SuiteReport(
        "adjunction",
        not failures,
        checked,
        tuple(failures),
        tuple(notes),
        tuple(artifacts),
    )


def suite_omega(nmax=4):
    """Right-adjoint checks for the odd-path walk powers: the adjunction
    biconditional on small graphs, the chromatic identity for the
    subset-tuple graphs of complete graphs, their circular structure, and
    the circular-clique image of the cubic walk power.

    Both sides of Gamma_m(G) -> H iff G -> Omega_m(H) are invariant under
    relabelling G, so for each m the adjunction is decided once per
    isomorphism class, on the class's first labelled member
    (enumerate_graphs with up_to_iso=True), with one Gamma_m(G) for all
    three targets.  A failing class is reported at each of its labelled
    members, in (m, H, G) order (_labelled), so the failures and
    `checked` are those of the labelled loop."""
    failures = []
    checked = 0
    notes = []
    targets = [
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("C5", cycle_graph(5)),
    ]
    kind = dict(directed=False, loops=True)
    classes = list(enumerate_graphs(nmax, all_orders=True, up_to_iso=True, **kind))
    labelled = stream_size(nmax, **kind)
    ms = (3, 5)
    # Omega_m(H) per m and target, reused by the checks after the loop.
    omega = {}
    failed = []
    for m in ms:
        tm = path_template(m)
        omegas = omega[m] = [omega_odd_path(m, h) for _hname, h in targets]
        for g in classes:
            gam = gamma_functor(tm, g)
            for j, ((_hname, h), om) in enumerate(zip(targets, omegas)):
                left = engine.hom_exists(gam, h) is not None
                right = engine.hom_exists(g, om) is not None
                if left != right:
                    failed.append((m, j, g, left, right))
    for m, j, g, left, right in _labelled(failed, **kind):
        failures.append(f"m={m} H={targets[j][0]} G=({_gshort(g)}) {left}!={right}")
    checked += len(ms) * len(targets) * labelled
    notes.append(f"adjunction: {len(ms) * len(targets)} targets x {labelled} graphs")

    omega_k4 = omega_odd_path(3, complete_graph(4))
    for n, om in ((2, omega[3][0]), (3, omega[3][1]), (4, omega_k4)):
        chi = chromatic_number(om)
        checked += 1
        if chi != n:
            failures.append(f"chi(omega_3(K{n})) = {chi} != {n}")
    notes.append("chromatic identity n=2..4")

    for m, cyc in ((3, 9), (5, 15)):
        ok = engine.hom_equivalent(omega[m][1], cycle_graph(cyc))
        checked += 1
        if not ok:
            failures.append(f"omega_{m}(K3) not hom-equivalent to C{cyc}")
    notes.append("cycle equivalences")

    t3 = path_template(3)
    for n, m in ((5, 2), (7, 3), (8, 3)):
        lhs = gamma_functor(t3, circular_complete(n, m))
        rhs = circular_complete(n, 3 * m - n)
        checked += 1
        if not engine.hom_equivalent(lhs, rhs):
            failures.append(
                f"gamma_3(K{n}/{m}) not hom-equivalent to K{n}/{3 * m - n}"
            )
    notes.append("circular-clique images of the cubic power")
    return SuiteReport(
        "omega", not failures, checked, tuple(failures), tuple(notes)
    )


def suite_duality(nmax=4):
    """Path/tournament duality and the minimal-sproink duality for the
    arc graphs of transitive tournaments."""
    failures = []
    checked = 0
    notes = []
    specs3 = minimal_path_sproink_specs(3, 12)
    if specs3 != ["11"]:
        failures.append(f"minimal sproinks for the 2-arc case: {specs3}")
    checked += 1

    labels = []
    jobs = []
    for k in (2, 3, 4):
        labels.append(f"paths/T{k}")
        jobs.append(DualityJob((directed_path(k),), transitive_tournament(k)))
    for k in (3, 4):
        labels.append(f"sproinks/delta(T{k})")
        jobs.append(
            DualityJob(
                tuple(minimal_path_sproinks(k, 12)), arc_graph(transitive_tournament(k))
            )
        )
    for label, rep in zip(labels, verify_dualities(jobs, nmax)):
        checked += rep.checked
        if not rep.ok:
            failures.append(
                f"{label}: {rep.direction} at ({_gshort(rep.counterexample)})"
            )
        notes.append(f"{label}: {rep.checked} digraphs")
    return SuiteReport(
        "duality", not failures, checked, tuple(failures), tuple(notes)
    )


def suite_shift():
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
    chi = chromatic_number(shift_graph(8, 2, directed=False))
    checked += 1
    if chi != 3:
        failures.append(f"chi(R'(8,2)) = {chi} != 3")
    k8 = complete_graph(8)
    delta8 = arc_graph(k8)
    chi8, colour = _chromatic_colouring(symmetrization(delta8))
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


def suite_yeh_zhu():
    """Hom-equivalence of circular cliques with the symmetrized
    interleaved adjoints of transitive tournaments."""
    failures = []
    checked = 0
    for n, m in ((5, 2), (7, 3)):
        b = symmetrization(interleaved_adjoint(m, transitive_tournament(n)))
        ok = engine.hom_equivalent(circular_complete(n, m), b)
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
        if a[0] * b[1] <= b[0] * a[1]
    ]


def suite_ordering(nmax=4):
    """Monotonicity of the power functors: s/r <= s'/r' gives a
    homomorphism P^s_r(G) -> P^{s'}_{r'}(G), for all connected G up to
    order nmax.

    The statement is invariant under relabelling G, so it is decided
    once per isomorphism class, on its first member.  A failing class is
    reported at each of its labelled members, G outer and grid pair
    inner (_labelled), and `checked` counts the labelled graphs."""
    kind = dict(directed=False, loops=False)
    classes = [
        g
        for g in enumerate_graphs(nmax, all_orders=True, up_to_iso=True, **kind)
        if is_connected(g)
    ]
    pairs = _power_grid_pairs()
    failed = []
    for g in classes:
        powers = {}
        for i, ((s, r), (s2, r2)) in enumerate(pairs):
            for key in ((s, r), (s2, r2)):
                if key not in powers:
                    powers[key] = power_functor(key[0], key[1], g)
            if engine.hom_exists(powers[(s, r)], powers[(s2, r2)]) is None:
                failed.append((g, i))
    failures = []
    for g, i in _labelled(failed, **kind):
        (s, r), (s2, r2) = pairs[i]
        failures.append(f"P^{s}_{r} -/-> P^{s2}_{r2} on ({_gshort(g)})")
    labelled = len(_labelled([(g,) for g in classes], **kind))
    checked = labelled * len(pairs)
    notes = (f"{labelled} connected graphs x {len(pairs)} grid pairs",)
    return SuiteReport(
        "ordering", not failures, checked, tuple(failures), notes
    )


def suite_powers_chi_c():
    """The grid bound through power functors hits the circular chromatic
    number of the 5- and 7-cycles on the stated grids."""
    from fractions import Fraction

    failures = []
    checked = 0
    for g, i_max, j_max, expect in (
        (cycle_graph(5), 2, 1, Fraction(5, 2)),
        (cycle_graph(7), 3, 2, Fraction(7, 3)),
    ):
        rep = circular_bound_via_powers(g, i_max, j_max)
        chi_c = circular_chromatic_number(g)
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


def run_suite(name, nmax=None, workers=1):
    """Run one named suite.  Suites run in the calling thread; `workers`
    is kept so that callers passing workers=1 (perfbench/passes.py) keep
    working, and any other value is a ParameterError.  So is an nmax for
    a suite without a universe bound, and an nmax below 1."""
    if workers != 1:
        raise ParameterError(f"workers={workers!r}: suites run in one thread")
    if name not in _SUITES:
        raise ParameterError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if nmax is None:
        return _SUITES[name]()
    if name not in NMAX_SUITES:
        raise ParameterError(
            f"suite {name!r} takes no nmax; only {', '.join(NMAX_SUITES)} do"
        )
    if nmax < 1:
        raise ParameterError(f"nmax must be at least 1, got {nmax}")
    return _SUITES[name](nmax=nmax)
