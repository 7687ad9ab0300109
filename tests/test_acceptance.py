"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines
as they complete.  All expected values are exact; no tolerances are
deferred.
"""

import math
from fractions import Fraction

from pultr import engine
from pultr.adjoints import (
    arc_graph,
    interleaved_adjoint,
    omega_odd_path,
)
from pultr.chromatic import (
    chromatic_number,
    circular_bound_via_powers,
    circular_chromatic_number,
    circular_gallai_roy_check,
    k_colourable,
)
from pultr.duality import (
    DualityJob,
    delta_colouring_lift,
    minimal_path_sproink_specs,
    minimal_path_sproinks,
    shift_graph,
    verify_dualities,
)
from pultr.engine import HomWitness
from pultr.functors import builtin_template, gamma_functor, lambda_functor, path_template
from pultr.graphs import (
    circular_complete,
    complete_graph,
    cycle_graph,
    directed_path,
    enumerate_graphs,
    exponential_graph,
    lexicographic_product,
    odd_girth,
    symmetrization,
    tensor_product,
    transitive_tournament,
)
from pultr.suites import suite_adjunction, suite_ordering


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_pultr_adjunction():
    rep = suite_adjunction(nmax=3)
    # 74 labelled loops-allowed graphs on <= 3 vertices for the four
    # undirected templates; 530 labelled digraphs for the two directed ones
    expected = 4 * 74 * 74 + 2 * 530 * 530
    _report(
        1,
        f"thin adjunction for 6 templates over all order-<=3 pairs "
        f"({rep.checked} checks)",
        rep.ok and rep.checked == expected,
    )


def test_criterion_02_walk_power_of_c5():
    got = gamma_functor(path_template(3), cycle_graph(5))
    _report(2, "cubic walk power of C_5 is K_5 exactly",
            engine.isomorphic(got, complete_graph(5)))


def test_criterion_03_lexicographic():
    c5 = cycle_graph(5)
    c5k2 = lexicographic_product(c5, complete_graph(2))
    lex = builtin_template("lex-k2")
    ok = True
    for n in (3, 4, 5):
        kn = complete_graph(n)
        left = engine.hom_exists(c5k2, kn) is not None
        right = engine.hom_exists(c5, gamma_functor(lex, kn)) is not None
        ok = ok and left == right
    ok = ok and chromatic_number(c5k2) == 5
    _report(3, "lexicographic instance: biconditional for n=3,4,5 and "
               "chi(C_5[K_2]) = 5", ok)


def test_criterion_04_exponential():
    k2, k3 = complete_graph(2), complete_graph(3)
    exp = exponential_graph(k3, k2)
    ok = True
    count = 0
    for g in enumerate_graphs(4, directed=False, loops=True, all_orders=True):
        left = engine.hom_exists(tensor_product(g, k2), k3) is not None
        right = engine.hom_exists(g, exp) is not None
        ok = ok and left == right
        count += 1
    _report(4, f"exponential instance over {count} graphs of order <= 4", ok)


def test_criterion_05_omega_adjunction():
    targets = [complete_graph(2), complete_graph(3), cycle_graph(5)]
    universe = list(
        enumerate_graphs(4, directed=False, loops=True, all_orders=True)
    )
    ok = True
    count = 0
    for m in (3, 5):
        tm = path_template(m)
        for h in targets:
            om = omega_odd_path(m, h)
            for g in universe:
                left = engine.hom_exists(gamma_functor(tm, g), h) is not None
                right = engine.hom_exists(g, om) is not None
                ok = ok and left == right
                count += 1
    _report(5, f"subset-tuple adjunction m in {{3,5}} over {count} cases", ok)


def test_criterion_06_omega_chromatic():
    ok = all(
        chromatic_number(omega_odd_path(3, complete_graph(n))) == n
        for n in (2, 3, 4)
    )
    _report(6, "chi of the cubic subset-tuple graph of K_n equals n", ok)


def test_criterion_07_omega_cycles():
    ok = engine.hom_equivalent(
        omega_odd_path(3, complete_graph(3)), cycle_graph(9)
    ) and engine.hom_equivalent(
        omega_odd_path(5, complete_graph(3)), cycle_graph(15)
    )
    _report(7, "subset-tuple graphs of K_3 are hom-equivalent to C_9, C_15", ok)


def test_criterion_08_circular_clique_images():
    t3 = path_template(3)
    ok = True
    for n, m in ((5, 2), (7, 3), (8, 3)):
        lhs = gamma_functor(t3, circular_complete(n, m))
        ok = ok and engine.hom_equivalent(lhs, circular_complete(n, 3 * m - n))
    _report(8, "cubic walk power maps K_{n/m} to K_{n/(3m-n)} up to "
               "hom-equivalence", ok)


def test_criterion_09_path_tournament_duality():
    ok = True
    jobs = [
        DualityJob((directed_path(k),), transitive_tournament(k))
        for k in (2, 3, 4)
    ]
    reps = verify_dualities(jobs, 4)
    assert len(reps) == len(jobs)
    for rep in reps:
        ok = ok and rep.ok
    _report(9, "k-arc path is the complete obstruction set for the "
               "k-tournament, order <= 4", ok)


def test_criterion_10_sproink_duality():
    ok = minimal_path_sproink_specs(3, 12) == ["11"]
    jobs = [
        DualityJob(
            tuple(minimal_path_sproinks(k, 12)), arc_graph(transitive_tournament(k))
        )
        for k in (3, 4)
    ]
    reps = verify_dualities(jobs, 4)
    assert len(reps) == len(jobs)
    for rep in reps:
        ok = ok and rep.ok
    _report(10, "minimal sproinks are complete obstructions for the arc "
                "graphs of tournaments, order <= 4", ok)


def test_criterion_11_shift_graphs():
    ok = engine.isomorphic(
        shift_graph(4, 3), arc_graph(shift_graph(4, 2))
    ) and engine.isomorphic(shift_graph(5, 3), arc_graph(shift_graph(5, 2)))
    ok = ok and odd_girth(shift_graph(7, 3, directed=False)) == 7
    chi = chromatic_number(shift_graph(8, 2, directed=False))
    ok = ok and chi == 3 and chi >= math.log2(8)
    _report(11, "shift graphs: iterated arc graph, odd girth 7, chi 3", ok)


def test_criterion_12_colour_lift():
    k8 = complete_graph(8)
    delta8 = arc_graph(k8)
    chi = chromatic_number(symmetrization(delta8))
    colouring = k_colourable(symmetrization(delta8), chi)
    lift = delta_colouring_lift(k8, HomWitness(delta8.n, chi, tuple(colouring)))
    proper = engine.verify_witness(
        k8, complete_graph(1 << chi), lift.mapping
    )
    _report(
        12,
        f"optimal colouring of the arc graph of K_8 ({chi} colours) lifts "
        f"to a proper 2^{chi}-colouring, so chi >= 3",
        proper and lift.target_order == 1 << chi and chi >= 3,
    )


def test_criterion_13_yeh_zhu():
    ok = True
    for n, m in ((5, 2), (7, 3)):
        b = symmetrization(interleaved_adjoint(m, transitive_tournament(n)))
        ok = ok and engine.hom_equivalent(circular_complete(n, m), b)
    _report(13, "circular cliques match symmetrized interleaved adjoints "
                "for 5/2 and 7/3", ok)


def test_criterion_14_circular_gallai_roy():
    ok = True
    count = 0
    for g in enumerate_graphs(5, directed=False, loops=False, all_orders=True):
        for n, m in ((5, 2), (7, 3), (3, 1)):
            cert = circular_gallai_roy_check(g, n, m)
            hom = engine.hom_exists(g, circular_complete(n, m)) is not None
            ok = ok and (cert is not None) == hom
            count += 1
    _report(14, f"circular orientation certificate iff circular colouring, "
                f"{count} cases over all graphs of order <= 5", ok)


def test_criterion_15_ordering():
    rep = suite_ordering(nmax=4)
    _report(15, f"power functor monotonicity over {rep.checked} checks",
            rep.ok and rep.checked == 44 * 48)


def test_criterion_16_powers_chi_c():
    r5 = circular_bound_via_powers(cycle_graph(5), 2, 1)
    r7 = circular_bound_via_powers(cycle_graph(7), 3, 2)
    ok = (
        r5.value == Fraction(5, 2) == circular_chromatic_number(cycle_graph(5))
        and r7.value == Fraction(7, 3) == circular_chromatic_number(cycle_graph(7))
    )
    _report(16, "grid bound through powers equals chi_c for C_5 and C_7", ok)


def test_criterion_17_counting_adjunction_fails():
    left = engine.hom_count(
        lambda_functor(path_template(3), complete_graph(2)), complete_graph(3)
    )
    right = engine.hom_count(
        complete_graph(2), gamma_functor(path_template(3), complete_graph(3))
    )
    _report(17, f"hom counts differ across the adjunction: {left} != {right}",
            left == 24 and right == 9 and left != right)


def test_criterion_18_multiplicativity():
    ok = True
    for k in (complete_graph(2), cycle_graph(5), cycle_graph(7)):
        ok = ok and engine.multiplicativity_search(k, 4) is None
    _report(18, "no multiplicativity counterexample at order <= 4 for "
                "K_2, C_5, C_7", ok)
