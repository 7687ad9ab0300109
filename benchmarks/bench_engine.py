#!/usr/bin/env python3
"""Benchmark the compiled search kernel against the pure-Python fallback.

Both kernels implement the same algorithm and return identical results;
this script times them on representative workloads and prints a table.

    python benchmarks/bench_engine.py [--repeat N]
"""

import argparse
import time

from pultr import _fallback, limits
from pultr.adjoints import omega_odd_path
from pultr.engine import MODE_EXISTS, kernel_args
from pultr.functors import builtin_template, gamma_functor, lambda_functor
from pultr.duality import shift_graph
from pultr.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    kneser_pairs,
    symmetrization,
)

try:
    from pultr import _speedups
except ImportError:
    _speedups = None


def solve_args(g, h):
    with limits.scope(budget=10**9):
        return kernel_args(g, h, MODE_EXISTS)


def workload_adjunction_pairs():
    """All hom checks of the directed arc-graph adjunction harness at
    order <= 3: many tiny searches (call overhead bound)."""
    t = builtin_template("arc-graph")
    universe = list(
        enumerate_graphs(3, directed=True, loops=True, all_orders=True)
    )
    lams = [lambda_functor(t, g) for g in universe]
    gams = [gamma_functor(t, k) for k in universe]
    jobs = []
    for lam in lams:
        for k in universe:
            jobs.append(solve_args(lam, k))
    for g in universe:
        for gam in gams:
            jobs.append(solve_args(g, gam))
    return jobs


def workload_omega_targets():
    """Homomorphisms of all order-<=4 graphs into a 210-vertex
    subset-tuple graph: multi-word domains, propagation heavy."""
    om = omega_odd_path(5, cycle_graph(5))
    return [
        solve_args(g, om)
        for g in enumerate_graphs(4, directed=False, loops=True, all_orders=True)
    ]


def workload_refutations():
    """Deep unsatisfiable searches: odd shift graphs and Kneser targets."""
    jobs = []
    jobs.append(solve_args(shift_graph(7, 3, directed=False), complete_graph(2)))
    jobs.append(solve_args(cycle_graph(11), kneser_pairs(5)))
    jobs.append(solve_args(omega_odd_path(3, complete_graph(4)), complete_graph(3)))
    jobs.append(
        solve_args(symmetrization(shift_graph(8, 2)), complete_graph(2))
    )
    return jobs


WORKLOADS = (
    ("tiny-adjunction-pairs", workload_adjunction_pairs),
    ("omega-210-targets", workload_omega_targets),
    ("refutations", workload_refutations),
)


def run(kernel, jobs, repeat):
    best = None
    results = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = [kernel.solve(*job) for job in jobs]
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if _speedups is None:
        print("compiled kernel not available; showing fallback only")
    print(f"{'workload':<24} {'jobs':>6} {'python':>10} {'compiled':>10} {'speedup':>8}")
    for name, factory in WORKLOADS:
        jobs = factory()
        t_py, r_py = run(_fallback, jobs, args.repeat)
        if _speedups is not None:
            t_c, r_c = run(_speedups, jobs, args.repeat)
            assert r_py == r_c, f"kernel mismatch on {name}"
            print(
                f"{name:<24} {len(jobs):>6} {t_py:>9.3f}s {t_c:>9.3f}s "
                f"{t_py / t_c:>7.1f}x"
            )
        else:
            print(f"{name:<24} {len(jobs):>6} {t_py:>9.3f}s {'-':>10} {'-':>8}")


if __name__ == "__main__":
    main()
