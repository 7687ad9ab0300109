"""One benchmark process: build a workload's inputs, then either time the
host reference (--mode setup) or run one pass over them (--mode pass),
and report it as a JSON line on stdout.

    python3 perfbench/passes.py --workload W --size full|tiny --seed N \
        --mode setup|pass [--trace] --t0 T

`--t0` is the CLOCK_MONOTONIC reading the parent took just before
starting this interpreter, so `setup_s` runs from interpreter start to
the point where the inputs are ready.  Every result is checked here by
code that does not call the searcher: suite verdict lines against fixed
strings, large-sparse witnesses against the benchmark's own edge lists,
counts against closed forms.  An operation fails on a wrong result or on
any exception, BudgetExceededError included.
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-adjunction", "suite-omega", "suite-duality", "large-sparse")

# Suite workloads: (suite name, nmax, exact verdict line) per size.
SUITES = {
    "full": {
        "suite-adjunction": ("adjunction", 3, "VERDICT adjunction PASS checked=583704"),
        "suite-omega": ("omega", 4, "VERDICT omega PASS checked=6596"),
        "suite-duality": ("duality", 4, "VERDICT duality PASS checked=330331"),
    },
    "tiny": {
        "suite-adjunction": ("adjunction", 2, "VERDICT adjunction PASS checked=1048"),
        "suite-omega": ("omega", 2, "VERDICT omega PASS checked=68"),
        "suite-duality": ("duality", 2, "VERDICT duality PASS checked=91"),
    },
}

# large-sparse: (cycle order for exists, path edges for count, path edges
# for enumerate) per size.
SPARSE = {"full": (1000, 6000, 3000), "tiny": (10, 60, 30)}


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Op:
    """One operation of a pass: a call into pultr and the benchmark's own
    check of its result."""

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def _maps_edges(mapping, n, edges, target_adjacent):
    """The benchmark's own arc check: `mapping` sends every edge of the
    source (given as the benchmark's edge list) to an edge of the target."""
    return (
        mapping is not None
        and len(mapping) == n
        and all(target_adjacent(mapping[u], mapping[v]) for u, v in edges)
    )


def suite_ops(pultr, workload, size):
    name, nmax, expected = SUITES[size][workload]

    def call():
        # Looked up at call time, so a traced pass goes through the wrapper.
        return pultr.suites.run_suite(name, nmax=nmax, workers=1).verdict_line()

    return [Op(expected, call, lambda line: line == expected)]


def sparse_ops(pultr, size, seed):
    cycle_n, count_m, enum_m = SPARSE[size]
    engine = pultr.engine

    # Exists: C_n into C_5 after a relabelling drawn from the seed.
    perm = list(range(cycle_n))
    random.Random(seed).shuffle(perm)
    cycle_edges = [(perm[i], perm[(i + 1) % cycle_n]) for i in range(cycle_n)]
    cycle = pultr.Graph(cycle_n, cycle_edges)
    c5 = pultr.Graph(5, [(i, (i + 1) % 5) for i in range(5)])

    def c5_adjacent(a, b):
        return (a - b) % 5 in (1, 4)

    def check_exists(w):
        # An even cycle maps onto an edge of C_5, so a witness must exist.
        return w is not None and _maps_edges(w.mapping, cycle_n, cycle_edges, c5_adjacent)

    # Count and enumerate keep the natural labelling (see README.md).
    k2 = pultr.Graph(2, [(0, 1)])
    count_path = pultr.Graph(count_m + 1, [(i, i + 1) for i in range(count_m)])
    enum_path = pultr.Graph(enum_m + 1, [(i, i + 1) for i in range(enum_m)])
    # A connected bipartite graph has exactly its two proper 2-colourings
    # as maps to K_2; in lexicographic order they start with 0 and with 1.
    colourings = [
        tuple(i % 2 for i in range(enum_m + 1)),
        tuple((i + 1) % 2 for i in range(enum_m + 1)),
    ]

    def check_enum(ws):
        return [w.mapping for w in ws] == colourings

    return [
        Op(
            f"hom_exists C_{cycle_n}(seed {seed}) -> C_5",
            lambda: engine.hom_exists(cycle, c5),
            check_exists,
        ),
        Op(
            f"hom_count P_{count_m} -> K_2 == 2",
            lambda: engine.hom_count(count_path, k2),
            lambda count: count == 2,
        ),
        Op(
            f"hom_enumerate P_{enum_m} -> K_2 gives 2 maps",
            lambda: engine.hom_enumerate(enum_path, k2),
            check_enum,
        ),
    ]


def build_ops(pultr, workload, size, seed):
    if workload == "large-sparse":
        return sparse_ops(pultr, size, seed)
    return suite_ops(pultr, workload, size)


def run_ops(ops):
    """Run every operation once; returns (attempted, failed, notes)."""
    failed = 0
    notes = []
    for op in ops:
        try:
            ok = bool(op.check(op.call()))
        except Exception:  # a failed operation is counted; the pass goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
        notes.append(f"{'ok' if ok else 'FAILED'} {op.name}")
    return len(ops), failed, notes


def run_pass(ops, tracer=None):
    """Time one pass, from the first call to the last checked result."""
    if tracer is not None:
        tracer.install()
    try:
        c0 = time.process_time()
        w0 = time.perf_counter()
        attempted, failed, notes = run_ops(ops)
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics(wall)
    return rec


# The host reference: a fixed piece of plain Python that is in no way
# pultr's code, so no change to pultr moves it.  Timed in the set-up
# processes, it measures how fast this host runs Python during the run.
# Its two parts slow down by different amounts when the host gets
# slower: interpreter-bound backtracking (about 1.9x between the host's
# fast and slow spells) and random access over a heap larger than the
# caches (about 1.4x).  Mixed at about 45% / 55% of the time, they slow
# down as the suites do (about 1.6x); see README.md.
REF_GRID = (4, 5)
REF_COLOURS = 3
REF_COLOUR_REPEATS = 6
REF_COLOURINGS = 54450  # proper 3-colourings of the 4 x 5 grid
REF_HEAP_OBJECTS = 150_000
REF_HEAP_SWEEPS = 3


def count_colourings(rows, cols, k):
    """Proper k-colourings of the rows x cols grid, by backtracking."""
    n = rows * cols
    nbrs = [[] for _ in range(n)]
    for v in range(n):
        if v % cols + 1 < cols:
            nbrs[v].append(v + 1)
            nbrs[v + 1].append(v)
        if v + cols < n:
            nbrs[v].append(v + cols)
            nbrs[v + cols].append(v)
    colour = [-1] * n

    def count(v):
        if v == n:
            return 1
        used = {colour[u] for u in nbrs[v]}
        total = 0
        for c in range(k):
            if c not in used:
                colour[v] = c
                total += count(v + 1)
        colour[v] = -1
        return total

    return count(0)


def sweep_heap(n, sweeps):
    """Build n small objects, then read them `sweeps` times in a fixed
    shuffled order; returns the sum read."""
    objs = [(i, [i, i + 1], {"k": i}) for i in range(n)]
    order = list(range(n))
    random.Random(1).shuffle(order)
    total = 0
    for _ in range(sweeps):
        for i in order:
            obj = objs[i]
            total += obj[1][0] + obj[2]["k"]
    return total


def time_reference():
    """Wall seconds of the host reference; raises if it miscounts."""
    w0 = time.perf_counter()
    counts = [count_colourings(*REF_GRID, REF_COLOURS) for _ in range(REF_COLOUR_REPEATS)]
    total = sweep_heap(REF_HEAP_OBJECTS, REF_HEAP_SWEEPS)
    wall = time.perf_counter() - w0
    n = REF_HEAP_OBJECTS
    if counts != [REF_COLOURINGS] * REF_COLOUR_REPEATS or total != REF_HEAP_SWEEPS * n * (n - 1):
        raise RuntimeError(f"host reference miscounted: {counts[0]}, {total}")
    return wall


def import_pultr():
    """Import the pultr of this checkout's src/, never an installed one."""
    import pultr
    import pultr.suites

    src = (ROOT / "src").resolve()
    if src not in Path(pultr.__file__).resolve().parents:
        raise ImportError(f"pultr imported from {pultr.__file__}, not from {src}")
    return pultr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--size", choices=sorted(SUITES), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    pultr = import_pultr()
    ops = build_ops(pultr, args.workload, args.size, args.seed)
    rec = {"setup_s": clock() - args.t0, "kernel": pultr.kernel_name()}
    if args.mode == "setup":
        rec["ref_s"] = time_reference()
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        rec.update(run_pass(ops, tracer))
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
