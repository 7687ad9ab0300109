"""pultr benchmark: one workload, closed loop, one pass at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter with PYTHONPATH=src (the tier-1
configuration), single process, workers=1.  Rounds of one set-up
process, which also times the host reference, and one pass repeat while
the next round is expected to end within S seconds; there is at least
one.  With --trace 0 the end-to-end metrics are reported; with --trace 1
every round also runs a traced pass and the per-layer metrics of the
traced passes are reported.  Human-readable lines come first; the last
line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from passes import SUITES, WORKLOADS, clock

ROOT = Path(__file__).resolve().parent.parent
PASSES = Path(__file__).resolve().parent / "passes.py"

# One hash seed for every child: the same inputs then give the same
# set and dict orders, and so the same work, in every process.
HASH_SEED = "0"
# setup_s is given in seconds at the host speed at which the host
# reference takes this long, so that it follows pultr's set-up work and
# not the host's drift (see README.md).
REF_NOMINAL_S = 1.5
HARD_LIMIT_S = 170.0  # a run never starts a pass it could not finish by then
COVERAGE_BOUNDS = (0.9, 1.0 + 1e-9)  # traced layer self time over traced wall

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.decisions": "count",
    "kernel.decisions_per_call": "decisions/call",
    "kernel.decisions_per_s": "decisions/s",
    "kernel.budget_hits": "count",
    "engine.calls": "count",
    "engine.self_s": "s",
    "engine.shortcut_hits": "count",
    "engine.shortcut_ratio": "ratio",
    "engine.verify_witness.calls": "count",
    "engine.verify_witness.self_s": "s",
    "engine.verify_witness.arcs": "count",
    "functors.calls": "count",
    "functors.self_s": "s",
    "functors.out_size": "count",
    "adjoints.calls": "count",
    "adjoints.self_s": "s",
    "adjoints.out_size": "count",
    "graphs.enumerate_graphs.self_s": "s",
    "graphs.enumerate_graphs.yielded": "count",
    "duality.self_s": "s",
    "chromatic.self_s": "s",
    "suites.self_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "process.wait_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "host.ref_s": "s",
}


class ChildError(RuntimeError):
    pass


def git_rev():
    """HEAD of the checkout, read from .git without running git; the
    benchmark checkout is usually not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed):
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_1m": load,
    }


def run_child(args, mode, deadline, trace=False):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    t0 = clock()
    cmd = [
        sys.executable,
        str(PASSES),
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--mode", mode,
        "--t0", repr(t0),
    ]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as e:
        raise ChildError(f"{mode} process passed the {HARD_LIMIT_S:.0f} s limit") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(untraced, traced, setups, trace):
    """Fold pass and set-up records into the result object.  A pass with
    a failed operation is never timed; it only counts in `failed`.

    `wall_ref` is the median pass wall time over the median time of the
    host reference, both taken over the same run; `setup_s` is scaled
    the same way, to REF_NOMINAL_S of reference time.  This host's speed
    drifts by half and more over minutes; the suites and the set-up slow
    down with the reference, so the ratio cancels the drift, while any
    change to pultr's own work moves it in full."""
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0

    def timed(recs):
        good = [p for p in recs if p["failed"] == 0]
        return good or recs

    def med(recs, key):
        return statistics.median(p[key] for p in recs)

    ref_s = med(setups, "ref_s")
    if not trace:
        good = timed(untraced)
        values = {
            "wall_ref": med(good, "wall_s") / ref_s,
            "setup_s": med(setups + untraced, "setup_s") * REF_NOMINAL_S / ref_s,
            "peak_rss_mb": med(good, "peak_rss_mb"),
        }
        units = END_TO_END
    else:
        good, good_traced = timed(untraced), timed(traced)
        values = {
            name: statistics.median(p["layers"][name] for p in good_traced)
            for name in PER_LAYER
            if name in good_traced[0]["layers"]
        }
        values["process.wall_s"] = med(good, "wall_s")
        values["process.cpu_s"] = med(good, "cpu_s")
        values["host.ref_s"] = ref_s
        values["process.wait_s"] = statistics.median(p["wall_s"] - p["cpu_s"] for p in good)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / med(good, "wall_s")
        lo, hi = COVERAGE_BOUNDS
        if not lo <= values["trace.coverage"] <= hi:
            print(
                f"trace.coverage {values['trace.coverage']:.4f} outside [{lo}, {hi:.0f}]",
                file=sys.stderr,
            )
            correct = False
        units = PER_LAYER
    missing = set(units) - set(values)
    if missing:
        raise ChildError(f"metrics not produced: {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def measure(args):
    start = clock()
    deadline = start + HARD_LIMIT_S
    run_child(args, "setup", deadline)  # warm-up: bytecode caches, page cache
    setups, untraced, traced = [], [], []
    window = clock()
    while True:
        round_start = clock()
        # One set-up process per round spreads the set-up and reference
        # samples over the run, so they see the same host as the passes.
        setups.append(run_child(args, "setup", deadline))
        untraced.append(run_child(args, "pass", deadline))
        if args.trace:
            traced.append(run_child(args, "pass", deadline, trace=True))
        # Start another round only if it should end inside the window.
        now = clock()
        if now + (now - round_start) > min(window + args.seconds, deadline):
            break
    kernels = {r["kernel"] for r in setups + untraced + traced}
    return setups, untraced, traced, kernels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--size", choices=sorted(SUITES), default="full",
        help="input size; 'tiny' is for the self-test only",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pultr" / "__init__.py").is_file():
        print(f"no pultr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = host_record(args.seed)
    try:
        setups, untraced, traced, kernels = measure(args)
        result = summarize(untraced, traced, setups, bool(args.trace))
    except ChildError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    record["kernel"] = ",".join(sorted(kernels))
    record["workload"] = args.workload
    record["trace"] = args.trace

    print("env " + json.dumps(record))
    for note in dict.fromkeys(n for p in untraced + traced for n in p["notes"]):
        print("check " + note)
    for kind, recs in (("untraced", untraced), ("traced", traced)):
        if recs:
            walls = " ".join(f"{p['wall_s']:.3f}" for p in recs)
            print(f"passes {kind} {len(recs)} wall_s: {walls}")
    refs = " ".join(f"{r['ref_s']:.3f}" for r in setups)
    print(f"reference {len(setups)} ref_s: {refs}")
    setup_raw = statistics.median(r["setup_s"] for r in setups + untraced)
    print(f"setup_s samples {len(setups) + len(untraced)}, raw median {setup_raw:.4f} s")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
