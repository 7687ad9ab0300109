"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that corrupted results are counted as failures and raise the error
rate above 0, that the tracer rebinds and restores every module binding
of the entry points it wraps, and that the benchmark refuses to run in a
directory without the pultr sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import passes  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_matches_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    # The benchmark gates a subset of the workloads; all stay runnable.
    assert {w["name"] for w in SPEC["workloads"]} <= set(passes.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_every_metric_emitted_with_unit():
    for workload in passes.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_tiny(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, proc.stderr)
            assert result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = result["metrics"]
            assert set(got) == set(want), (workload, trace)
            for name, unit in want.items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, name
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
                assert math.isfinite(value), name


def _corrupt(result):
    """A wrong answer of the same shape as the right one."""
    if isinstance(result, str):
        return result.replace("checked=", "checked=1")
    if isinstance(result, int):
        return result + 1
    if isinstance(result, list):
        return result[:-1]
    # A witness sending every vertex to one target vertex: C_5 has no
    # loops, so no arc survives.
    return dataclasses.replace(result, mapping=(result.mapping[0],) * len(result.mapping))


def test_corrupted_results_raise_error_rate():
    pultr = passes.import_pultr()
    for workload in passes.WORKLOADS:
        ops = passes.build_ops(pultr, workload, "tiny", 7)
        clean = passes.run_pass(ops)
        assert clean["failed"] == 0, clean["notes"]
        for op in ops:
            op.call = lambda call=op.call: _corrupt(call())
        rec = dict(passes.run_pass(ops), setup_s=0.1)
        assert rec["failed"] == rec["attempted"] == len(ops), rec["notes"]
        result = run.summarize([rec], [], [{"setup_s": 0.1, "ref_s": 0.5}], trace=False)
        assert result["correct"] is False
        assert result["failed"] / result["attempted"] > 0


def test_exception_counts_as_failure():
    def boom():
        raise pultr.BudgetExceededError(1)

    pultr = passes.import_pultr()
    ops = passes.build_ops(pultr, "large-sparse", "tiny", 7)
    ops[0].call = boom
    rec = passes.run_pass(ops)
    assert rec["failed"] == 1 and rec["attempted"] == 3


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "pultr" or name.startswith("pultr.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_rebinds_every_binding():
    pultr = passes.import_pultr()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(orig) for _mod, _attr, orig in tracer._restore}
        during = _bindings()
        assert not [k for k, v in during.items() if id(v) in originals]
        # Spot checks of names imported with `from ... import`.
        assert hasattr(pultr.suites.gamma_functor, "__wrapped__")
        assert hasattr(pultr.duality.enumerate_graphs, "__wrapped__")
        assert hasattr(pultr.chromatic.power_functor, "__wrapped__")
        rec = passes.run_pass(passes.build_ops(pultr, "suite-omega", "tiny", 7))
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert rec["failed"] == 0
    layers = tracer.layer_metrics(rec["wall_s"])
    assert layers["kernel.calls"] > 0 and layers["functors.calls"] > 0
    assert 0.5 < layers["trace.coverage"] <= 1.0


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_tiny("suite-omega", 0, cwd=tmp)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main():
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as e:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {name}: {e!r}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
