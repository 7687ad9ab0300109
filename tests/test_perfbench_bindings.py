"""The names of pultr that the benchmark binds still exist.

perfbench/tracing.py wraps each entry point it lists, at every pultr
module binding that holds it, and the kernel's `solve`; perfbench/passes.py
calls `kernel_name`, `run_suite(..., workers=1)` and the engine's hom
functions.  Deleting or renaming one of them breaks the benchmark, not
the library's own tests, so it is pinned here: each listed entry point is
looked up, and one traced pass of each workload runs at its tiny size,
the way the benchmark starts it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pultr import adjoints, engine, functors, kernel_name

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
passes = _load("passes")


@pytest.mark.parametrize(
    "module, names",
    [
        (engine, tracing.ENGINE_ENTRIES),
        (functors, tracing.FUNCTOR_ENTRIES),
        (adjoints, tracing.ADJOINT_ENTRIES),
    ],
    ids=["engine", "functors", "adjoints"],
)
def test_traced_entry_points_exist(module, names):
    for name in names:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_kernel_entry_points_exist():
    assert callable(engine._kernel.solve)
    assert kernel_name() == "python"


@pytest.mark.parametrize("workload", passes.WORKLOADS)
def test_traced_tiny_pass(workload):
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, str(PERFBENCH / "passes.py"), "--workload", workload]
    argv += ["--size", "tiny", "--seed", "0", "--mode", "pass", "--trace", "--t0", "0"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rec = json.loads(done.stdout)
    assert rec["kernel"] == "python"
    assert rec["attempted"] > 0 and rec["failed"] == 0, rec["notes"]
    assert rec["layers"]["kernel.calls"] > 0
