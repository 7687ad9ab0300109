import importlib.util
import inspect
import pkgutil
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import pultr


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_digraph(rng, n, p):
    from pultr.graphs import Digraph

    return Digraph(
        n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p]
    )


def functions_taking(parameter):
    """The qualified names of the pultr functions, module by module, that
    take a parameter of the given name."""
    found = set()
    for info in pkgutil.iter_modules(pultr.__path__):
        module = importlib.import_module(f"pultr.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and parameter in inspect.signature(obj).parameters
            ):
                found.add(f"{module.__name__}.{name}")
    return found


def random_graph(rng, n, p, loops=False):
    from pultr.graphs import Graph

    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """The compiled kernel, built from the committed src/pultr/_speedups.c
    with sysconfig's C compiler into a temp dir.  It is loaded under a
    private handle: the module registers itself in sys.modules while it
    initialises, and that entry is taken back out, so the kernel that
    pultr.engine selected is unchanged.  Skipped only without a C
    compiler."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) to build the compiled kernel")
    source = Path(pultr.__file__).with_name("_speedups.c")
    out = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [
            *cc,
            *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
            "-shared",
            "-O2",
            "-I" + sysconfig.get_paths()["include"],
            str(source),
            "-o",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    if build.returncode:
        pytest.fail(f"building {source} failed:\n{build.stderr}")
    name = "pultr._speedups"
    prior = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, out)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if prior is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = prior
    return module
