import importlib
import inspect
import pkgutil
import random

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
