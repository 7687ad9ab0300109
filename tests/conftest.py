import importlib
import inspect
import pkgutil
import random
from itertools import permutations, product

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


def interleaved_by_definition(m, h):
    """The m-th interleaved adjoint of H from its definition: the m-tuples
    of vertices of H in lexicographic order, with (u_1..u_m) ->
    (v_1..v_m) iff u_i -> v_i for all i and v_i -> u_{i+1} for i < m."""
    from pultr.graphs import Digraph

    tuples = list(product(range(h.n), repeat=m))
    return Digraph(
        len(tuples),
        [
            (a, b)
            for a, u in enumerate(tuples)
            for b, v in enumerate(tuples)
            if all(h.has_arc(u[i], v[i]) for i in range(m))
            and all(h.has_arc(v[i], u[i + 1]) for i in range(m - 1))
        ],
    )


def orbit_key(g, directed, loops):
    """The least stream position (graphs.stream_index) over the
    relabellings of g: the position of the first member of g's
    isomorphism class in enumerate_graphs, found by relabelling alone."""
    from pultr.graphs import stream_index

    return min(
        stream_index(g.relabel(perm), directed, loops)
        for perm in permutations(range(g.n))
    )


def random_graph(rng, n, p, loops=False):
    from pultr.graphs import Graph

    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def oriented_path_template(spec):
    """Template (K_1, Q) for an oriented path Q given by an orientation
    string.  eps1 maps to the last vertex and eps2 to vertex 0: with the
    subset-tuple right adjoint construction of pultr.adjoints, this is
    the endpoint assignment under which the adjunction biconditional
    holds (the survey text leaves the assignment open; the tests that
    use this template arbitrate)."""
    from pultr.functors import PultrTemplate
    from pultr.graphs import Digraph, oriented_path

    q = oriented_path(spec)
    return PultrTemplate(
        name=f"path-{spec}", p=Digraph(1), q=q, eps1=(q.n - 1,), eps2=(0,)
    )
