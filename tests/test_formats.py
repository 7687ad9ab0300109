import pytest

from pultr.engine import HomWitness
from pultr.errors import ParseError
from pultr.formats import (
    load_template,
    parse_graph,
    parse_template,
    parse_witness,
    serialize_graph,
    serialize_template,
    serialize_witness,
    to_dot,
)
from pultr.functors import builtin_template, validate_template
from pultr.graphs import Digraph, Graph, complete_graph, cycle_graph, path_graph

from conftest import random_digraph, random_graph


def test_parse_examples():
    g = parse_graph("u 3\n0 1\n1 2\n")
    assert isinstance(g, Graph) and g == path_graph(2)
    d = parse_graph("d 2\n0 1\n1 0\n")
    assert d.is_symmetric and d.arc_count == 2
    with pytest.raises(ParseError) as e:
        parse_graph("x 3\n")
    assert e.value.line == 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_graph("u 3\n0 1\n0 7\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_graph("# intro\nu 3\n0 1 2\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_graph("")


def test_round_trip_random(rng):
    for _ in range(40):
        d = random_digraph(rng, rng.randint(0, 50), 0.1)
        assert parse_graph(serialize_graph(d)) == d
        g = random_graph(rng, rng.randint(1, 50), 0.1, loops=True)
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_is_canonical():
    messy = "u 3\n# c\n1 0\n0 1\n2 1\n"
    g = parse_graph(messy)
    assert serialize_graph(g) == "u 3\n0 1\n1 2\n"


def test_dot_export():
    dot = to_dot(cycle_graph(3))
    assert dot.startswith("graph G {") and "0 -- 1;" in dot
    dot = to_dot(Digraph(2, [(0, 1)]))
    assert "0 -> 1;" in dot and dot.startswith("digraph")


def test_template_round_trip():
    for name in ("t3", "lex-k2", "arc-graph", "iota-2", "tensor-c3"):
        t = builtin_template(name)
        back = parse_template(serialize_template(t))
        assert (back.p, back.q, back.eps1, back.eps2, back.symmetry) == (
            t.p,
            t.q,
            t.eps1,
            t.eps2,
            t.symmetry,
        )


def test_shipped_templates_match_builders():
    for name in (
        "t1",
        "t3",
        "t5",
        "lex-k2",
        "tensor-c3",
        "arc-graph",
        "iota-1",
        "iota-2",
        "iota-3",
    ):
        shipped = load_template(name)
        built = builtin_template(name)
        assert (shipped.p, shipped.q, shipped.eps1, shipped.eps2, shipped.symmetry) == (
            built.p,
            built.q,
            built.eps1,
            built.eps2,
            built.symmetry,
        )
        undirected = built.symmetry is not None
        assert validate_template(shipped, undirected_mode=undirected) == []


def test_template_parse_errors():
    with pytest.raises(ParseError):
        parse_template("P:\nu 1\n")  # missing sections
    bad = "P:\nu 1\nQ:\nu 2\n0 1\neps1:\n0 -> 5\neps2:\n0 -> 1\n"
    with pytest.raises(ParseError) as e:
        parse_template(bad)
    assert "out of range" in str(e.value)
    with pytest.raises(ParseError):
        parse_template("stray\nP:\nu 1\n")


def test_witness_round_trip():
    w = HomWitness(3, 2, (0, 1, 0))
    assert parse_witness(serialize_witness(w)) == w
    with pytest.raises(ParseError):
        parse_witness("hom 2 2\n0 0\n")  # missing an entry
    with pytest.raises(ParseError) as e:
        parse_witness("hom 2 2\n0 x\n1 0\n")  # non-integer entry
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_witness("hom 1 2\n0 1\n0 0\n")  # repeated source
    assert e.value.line == 3
