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
)
from pultr.functors import BUILTIN_TEMPLATE_NAMES, builtin_template, validate_template
from pultr.graphs import Graph, path_graph

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


def test_shipped_templates_match_builders():
    # A bare built-in name loads its builder's template; the text format
    # round-trips each of them; each is valid in its mode.
    for name in BUILTIN_TEMPLATE_NAMES:
        t = builtin_template(name)
        assert load_template(name) == t
        assert parse_template(serialize_template(t)) == t
        assert validate_template(t, undirected_mode=t.symmetry is not None) == []


def test_template_parse_errors():
    with pytest.raises(ParseError):
        parse_template("P:\nu 1\n")  # missing sections
    bad = "P:\nu 1\nQ:\nu 2\n0 1\neps1:\n0 -> 5\neps2:\n0 -> 1\n"
    with pytest.raises(ParseError) as e:
        parse_template(bad)
    assert "out of range" in str(e.value)
    with pytest.raises(ParseError):
        parse_template("stray\nP:\nu 1\n")
    # A ParseError inside a graph section names its line in the file, past
    # comments and blank lines, and once.
    bad_edge = "P:\nu 1\nQ:\n# a comment\n\nu 2\n0 1\n0 5\neps1:\n0 -> 0\neps2:\n0 -> 1\n"
    with pytest.raises(ParseError) as e:
        parse_template(bad_edge)
    assert e.value.line == 8
    assert str(e.value) == "line 8: vertex out of range in '0 5'"
    bad_header = "name: x\n\nP:\n# order next\nq 1\nQ:\nu 1\n"
    with pytest.raises(ParseError) as e:
        parse_template(bad_header + "eps1:\n0 -> 0\neps2:\n0 -> 0\n")
    assert e.value.line == 5
    assert str(e.value).startswith("line 5: expected header")
    # An empty section names the line of its header.
    with pytest.raises(ParseError) as e:
        parse_template("P:\nu 1\n\nQ:\n# nothing\neps1:\neps2:\n")
    assert e.value.line == 4
    assert str(e.value) == "line 4: empty graph text"
    # A map section that misses a source, or is empty, names its header.
    graphs = "P:\nu 2\nQ:\nu 2\n0 1\n"
    for maps, line in (
        ("eps1:\n0 -> 0\neps2:\n0 -> 1\n1 -> 0\n", 6),
        ("eps1:\n0 -> 0\n1 -> 1\n\n# none\neps2:\n", 11),
        ("eps1:\n0 -> 0\n1 -> 1\neps2:\n0 -> 1\n1 -> 0\nsym:\n", 12),
    ):
        with pytest.raises(ParseError) as e:
            parse_template(graphs + maps)
        assert e.value.line == line
        assert "map misses sources" in str(e.value)


def test_witness_round_trip():
    w = HomWitness(3, 2, (0, 1, 0))
    assert parse_witness(serialize_witness(w)) == w
    with pytest.raises(ParseError) as e:
        parse_witness("# a witness\nhom 2 2\n0 0\n")  # missing an entry
    assert e.value.line == 2
    assert str(e.value) == "line 2: witness does not cover the source"
    with pytest.raises(ParseError) as e:
        parse_witness("hom 2 2\n0 x\n1 0\n")  # non-integer entry
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_witness("hom 1 2\n0 1\n0 0\n")  # repeated source
    assert e.value.line == 3
