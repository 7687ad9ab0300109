"""Property tests: the text formats round-trip on random small graphs
and maps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pultr.engine import HomWitness
from pultr.formats import parse_graph, parse_witness, serialize_graph, serialize_witness
from pultr.graphs import Digraph, Graph

ORDERS = st.integers(min_value=0, max_value=8)


@st.composite
def graphs(draw):
    n = draw(ORDERS)
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex))) if n else []
    return draw(st.sampled_from([Graph, Digraph]))(n, pairs)


@st.composite
def witnesses(draw):
    n = draw(ORDERS)
    m = draw(st.integers(min_value=1, max_value=8))
    mapping = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return HomWitness(n, m, tuple(mapping))


@settings(deadline=None)
@given(graphs())
def test_graph_round_trip(g):
    text = serialize_graph(g)
    back = parse_graph(text)
    assert back == g
    assert isinstance(back, Graph) == g.is_symmetric
    assert serialize_graph(back) == text


@settings(deadline=None)
@given(witnesses())
def test_witness_round_trip(w):
    text = serialize_witness(w)
    assert parse_witness(text) == w
    assert serialize_witness(parse_witness(text)) == text
