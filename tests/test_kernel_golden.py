"""Golden corpus for the search kernel: the payload and the decision
count of `solve` in all three modes (existence, counting, enumeration)
over a fixed set of digraph pairs, recorded in
tests/data/kernel_golden.json.

The corpus holds every ordered pair of digraphs of order <= 2, loops
allowed (18 x 18), and 200 seeded random pairs of order <= 5.  An
enumeration payload is stored as the SHA-256 of its repr; its length is
the counting payload.  It catches any change of witness, count,
enumeration order or decision count.  Two more cases pin `_fallback`
to recorded values: existence searches into the 210-vertex
Omega_5(C_5), whose domains span several machine words, and the budget
cut-offs of C_9 -> C_7.

Re-record with `PYTHONPATH=src python tests/test_kernel_golden.py` only
for a change that is meant to move these numbers, and say so where the
change is recorded.
"""

import hashlib
import json
import random
from pathlib import Path

from pultr import _fallback, limits
from pultr.adjoints import omega_odd_path
from pultr.engine import MODE_COUNT, MODE_ENUM, MODE_EXISTS, kernel_args
from pultr.graphs import Digraph, complete_graph, cycle_graph, enumerate_graphs

CORPUS = Path(__file__).with_name("data") / "kernel_golden.json"
RANDOM_SEED = 0x5EED
RANDOM_PAIRS = 200


def _digest(maps):
    return hashlib.sha256(repr(maps).encode()).hexdigest()


def _record(solve, g, h):
    """[exists payload, decisions], [count, decisions], [enumeration
    digest, decisions] of solve for g -> h."""
    out = []
    with limits.scope(budget=limits.DEFAULT_NODE_BUDGET):
        for mode in (MODE_EXISTS, MODE_COUNT, MODE_ENUM):
            status, payload, decisions = solve(*kernel_args(g, h, mode))
            assert status == 0
            if mode == MODE_EXISTS and payload is not None:
                payload = list(payload)
            elif mode == MODE_ENUM:
                payload = _digest(payload)
            out.append([payload, decisions])
    return out


def _random_digraph(rng):
    n = rng.randint(0, 5)
    p = rng.choice([0.15, 0.3, 0.5])
    loops = rng.random() < 0.3
    return Digraph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(n)
            if (u != v or loops) and rng.random() < p
        ],
    )


def _pairs():
    small = list(enumerate_graphs(2, directed=True, loops=True, all_orders=True))
    pairs = [(g, h) for g in small for h in small]
    rng = random.Random(RANDOM_SEED)
    pairs += [
        (_random_digraph(rng), _random_digraph(rng)) for _ in range(RANDOM_PAIRS)
    ]
    return pairs


def _as_digraph(n, arcs):
    return Digraph(n, [tuple(a) for a in arcs])


def _load():
    return json.loads(CORPUS.read_text())["cases"]


def test_corpus_covers_its_pairs():
    listed = [
        (_as_digraph(g_n, g_arcs), _as_digraph(h_n, h_arcs))
        for g_n, g_arcs, h_n, h_arcs, *_ in _load()
    ]
    assert listed == _pairs()
    assert max(max(g.n, h.n) for g, h in listed) == 5


def test_fallback_matches_golden_corpus():
    cases = _load()
    assert len(cases) == 18 * 18 + RANDOM_PAIRS
    for g_n, g_arcs, h_n, h_arcs, *want in cases:
        g, h = _as_digraph(g_n, g_arcs), _as_digraph(h_n, h_arcs)
        assert _record(_fallback.solve, g, h) == want, (g, h)


# (exists payload, decisions) for the first 40 graphs of
# enumerate_graphs(3, directed=False, loops=True) into Omega_5(C_5).
OMEGA_CASES = [
    ((0, 0, 0), 0), (None, 0), ((33, 75, 0), 2), (None, 0),
    ((33, 0, 75), 2), (None, 0), ((33, 75, 75), 3), (None, 0),
    (None, 0), (None, 0), (None, 0), (None, 0),
    (None, 0), (None, 0), (None, 0), (None, 0),
    ((0, 33, 75), 2), (None, 0), ((33, 75, 33), 3), (None, 0),
    ((33, 33, 75), 3), (None, 0), (None, 25), (None, 0),
] + [(None, 0)] * 16


def test_multi_word_domains():
    om = omega_odd_path(5, cycle_graph(5))
    assert om.n == 210
    graphs = list(enumerate_graphs(3, directed=False, loops=True))[:40]
    got = []
    with limits.scope(budget=limits.DEFAULT_NODE_BUDGET):
        for g in graphs:
            status, payload, decisions = _fallback.solve(
                *kernel_args(g, om, MODE_EXISTS)
            )
            assert status == 0
            got.append((payload, decisions))
    assert got == OMEGA_CASES


def _padded(g, pad):
    """g with `pad` isolated vertices put before it."""
    return Digraph(g.n + pad, [(u + pad, v + pad) for u, v in g.arc_list])


def test_vertices_off_the_arcs_are_not_branched_on():
    # Three isolated vertices before C_5 -> K_2: the refutation is made
    # once, as for C_5 alone, not once per value of the isolated ones.
    k2 = complete_graph(2)
    with limits.scope(budget=limits.DEFAULT_NODE_BUDGET):
        alone = _fallback.solve(*kernel_args(cycle_graph(5), k2, MODE_EXISTS))
        padded = _fallback.solve(
            *kernel_args(_padded(cycle_graph(5), 3), k2, MODE_EXISTS)
        )
    assert alone[1] is None and alone[2] > 0
    assert padded == alone

    # A positive case: each isolated vertex takes the lowest value of its
    # domain, and C_6 keeps its own witness and decision count.
    k3 = complete_graph(3)
    with limits.scope(budget=limits.DEFAULT_NODE_BUDGET):
        status, mapping, decisions = _fallback.solve(
            *kernel_args(cycle_graph(6), k3, MODE_EXISTS)
        )
        args = list(kernel_args(_padded(cycle_graph(6), 3), k3, MODE_EXISTS))
        args[3][:3] = [0b110, 0b101, 0b100]
        padded = _fallback.solve(*args)
    assert status == 0 and decisions > 0
    assert padded == (0, (1, 0, 2, *mapping), decisions)


def test_budget_cutoffs():
    # (status, payload, decisions) of C_9 -> C_7 under each budget.
    want = {
        1: (1, None, 2),
        3: (1, None, 4),
        10: (0, (0, 1, 0, 1, 2, 3, 4, 5, 6), 4),
        50: (0, (0, 1, 0, 1, 2, 3, 4, 5, 6), 4),
        1000: (0, (0, 1, 0, 1, 2, 3, 4, 5, 6), 4),
    }
    for budget, result in want.items():
        with limits.scope(budget=budget):
            got = _fallback.solve(
                *kernel_args(cycle_graph(9), cycle_graph(7), MODE_EXISTS)
            )
        assert got == result, budget


def _write():
    lines = []
    for g, h in _pairs():
        case = [g.n, g.arc_list, h.n, h.arc_list, *_record(_fallback.solve, g, h)]
        lines.append(json.dumps(case, separators=(",", ":")))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text('{"cases": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    _write()
