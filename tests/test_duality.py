import math
import random
from itertools import islice, product

import pytest

from pultr import duality, engine, suites
from pultr.adjoints import arc_graph
from pultr.chromatic import chromatic_number, k_colourable
from pultr.cli import main
from pultr.duality import (
    DualityJob,
    DualityReport,
    SproinkRecipe,
    delta_colouring_lift,
    minimal_path_sproink_specs,
    minimal_path_sproinks,
    shift_graph,
    sproink,
    validate_recipe,
    verify_dualities,
    verify_duality,
)
from pultr.engine import HomWitness
from pultr.errors import ParameterError
from pultr.graphs import (
    Digraph,
    complete_graph,
    directed_cycle,
    directed_path,
    enumerate_graphs,
    odd_girth,
    oriented_path,
    stream_index,
    symmetrization,
    tensor_product,
    transitive_tournament,
)


def test_shift_graph_examples():
    assert engine.isomorphic(shift_graph(4, 2), arc_graph(transitive_tournament(4)))
    assert engine.isomorphic(shift_graph(5, 3), arc_graph(shift_graph(5, 2)))
    assert shift_graph(5, 2).n == 10
    with pytest.raises(ParameterError):
        shift_graph(3, 1)


def test_shift_graph_odd_girth():
    for n, k in ((6, 2), (7, 3), (9, 4)):
        og = odd_girth(shift_graph(n, k, directed=False))
        assert og >= 2 * k + 1
        if n >= 2 * k + 1:
            assert og == 2 * k + 1


def test_shift_chromatic_log_bound():
    for n in (4, 8):
        chi = chromatic_number(shift_graph(n, 2, directed=False))
        assert chi >= math.ceil(math.log2(n))


def test_delta_colouring_lift():
    k4 = complete_graph(4)
    delta = arc_graph(k4)
    sym = symmetrization(delta)
    chi = chromatic_number(sym)
    col = k_colourable(sym, chi)
    lift = delta_colouring_lift(k4, HomWitness(delta.n, chi, tuple(col)))
    assert engine.verify_witness(k4, complete_graph(1 << chi), lift.mapping)


def test_delta_colouring_lift_rejects_improper():
    c3 = directed_cycle(3)
    with pytest.raises(ParameterError):
        delta_colouring_lift(c3, HomWitness(3, 1, (0, 0, 0)))


def test_delta_colouring_lift_empty():
    h = Digraph(3)
    lift = delta_colouring_lift(h, HomWitness(0, 1, ()))
    assert lift.mapping == (0, 0, 0)


def test_minimal_path_sproinks_expansions():
    assert minimal_path_sproink_specs(3, 12) == ["11"]
    assert minimal_path_sproink_specs(4, 6) == ["111", "11011"]
    assert minimal_path_sproink_specs(5, 4) == ["1111"]
    assert minimal_path_sproink_specs(4, 2) == []
    with pytest.raises(ParameterError):
        minimal_path_sproink_specs(2, 10)


def test_minimal_path_sproink_specs_match_the_box_walk():
    # The oracle walks every tuple of group repeats in the box
    # [0, budget]^(k-3), keeps those with sum <= budget, and sorts.
    def box_walk(k, max_len):
        budget = (max_len - (k - 1)) // 2
        if budget < 0:
            return []
        specs = [
            "1" + "".join("1" + "01" * a for a in reps) + "1"
            for reps in product(range(budget + 1), repeat=k - 3)
            if sum(reps) <= budget
        ]
        return sorted(specs, key=lambda s: (len(s), s))

    for k in range(3, 9):
        for max_len in range(19):
            assert minimal_path_sproink_specs(k, max_len) == box_walk(k, max_len)


def _minimal_recipe_for_path(k):
    """All interior pieces are single arcs, the ends are single vertices;
    gluing along the k-arc directed path."""
    base = directed_path(k)
    pieces = []
    attachments = []
    arcs = list(base.arc_list)
    for u in range(k + 1):
        if u == 0:
            pieces.append((Digraph(1), (1,)))
        elif u == k:
            pieces.append((Digraph(1), (0,)))
        else:
            pieces.append((Digraph(2, [(0, 1)]), (0, 1)))
        att = {}
        for ei, (a, b) in enumerate(arcs):
            if a == u:
                att[ei] = 0 if u == 0 else 1
            elif b == u:
                att[ei] = 0
        attachments.append(att)
    return SproinkRecipe(base, tuple(pieces), tuple(attachments))


def test_sproink_of_path_is_minimal_spec():
    recipe = _minimal_recipe_for_path(3)
    assert validate_recipe(recipe) == []
    s = sproink(recipe)
    assert engine.isomorphic(s, oriented_path("11"))
    s4 = sproink(_minimal_recipe_for_path(4))
    assert engine.isomorphic(s4, oriented_path("111"))


def test_sproink_of_single_arc_base():
    # base = one arc; with both pieces K_1 the two attachment points are
    # identified, leaving the one-vertex tree (the correct obstruction for
    # the empty arc graph of the one-vertex tournament)
    base = directed_path(1)
    recipe = SproinkRecipe(
        base,
        ((Digraph(1), (1,)), (Digraph(1), (0,))),
        ({0: 0}, {0: 0}),
    )
    assert validate_recipe(recipe) == []
    s = sproink(recipe)
    assert s.n == 1 and s.arc_count == 0
    # with an arc piece at the tail the sproink is the single arc
    recipe = SproinkRecipe(
        base,
        ((Digraph(2, [(0, 1)]), (0, 1)), (Digraph(1), (0,))),
        ({0: 1}, {0: 0}),
    )
    s = sproink(recipe)
    assert engine.isomorphic(s, directed_path(1))


def test_sproink_rejects_bad_levels():
    recipe = _minimal_recipe_for_path(3)
    # flip one piece's level map so an arc goes 1 -> 0
    pieces = list(recipe.pieces)
    pieces[1] = (pieces[1][0], (1, 0))
    bad = SproinkRecipe(recipe.base, tuple(pieces), recipe.attachments)
    assert validate_recipe(bad)
    with pytest.raises(ParameterError):
        sproink(bad)


def test_sproinks_are_obstructions_for_arc_graphs():
    # any sproink of the k-arc path fails to map into delta(T_k), because
    # the path fails to map into T_k
    for k in (2, 3, 4):
        target = arc_graph(transitive_tournament(k))
        for spec in minimal_path_sproink_specs(max(k, 3), 9):
            s = oriented_path(spec)
            if k >= 3:
                assert engine.hom_exists(s, target) is None


def test_verify_duality_pass_and_fail():
    rep = verify_duality([directed_path(3)], transitive_tournament(3), 3)
    assert rep.ok and rep.checked == 530
    rep = verify_duality([directed_path(2)], transitive_tournament(3), 3)
    assert not rep.ok
    assert rep.direction == "false-obstruction"
    # P_2 maps into T_3 itself, so the very first miss is a graph that
    # maps to H while "obstructed"
    assert engine.hom_exists(rep.counterexample, transitive_tournament(3))


def test_verify_duality_missing_obstruction():
    # an empty family can never explain non-colourability
    rep = verify_duality([], transitive_tournament(2), 2)
    assert not rep.ok and rep.direction == "missing-obstruction"


def test_verify_duality_reports_a_short_family():
    # Cut at length 3, the sproinks of delta(T4) are the 3-arc path alone,
    # which misses T3: T3 has no homomorphism to delta(T4), and nothing in
    # the family maps into it.  Cut at length 6 the family is complete on
    # three vertices.
    k = 4
    target = arc_graph(transitive_tournament(k))
    rep = verify_duality(minimal_path_sproinks(k, 3), target, 3)
    assert rep == DualityReport(
        False, 57, transitive_tournament(3), "missing-obstruction"
    )
    rep = verify_duality(minimal_path_sproinks(k, 6), target, 3)
    assert rep == DualityReport(True, 530)


def _sproink_job(k, length):
    return DualityJob(
        tuple(minimal_path_sproinks(k, length)), arc_graph(transitive_tournament(k))
    )


def test_verify_dualities_equals_one_call_per_job():
    jobs = [
        DualityJob((directed_path(3),), transitive_tournament(3)),
        DualityJob((directed_path(2),), transitive_tournament(3)),
        DualityJob((), transitive_tournament(2)),
        _sproink_job(4, 3),
        _sproink_job(4, 6),
        # k = 3 with the empty family and with the 2-arc path
        _sproink_job(3, 1),
        _sproink_job(3, 2),
    ]
    batch = verify_dualities(jobs, 3)
    singles = [verify_duality(j.family, j.h, 3) for j in jobs]
    assert batch == singles
    assert [(r.ok, r.direction) for r in batch] == [
        (True, None),
        (False, "false-obstruction"),
        (False, "missing-obstruction"),
        (False, "missing-obstruction"),
        (True, None),
        (False, "missing-obstruction"),
        (True, None),
    ]
    assert [r.checked for r in batch] == [530, 31, 2, 57, 530, 2, 530]
    assert batch[1].counterexample == Digraph(3, [(0, 2), (1, 0)])
    assert batch[2].counterexample == Digraph(1, [(0, 0)])
    assert verify_dualities([], 3) == []


def test_verify_dualities_stops_when_every_job_is_closed(monkeypatch):
    yielded = []

    def counting(*args, **kwargs):
        for g in enumerate_graphs(*args, **kwargs):
            yielded.append(g)
            yield g

    monkeypatch.setattr(duality, "enumerate_graphs", counting)
    jobs = [
        DualityJob((directed_path(2),), transitive_tournament(3)),
        DualityJob((), transitive_tournament(2)),
    ]
    reports = verify_dualities(jobs, 3)
    assert [r.checked for r in reports] == [31, 2]
    # only the first members of the loop-free classes are pulled, and
    # none after the last job closes at the 9th of them, the 12th
    # loop-free digraph and labelled graph 31
    assert len(yielded) == 9
    assert yielded[-1] == reports[0].counterexample
    assert stream_index(yielded[-1], directed=True, loops=False) == 11
    loop_free = dict(directed=True, loops=False, all_orders=True)
    leaders = enumerate_graphs(3, up_to_iso=True, **loop_free)
    assert yielded == list(islice(leaders, 9))


class _LabelledJob:
    """The per-graph step of a job in the labelled reference below."""

    def __init__(self, job):
        self.h = job.h
        self.family = list(job.family)

    def failure(self, g):
        to_h = engine.hom_exists(g, self.h) is not None
        hit = any(engine.hom_exists(f, g) is not None for f in self.family)
        if to_h and hit:
            return "false-obstruction"
        if not to_h and not hit:
            return "missing-obstruction"
        return None


def _labelled_reference(jobs, nmax):
    """verify_dualities over the labelled universe with no reduction:
    every open job runs its full step on every graph, looped or not."""
    states = [_LabelledJob(job) for job in jobs]
    reports = [None] * len(states)
    open_jobs = list(range(len(states)))
    checked = 0
    for g in enumerate_graphs(nmax, directed=True, loops=True, all_orders=True):
        checked += 1
        still_open = []
        for i in open_jobs:
            direction = states[i].failure(g)
            if direction is None:
                still_open.append(i)
            else:
                reports[i] = DualityReport(False, checked, g, direction)
        open_jobs = still_open
        if not open_jobs:
            break
    for i in open_jobs:
        reports[i] = DualityReport(True, checked)
    return reports


def _random_digraph(rng, loops):
    n = rng.randint(1, 3)
    return Digraph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(n)
            if (u != v or loops) and rng.random() < 0.4
        ],
    )


def _random_jobs(rng):
    """One random job, or two with the same target where the second
    family extends the first."""
    family = tuple(
        _random_digraph(rng, rng.random() < 0.3) for _ in range(rng.randint(0, 2))
    )
    h = _random_digraph(rng, rng.random() < 0.3)
    if rng.random() < 0.5:
        return [DualityJob(family, h)]
    wider = family + tuple(
        _random_digraph(rng, rng.random() < 0.3) for _ in range(rng.randint(1, 2))
    )
    return [DualityJob(family, h), DualityJob(wider, h)]


def test_verify_dualities_matches_labelled_reference():
    loop = Digraph(1, [(0, 0)])
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    p2 = directed_path(2)
    t2 = transitive_tournament(2)
    t3 = transitive_tournament(3)
    c3 = directed_cycle(3)
    jobs = [
        # passes every looped graph, so it comes before a job that
        # fails at one
        DualityJob((directed_path(3),), transitive_tournament(3)),
        # a looped h: false-obstruction at the first looped graph
        DualityJob((directed_path(1),), Digraph(2, [(0, 1), (1, 1)])),
        # an empty family misses the first looped graph
        DualityJob((), t2),
        # misses a loop-free graph, the 2-arc path, after a looped graph
        # has passed
        DualityJob((two_cycle,), t2),
        DualityJob((two_cycle, p2), t2),
        # a family member with a loop
        DualityJob((loop, p2), t2),
        DualityJob((loop,), transitive_tournament(3)),
        _sproink_job(4, 3),
        _sproink_job(4, 6),
        _sproink_job(3, 1),
        _sproink_job(3, 2),
        # Fails at the first member of a loop-free class in the stream,
        # which has an isomorphic copy of smaller rows.
        DualityJob((p2,), t3),
        # narrower and wider families against one target
        DualityJob((two_cycle,), t3),
        DualityJob((two_cycle, c3, p2), t3),
        DualityJob((c3,), t3),
        DualityJob((loop,), t2),
        DualityJob((loop, two_cycle), t2),
    ]
    rng = random.Random(20130409)
    jobs += [job for _ in range(40) for job in _random_jobs(rng)]
    batch = verify_dualities(jobs, 3)
    assert batch == _labelled_reference(jobs, 3)
    assert [(r.ok, r.checked, r.direction) for r in batch[:17]] == [
        (True, 530, None),
        (False, 2, "false-obstruction"),
        (False, 2, "missing-obstruction"),
        (False, 31, "missing-obstruction"),
        (True, 530, None),
        (True, 530, None),
        (False, 9, "missing-obstruction"),
        (False, 57, "missing-obstruction"),
        (True, 530, None),
        (False, 2, "missing-obstruction"),
        (True, 530, None),
        (False, 31, "false-obstruction"),
        (False, 117, "missing-obstruction"),
        (False, 31, "false-obstruction"),
        (False, 9, "missing-obstruction"),
        (False, 9, "missing-obstruction"),
        (False, 31, "missing-obstruction"),
    ]
    assert [r.counterexample.out_masks for r in batch[11:17]] == [
        (4, 1, 0),
        (2, 4, 1),
        (4, 1, 0),
        (2, 1),
        (2, 1),
        (4, 1, 0),
    ]
    order_3 = list(enumerate_graphs(3, directed=True, loops=True))
    assert any(
        engine.isomorphic(g, batch[11].counterexample)
        and g.out_masks < batch[11].counterexample.out_masks
        for g in order_3
    )
    looped_counterexamples = [
        r for r in batch if r.counterexample is not None and r.counterexample.loop_mask
    ]
    assert len(looped_counterexamples) >= 3


def test_verify_dualities_matches_labelled_reference_on_the_suite(monkeypatch):
    # the five jobs of the duality suite, over the 66 066 digraphs on at
    # most four vertices
    batches = []

    def recording(jobs, nmax):
        batches.append((list(jobs), nmax))
        return verify_dualities(jobs, nmax)

    monkeypatch.setattr(suites, "verify_dualities", recording)
    assert suites.run_suite("duality").ok
    [(jobs, nmax)] = batches
    assert (len(jobs), nmax) == (5, 4)
    assert verify_dualities(jobs, nmax) == _labelled_reference(jobs, nmax)


def test_verify_dualities_decides_each_class_once(monkeypatch):
    # one failure call per class and job: the loop-free classes, as
    # enumerate_graphs yields their first members, and the looped class
    calls = {}
    failure = duality._OpenJob.failure

    def counting(self, g):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return failure(self, g)

    yielded = []

    def counting_enumerate(*args, **kwargs):
        for g in enumerate_graphs(*args, **kwargs):
            yielded.append(g)
            yield g

    monkeypatch.setattr(duality._OpenJob, "failure", counting)
    monkeypatch.setattr(duality, "enumerate_graphs", counting_enumerate)
    jobs = [
        DualityJob((directed_path(3),), transitive_tournament(3)),
        _sproink_job(4, 6),
    ]
    assert [r.ok for r in verify_dualities(jobs, 3)] == [True, True]
    assert len(yielded) == 20
    assert list(calls.values()) == [21, 21]


def test_duality_obstructions_leave_the_kernel(monkeypatch):
    # Every member of the suite's families is an oriented path, so each
    # F -> G is a forest walk; the kernel sees only the G -> H side.
    # The pass builds only the 238 first members of the loop-free classes
    # at nmax 4.  The seven distinct members are P2, P3, P4 and the four
    # longer sproinks of delta(T4); 42 walks order them, with P4 on top,
    # and then a graph asks P4 first, whose yes settles every member.
    # Walking each member once per graph took 818 walks (638 hits).
    counts = dict.fromkeys(("solve", "decisions", "walks", "hits", "yielded"), 0)
    solve = engine._kernel.solve
    walk = engine._forest_walk

    def counting_solve(*args):
        result = solve(*args)
        counts["solve"] += 1
        counts["decisions"] += result[2]
        return result

    def counting_walk(*args):
        result = walk(*args)
        counts["walks"] += 1
        counts["hits"] += result is not None
        return result

    def counting_enumerate(*args, **kwargs):
        for g in enumerate_graphs(*args, **kwargs):
            counts["yielded"] += 1
            yield g

    monkeypatch.setattr(engine._kernel, "solve", counting_solve)
    monkeypatch.setattr(engine, "_forest_walk", counting_walk)
    monkeypatch.setattr(duality, "enumerate_graphs", counting_enumerate)
    rep = suites.run_suite("duality", nmax=4)
    assert rep.verdict_line() == "VERDICT duality PASS checked=330331"
    # 20 calls order the five targets; then a graph takes 1.4 calls on
    # average for G -> H, where asking each job's target took 5 (1 190)
    assert counts == dict(solve=353, decisions=186, walks=445, hits=244, yielded=238)

    # a one-job pass has one target and orders no member, so it asks the
    # kernel once per loop-free class, as before the target order was
    # used, and walks its family in order up to the first hit, as before
    # the member order was used
    counts.update(solve=0, decisions=0, walks=0, hits=0)
    assert verify_duality([directed_path(4)], transitive_tournament(4), 4).ok
    assert counts == dict(solve=238, decisions=88, walks=239, hits=199, yielded=476)
    counts.update(solve=0, decisions=0, walks=0, hits=0)
    assert verify_duality(
        minimal_path_sproinks(4, 12), arc_graph(transitive_tournament(4)), 4
    ).ok
    assert counts == dict(solve=238, decisions=34, walks=340, hits=216, yielded=714)


def _maps_to_target(g, h):
    return engine.hom_exists(g, h) is not None


def _member_maps_into(g, f):
    return engine.hom_exists(f, g) is not None


def _assert_memo_reads_hom_exists(memo, graphs, truth=_maps_to_target, orders=()):
    """Every answer of the memo (a _Targets or a _Members) is
    engine.hom_exists', truth(g, item), whatever order the items are
    asked about in and read in.  A read of several items is whether any
    of them holds."""
    n = len(memo.items)
    wants = [[truth(g, x) for x in memo.items] for g in graphs]
    full = (1 << n) - 1
    masks = (0, full, 0b0101010 & full, 0b1010101 & full)
    for order in (memo.order, memo.order[::-1], *orders):
        memo.order = order
        for g, want in zip(graphs, wants):
            for asked in (range(n), range(n - 1, -1, -1)):
                # a new object, so the memo starts afresh
                g = Digraph._from_masks(g.n, g.out_masks)
                assert [memo.read(g, 1 << i) for i in asked] == [want[i] for i in asked]
            for mask in masks:
                g = Digraph._from_masks(g.n, g.out_masks)
                assert memo.read(g, mask) == any(want[i] for i in range(n) if mask >> i & 1)


def test_target_order_memo_matches_the_kernel():
    leaders = list(
        enumerate_graphs(
            4, directed=True, loops=False, all_orders=True, up_to_iso=True
        )
    )
    graphs = leaders + [Digraph(1, [(0, 0)])]
    assert len(leaders) == 238

    # the suite's targets: T2 ~ delta(T3) < delta(T4) < T3 < T4
    t2, t3, t4 = (transitive_tournament(k) for k in (2, 3, 4))
    delta_t3 = arc_graph(t3)
    targets = duality._Targets([t2, t3, t4, delta_t3, arc_graph(t4)])
    assert targets.above == [0b11111, 0b00110, 0b00100, 0b11111, 0b10110]
    assert targets.below == [0b01001, 0b11011, 0b11111, 0b01001, 0b11001]
    assert targets.order == [2, 1, 4, 0, 3]
    _assert_memo_reads_hom_exists(targets, graphs)

    # equal targets are interned; T2 and delta(T3) are equivalent but not
    # equal; the directed 3-cycle and T3 are incomparable
    c3 = directed_cycle(3)
    t3_again = Digraph(3, [(1, 2), (0, 2), (0, 1)])
    assert t3_again == t3 and t3_again is not t3 and delta_t3 != t2
    jobs = [
        DualityJob((directed_path(3),), t3),
        DualityJob((directed_path(2),), c3),
        DualityJob((directed_path(2),), t3_again),
        DualityJob((directed_path(2),), t2),
        DualityJob(tuple(minimal_path_sproinks(3, 12)), delta_t3),
        DualityJob((Digraph(1, [(0, 0)]), Digraph(2, [(0, 1), (1, 0)])), c3),
    ]
    targets = duality._Targets([job.h for job in jobs])
    assert targets.items == [t3, c3, t2, delta_t3]
    assert targets.above == [0b0001, 0b0010, 0b1111, 0b1111]
    assert targets.below == [0b1101, 0b1110, 0b1100, 0b1100]
    assert targets.order == [0, 1, 2, 3]
    _assert_memo_reads_hom_exists(targets, graphs)
    # the pass keeps reading the order after jobs close
    reports = verify_dualities(jobs, 3)
    assert reports == _labelled_reference(jobs, 3)
    assert [r.ok for r in reports] == [True, False, False, True, True, False]


def test_member_order_memo_matches_the_kernel():
    leaders = list(
        enumerate_graphs(
            4, directed=True, loops=False, all_orders=True, up_to_iso=True
        )
    )
    graphs = leaders + [Digraph(1, [(0, 0)])]

    # the suite's members: P2 < S11 < S9 < S7 < S5 < P3 < P4, where Sk is
    # the sproink of delta(T4) on k vertices
    suite_members = [directed_path(k) for k in (2, 3, 4)] + minimal_path_sproinks(4, 12)
    members = duality._Members(suite_members)
    assert [f.n for f in members.items] == [3, 4, 5, 6, 8, 10, 12]
    assert members.below == [
        0b0000001, 0b1111011, 0b1111111, 0b1111001, 0b1110001, 0b1100001, 0b1000001
    ]
    assert members.above == [
        0b1111111, 0b0000110, 0b0000100, 0b0001110, 0b0011110, 0b0111110, 0b1111110
    ]
    assert members.order == [2, 1, 3, 4, 5, 6, 0]
    rng = random.Random(31)
    shuffled = [rng.sample(range(7), 7) for _ in range(3)]
    _assert_memo_reads_hom_exists(members, graphs, _member_maps_into, shuffled)

    # members that are not forests go to the kernel: the loop, the
    # 2-cycle and the directed 3-cycle; the loop maps into no other
    # member, and every member maps into it
    loop = Digraph(1, [(0, 0)])
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    c3 = directed_cycle(3)
    mixed = [directed_path(2), loop, two_cycle, c3, directed_path(3), oriented_path("101")]
    members = duality._Members(mixed + [directed_path(2), Digraph(1, [(0, 0)])])
    assert members.items == mixed
    assert [members.plans[i] is None for i in range(6)] == [False, True, True, True, False, False]
    assert members.above[1] == 0b000010
    assert members.below[1] == 0b111111
    shuffled = [rng.sample(range(6), 6) for _ in range(3)]
    _assert_memo_reads_hom_exists(members, graphs, _member_maps_into, shuffled)

    # a one-job pass orders nothing: each member is related to itself
    # alone and asked in first-seen order
    members = duality._Members(mixed, ordered=False)
    assert members.above == members.below == [1 << i for i in range(6)]
    assert members.order == list(range(6))
    _assert_memo_reads_hom_exists(members, graphs, _member_maps_into)

    # passes over mixed families against the labelled reference
    t2, t3 = transitive_tournament(2), transitive_tournament(3)
    jobs = [
        DualityJob((directed_path(2),), t2),
        DualityJob((loop, two_cycle, directed_path(3)), t3),
        DualityJob((c3, directed_path(2)), t3),
        DualityJob((oriented_path("101"), directed_path(2)), t2),
        DualityJob((two_cycle, directed_path(2)), t2),
        DualityJob((loop, c3), Digraph(2, [(0, 1), (1, 1)])),
        _sproink_job(4, 12),
        DualityJob((directed_path(3),), t3),
    ]
    reports = verify_dualities(jobs, 3)
    assert reports == _labelled_reference(jobs, 3)
    assert [r.ok for r in reports] == [True, True, False, False, True, False, True, True]


def test_positions_follow_the_labelled_universe():
    # what a report's `checked` is: the counterexample's 1-based number in
    # the labelled stream of digraphs with loops
    labelled = enumerate_graphs(3, directed=True, loops=True, all_orders=True)
    for position, g in enumerate(labelled, 1):
        assert duality._position(g) == position


def test_duality_suite_enumerates_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_graphs(*args, **kwargs)

    monkeypatch.setattr(duality, "enumerate_graphs", counting)
    assert main(["verify", "--suite", "duality", "--nmax", "2"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "VERDICT duality PASS checked=91"


def test_duality_pairing_closure():
    # if (F,H) and (F',H') are dualities then (F u F', H x H') is one
    f1, h1 = [directed_path(2)], transitive_tournament(2)
    f2, h2 = [directed_path(3)], transitive_tournament(3)
    assert verify_duality(f1, h1, 3).ok
    assert verify_duality(f2, h2, 3).ok
    rep = verify_duality(f1 + f2, tensor_product(h1, h2), 3)
    assert rep.ok
