"""Tree-duality machinery: shift graphs, the colour-set lift along the arc
graph, sproink generation, minimal sproinks for directed paths, and
exhaustive duality verification over small digraph universes.

`verify_dualities` checks a batch of duality jobs, each a family and a
target, in one streaming pass over the digraph universe;
`verify_duality` is the one-job case.  Each job decides a class of
digraphs once, on its first member: the classes are the isomorphism
classes of loop-free digraphs, and the looped digraphs.  The pass builds
only the first member of each loop-free class (`enumerate_graphs` with
up_to_iso=True) and the one-vertex loop; `checked` still counts the
whole labelled universe.  F -> G takes the forest walk
`engine._forest_walk` when F is an oriented forest, as in every family
of the suite, and `engine.hom_exists` otherwise.  Both sides are read
off a homomorphism order that the pass decides once: that of the jobs'
distinct targets, where a yes for G -> T settles every target above T
and a no every target below it, and, when the pass has more than one
job, that of their distinct family members, where a yes for F -> G
settles every member below F and a no every member above it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, combinations, permutations

from . import engine, limits
from .engine import HomWitness
from .errors import ParameterError
from .functors import _glue
from .graphs import (
    Digraph,
    by_rows,
    complete_graph,
    enumerate_graphs,
    is_oriented_tree,
    oriented_path,
    stream_index,
    stream_size,
    symmetrization,
)
from .adjoints import arc_graph


def shift_graph(n, k, directed=True):
    """Shift graph on increasing k-tuples from an n-element chain:
    (u_1..u_k) -> (v_1..v_k) iff u_{i+1} = v_i for all i, so the
    successors of t are t[1:] + (x,) for x > t[-1].  The undirected
    variant is the symmetrization."""
    if not 2 <= k <= n:
        raise ParameterError("shift graph needs 2 <= k <= n")
    limits.check_size(math.comb(n, k) + math.comb(n, k + 1), "shift graph")
    tuples = list(combinations(range(n), k))

    def row(t):
        return [t[1:] + (x,) for x in range(t[-1] + 1, n)]

    d = Digraph._from_masks(len(tuples), by_rows(tuples, row, "shift graph"))
    return d if directed else symmetrization(d)


def delta_colouring_lift(h, colouring):
    """Convert a proper k-colouring of the arc graph of h into a proper
    2^k-colouring of h: each vertex gets the set of colours on its
    outgoing arcs, encoded as an integer below 2^k.

    Properness is in the symmetrization sense on both sides.  The input
    witness must verify as a homomorphism sym(arc_graph(h)) -> K_k; the
    returned witness verifies as sym(h) -> K_{2^k}.
    """
    delta = arc_graph(h)
    k = colouring.target_order
    if not engine.verify_witness(symmetrization(delta), complete_graph(k), colouring.mapping):
        raise ParameterError(
            "input is not a proper colouring of the arc graph"
        )
    arcs_h = list(h.arc_list)
    sets = [0] * h.n
    for i, (u, _v) in enumerate(arcs_h):
        sets[u] |= 1 << colouring.mapping[i]
    witness = HomWitness(h.n, 1 << k, tuple(sets))
    if not engine.verify_witness(
        symmetrization(h), complete_graph(1 << k), witness.mapping
    ):
        raise RuntimeError("colour-set lift produced an improper colouring")
    return witness


# ---------------------------------------------------------------------------
# sproinks
# ---------------------------------------------------------------------------


class SproinkRecipe(
    namedtuple(
        "SproinkRecipe",
        (
            "base",  # Digraph
            "pieces",  # per base vertex: (tree: Digraph, levels: tuple of 0/1)
            "attachments",  # per base vertex: dict arc_index -> piece vertex
        ),
    )
):
    """Substitution data over a base tree: for each vertex u of the base,
    a level tree piece (every arc goes level 0 -> level 1) with its level
    map, and for each incident arc an attachment vertex whose level
    matches the arc direction (1 when the arc leaves u, 0 when it
    enters)."""

    __slots__ = ()


def validate_recipe(recipe):
    bad = []
    t = recipe.base
    if not is_oriented_tree(t):
        bad.append("base is not an oriented tree")
    if len(recipe.pieces) != t.n or len(recipe.attachments) != t.n:
        bad.append("pieces/attachments do not match the base order")
        return bad
    for u, (piece, levels) in enumerate(recipe.pieces):
        if not is_oriented_tree(piece):
            bad.append(f"piece {u} is not an oriented tree")
        if len(levels) != piece.n:
            bad.append(f"piece {u} level map has wrong length")
            continue
        if any(level not in (0, 1) for level in levels):
            bad.append(f"piece {u} level map is not 0/1")
        for a, b in piece.arcs():
            if not (levels[a] == 0 and levels[b] == 1):
                bad.append(f"piece {u} arc ({a},{b}) violates the level map")
    arcs = list(t.arc_list)
    for u in range(t.n):
        piece, levels = recipe.pieces[u]
        for ei, vertex in recipe.attachments[u].items():
            if not 0 <= ei < len(arcs):
                bad.append(f"attachment at vertex {u} names a bad arc {ei}")
                continue
            a, b = arcs[ei]
            if u not in (a, b):
                bad.append(f"arc {ei} is not incident with vertex {u}")
                continue
            if not 0 <= vertex < piece.n:
                bad.append(f"attachment vertex {vertex} outside piece {u}")
                continue
            want = 1 if a == u else 0
            if levels[vertex] != want:
                bad.append(
                    f"attachment level at vertex {u}, arc {ei} should be {want}"
                )
        for ei, (a, b) in enumerate(arcs):
            if u in (a, b) and ei not in recipe.attachments[u]:
                bad.append(f"vertex {u} misses an attachment for arc {ei}")
    return bad


def sproink(recipe):
    """Glue the pieces along the base tree (functors._glue): for each
    base arc e = (u, u'), identify the attachment vertex of u for e with
    that of u'.  The result must be an oriented tree."""
    bad = validate_recipe(recipe)
    if bad:
        raise ParameterError("invalid sproink recipe: " + "; ".join(bad))
    pieces = [piece for piece, _levels in recipe.pieces]
    offsets = list(accumulate((piece.n for piece in pieces), initial=0))
    pairs = [
        (offsets[u] + recipe.attachments[u][ei], offsets[v] + recipe.attachments[v][ei])
        for ei, (u, v) in enumerate(recipe.base.arc_list)
    ]
    out = _glue(pieces, pairs)[0]
    if not is_oriented_tree(out):
        raise ParameterError("recipe does not produce a tree")
    return out


def _compositions(total, parts):
    """The tuples of `parts` natural numbers with sum `total`, in
    descending lexicographic order: each step moves one unit from the last
    non-zero part i before the final part, and the final part, to part i + 1."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    a = [total] + [0] * (parts - 1)
    while True:
        yield tuple(a)
        i = parts - 2
        while i >= 0 and not a[i]:
            i -= 1
        if i < 0:
            return
        a[i] -= 1
        a[i + 1 :] = [a[-1] + 1] + [0] * (parts - i - 2)


def minimal_path_sproink_specs(k, max_len):
    """Orientation strings of the minimal sproinks of the k-arc directed
    path, k >= 3: an up arc, then k-3 groups "up (down up)*", then an up
    arc; all strings of total length <= max_len, ordered by length then
    lexicographically.  A string with a_i repeats in group i has length
    k - 1 + 2 sum(a_i), and within one length a larger a_i puts a 0 where
    a smaller one has a 1, so the order is by sum, then descending."""
    if k < 3:
        raise ParameterError("minimal path sproinks need k >= 3")
    budget = (max_len - (k - 1)) // 2
    return [
        "1" + "".join("1" + "01" * a for a in reps) + "1"
        for total in range(budget + 1)
        for reps in _compositions(total, k - 3)
    ]


def minimal_path_sproinks(k, max_len):
    """The minimal sproinks as oriented-path digraphs."""
    return [oriented_path(s) for s in minimal_path_sproink_specs(k, max_len)]


# ---------------------------------------------------------------------------
# duality verification
# ---------------------------------------------------------------------------


class DualityReport(
    namedtuple(
        "DualityReport",
        (
            "ok",
            "checked",
            "counterexample",  # Digraph or None
            "direction",  # "missing-obstruction", "false-obstruction" or None
        ),
        defaults=(None, None),
    )
):
    """The outcome of one duality check; true exactly when it passed."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


class DualityJob(namedtuple("DualityJob", "family h")):
    """One duality to check: the obstruction family and the target h."""

    __slots__ = ()


def _walk_plan(f):
    """The `engine._forest_plan` of f if f is an oriented forest, the
    case `engine._forest_walk` decides, else None."""
    plan = None if f.loop_mask else engine._forest_plan(f, 0)
    if plan is not None and any(kind == 3 for _, _, kind in plan):
        return None
    return plan


class _Order:
    """The distinct digraphs of one side of a pass, interned by digraph
    equality, with their homomorphism order and the answers for the last
    graph g asked about.

    above[i] and below[i] are bit masks of the items that items[i] maps
    into and of those that map into it, itself included.  The order is
    decided once, on every ordered pair of distinct items (`_maps`),
    unless `ordered` is false; then each item is related to itself
    alone.  A read of some items asks about the unknown items in `order`
    until one of them is known to hold or all are known not to: first
    the items that most items map into, ties in first-seen order.  A
    subclass asks one question (`_ask`) and says which items its answer
    settles.  Only facts between items of one side are used: an answer
    about F -> g never settles g -> h, nor the reverse."""

    def __init__(self, items, ordered=True):
        self.items = items = list(dict.fromkeys(items))
        self.index = {x: i for i, x in enumerate(items)}
        self.above = [1 << i for i in range(len(items))]
        self.below = list(self.above)
        if ordered:
            for i, j in permutations(range(len(items)), 2):
                if self._maps(i, items[j]):
                    self.above[i] |= 1 << j
                    self.below[j] |= 1 << i
        self.order = sorted(
            range(len(items)), key=lambda i: -self.below[i].bit_count()
        )
        self.g = None
        self.yes = self.no = 0

    def read(self, g, mask):
        """Whether the answer for g is yes for some item in the bit mask
        `mask`."""
        if self.g is not g:
            self.g = g
            self.yes = self.no = 0
        for j in self.order:
            if self.yes & mask:
                return True
            if not mask & ~self.no:
                return False
            if not (self.yes | self.no) >> j & 1:
                self._ask(g, j)
        return bool(self.yes & mask)


class _Targets(_Order):
    """The jobs' targets h, read as g -> h.  g -> t gives g -> t' for
    every t' above t (t -> t'), and g -/-> t gives g -/-> t'' for every
    t'' below t (t'' -> t).  The kernel decides the order and each
    g -> t, so a no settles many targets at once."""

    def _maps(self, i, d):
        return engine.hom_exists(self.items[i], d) is not None

    def _ask(self, g, j):
        if engine.hom_exists(g, self.items[j]) is not None:
            self.yes |= self.above[j]
        else:
            self.no |= self.below[j]


class _Members(_Order):
    """The jobs' family members F, read as F -> g.  F -> g gives F' -> g
    for every F' below F (F' -> F), and F -/-> g gives F'' -/-> g for
    every F'' above F (F -> F'').  F -> d is `engine._forest_walk` when F
    is an oriented forest, and `engine.hom_exists` otherwise; both hand
    out only verified maps.  A yes for the top member settles every
    member below it."""

    def __init__(self, fs, ordered=True):
        fs = list(dict.fromkeys(fs))
        self.plans = [_walk_plan(f) for f in fs]
        super().__init__(fs, ordered)

    def _maps(self, i, d):
        f = self.items[i]
        plan = self.plans[i]
        if plan is None:
            return engine.hom_exists(f, d) is not None
        return engine._forest_walk(f, plan, d) is not None

    def _ask(self, g, j):
        if self._maps(j, g):
            self.yes |= self.below[j]
        else:
            self.no |= self.above[j]


class _OpenJob:
    """The running state of one job during the pass: the bit of its
    target in the pass's _Targets and the mask of its family members in
    the pass's _Members, which intern both across the jobs."""

    def __init__(self, job, members, targets):
        self.members = members
        self.targets = targets
        self.h = 1 << targets.index[job.h]
        self.family = 0
        for f in job.family:
            self.family |= 1 << members.index[f]

    def failure(self, g):
        """The direction in which g refutes the duality, or None."""
        to_h = self.targets.read(g, self.h)
        hit = self.members.read(g, self.family)
        if to_h and hit:
            return "false-obstruction"
        if not to_h and not hit:
            return "missing-obstruction"
        return None


def _position(g):
    """g's 1-based number in the labelled stream of digraphs with loops on
    1..n vertices (graphs.stream_index)."""
    return stream_index(g, directed=True, loops=True) + 1


def verify_dualities(jobs, nmax):
    """Check every DualityJob over one pass of the digraphs on up to nmax
    vertices (loops allowed), and return one DualityReport per job, in
    job order.

    Each graph is checked against every job still open and then dropped:
    the universe is never held.  A job closes at its first
    counterexample, with the report it gives when checked alone, and the
    pass stops once every job is closed.

    A job decides each class once, on its first labelled member, and the
    pass builds only those members.  The classes are the isomorphism
    classes of loop-free digraphs, whose first members enumerate_graphs
    yields with up_to_iso=True, and the looped digraphs, all
    homomorphically equivalent to the one-vertex loop, labelled graph 2,
    which is checked right after the one-vertex digraph.  This is exact:
    g -> h and F -> g are invariant under isomorphism of g, and for
    looped g under homomorphic equivalence.  So the first labelled
    counterexample is the first member of its class; a report's
    `checked` is its labelled position (_position), and a report that
    passes counts every labelled graph.

    g -> h is read from the jobs' targets in their homomorphism order
    (_Targets), decided once per pass: with the suite's five targets a
    graph takes 1.4 kernel calls on average, not 5.  F -> g is read the
    same way from the jobs' distinct family members (_Members), top
    first: with the suite's seven members a graph takes 1.7 walks on
    average, not 3.4.  A one-job pass orders no member, since its family
    is read by one `any` and an order would cost M(M - 1) walks for M
    members; it asks each member once per graph, in family order, up to
    the first hit.  Neither side is ever inferred from the other, which
    is the duality under test.  nmax below 1 is a ParameterError."""
    if nmax < 1:
        raise ParameterError(f"nmax must be at least 1, got {nmax}")
    members = _Members([f for job in jobs for f in job.family], len(jobs) > 1)
    targets = _Targets([job.h for job in jobs])
    states = [_OpenJob(job, members, targets) for job in jobs]
    reports = [None] * len(states)
    open_jobs = list(range(len(states)))

    def step(g):
        for i in list(open_jobs):
            direction = states[i].failure(g)
            if direction is not None:
                reports[i] = DualityReport(False, _position(g), g, direction)
                open_jobs.remove(i)

    if open_jobs:
        for g in enumerate_graphs(
            nmax, directed=True, loops=False, all_orders=True, up_to_iso=True
        ):
            step(g)
            if g.n == 1:
                # The looped class, on the one-vertex loop.
                step(Digraph(1, [(0, 0)]))
            if not open_jobs:
                break
    checked = stream_size(nmax, directed=True, loops=True)
    for i in open_jobs:
        reports[i] = DualityReport(True, checked)
    return reports


def verify_duality(family, h, nmax):
    """Check over every digraph G on up to nmax vertices (loops allowed)
    that G admits no homomorphism to h exactly when some member of the
    family maps into G.  This is verify_dualities with a single job."""
    return verify_dualities([DualityJob(tuple(family), h)], nmax)[0]
