"""Tree-duality machinery: shift graphs, the colour-set lift along the arc
graph, sproink generation, minimal sproinks for directed paths, and
exhaustive duality verification over small digraph universes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import engine, limits
from .engine import HomWitness
from .errors import ParameterError
from .functors import _find, _union
from .graphs import (
    Digraph,
    complete_graph,
    enumerate_graphs,
    is_oriented_tree,
    oriented_path,
    symmetrization,
)
from .adjoints import arc_graph


def shift_graph(n, k, directed=True):
    """Shift graph on increasing k-tuples from an n-element chain:
    (u_1..u_k) -> (v_1..v_k) iff u_{i+1} = v_i for all i.  The undirected
    variant is the symmetrization."""
    if not 2 <= k <= n:
        raise ParameterError("shift graph needs 2 <= k <= n")
    limits.check_size(_binom(n, k) + _binom(n, k + 1), "shift graph")
    tuples = list(combinations(range(n), k))
    index = {t: i for i, t in enumerate(tuples)}
    arcs = []
    for window in combinations(range(n), k + 1):
        arcs.append((index[window[:-1]], index[window[1:]]))
    d = Digraph(len(tuples), arcs)
    return d if directed else symmetrization(d)


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


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


@dataclass(frozen=True)
class SproinkRecipe:
    """Substitution data over a base tree: for each vertex u of the base,
    a level tree piece (every arc goes level 0 -> level 1) with its level
    map, and for each incident arc an attachment vertex whose level
    matches the arc direction (1 when the arc leaves u, 0 when it
    enters)."""

    base: Digraph
    pieces: tuple  # per base vertex: (tree: Digraph, levels: tuple of 0/1)
    attachments: tuple  # per base vertex: dict arc_index -> piece vertex


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
    """Glue the pieces along the base tree: for each base arc e = (u, u'),
    identify the attachment vertex of u for e with that of u'.  The result
    is asserted to be an oriented tree."""
    bad = validate_recipe(recipe)
    if bad:
        raise ParameterError("invalid sproink recipe: " + "; ".join(bad))
    t = recipe.base
    offsets = []
    total = 0
    for piece, _levels in recipe.pieces:
        offsets.append(total)
        total += piece.n
    parent = list(range(total))
    for ei, (u, v) in enumerate(t.arc_list):
        _union(
            parent,
            offsets[u] + recipe.attachments[u][ei],
            offsets[v] + recipe.attachments[v][ei],
        )
    arcs = set()
    for u, (piece, _levels) in enumerate(recipe.pieces):
        for a, b in piece.arcs():
            arcs.add((_find(parent, offsets[u] + a), _find(parent, offsets[u] + b)))
    roots = sorted({_find(parent, x) for x in range(total)})
    index = {r: i for i, r in enumerate(roots)}
    out = Digraph(len(roots), ((index[a], index[b]) for a, b in arcs))
    if not is_oriented_tree(out):
        raise ParameterError("recipe does not produce a tree")
    return out


def minimal_path_sproink_specs(k, max_len):
    """Orientation strings of the minimal sproinks of the k-arc directed
    path, k >= 3: an up arc, then k-3 groups "up (down up)*", then an up
    arc; all strings of total length <= max_len, ordered by length then
    lexicographically."""
    if k < 3:
        raise ParameterError("minimal path sproinks need k >= 3")
    groups = k - 3
    base_len = k - 1
    if base_len > max_len:
        return []
    budget = (max_len - base_len) // 2
    specs = []
    for reps in product(range(budget + 1), repeat=groups):
        if sum(reps) > budget:
            continue
        s = "1" + "".join("1" + "01" * a for a in reps) + "1"
        specs.append(s)
    specs.sort(key=lambda s: (len(s), s))
    return specs


def minimal_path_sproinks(k, max_len):
    """The minimal sproinks as oriented-path digraphs."""
    return [oriented_path(s) for s in minimal_path_sproink_specs(k, max_len)]


# ---------------------------------------------------------------------------
# duality verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    checked: int
    counterexample: Digraph | None = None
    direction: str | None = None  # "missing-obstruction" | "false-obstruction"
    truncation: tuple = ()  # lengths tried, when a family factory was used

    def __bool__(self):
        return self.ok


def verify_duality(
    family,
    h,
    nmax,
    family_factory=None,
    initial_len=None,
    budget=None,
    universe=None,
):
    """Check over every digraph G on up to nmax vertices (loops allowed)
    that G admits no homomorphism to h exactly when some member of the
    family maps into G.

    When the family is a truncation of an infinite set, pass
    family_factory(length) and initial_len: if the forward direction
    fails (no obstruction maps although G -/-> h), the truncation length
    is doubled once before reporting a counterexample.
    """
    family = list(family)
    lengths = (initial_len,) if initial_len is not None else ()
    if universe is None:
        universe = enumerate_graphs(
            nmax, directed=True, loops=True, all_orders=True
        )
    checked = 0
    for g in universe:
        checked += 1
        to_h = engine.hom_exists(g, h, budget=budget) is not None
        hit = any(
            engine.hom_exists(f, g, budget=budget) is not None for f in family
        )
        if to_h and hit:
            return DualityReport(
                False, checked, g, "false-obstruction", lengths
            )
        if not to_h and not hit:
            if family_factory is not None and initial_len is not None:
                wider = list(family_factory(2 * initial_len))
                lengths = (initial_len, 2 * initial_len)
                if any(
                    engine.hom_exists(f, g, budget=budget) is not None
                    for f in wider
                ):
                    family = wider
                    continue
            return DualityReport(
                False, checked, g, "missing-obstruction", lengths
            )
    return DualityReport(True, checked, None, None, lengths)
