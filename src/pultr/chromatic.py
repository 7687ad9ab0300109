"""Chromatic and circular chromatic computation, orientation certificates
in the Gallai-Roy style, and the circular bound through power functors.

k-colourability is decided by a dedicated deterministic DSATUR search
(Brelaz, Comm. ACM 1979) with greedy-clique seeding and colours capped
at first-use order to break colour symmetry.  The uncoloured vertices
sit in one bitmask per saturation level, so a pick is a lowest-bit
lookup rather than a scan of all vertices.  Its contract is exactly
"least n such that a homomorphism to K_n exists", and the test suite
cross-checks it against raw hom searches on all small graphs.

A Gallai-Roy certificate is the pullback of an oriented target along a
homomorphism: T_k for a k-colouring, and an orientation of K_{n/m} taken
from the interleaved adjoint iota_m(T_n) for a circular colouring.  It
asks whether an oriented path maps into an orientation.  A path is a
tree, so `engine._forest_walk` answers with one semijoin pass and a walk
back, without search, and its map is re-checked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from . import engine, limits
from .adjoints import interleaved_adjoint, power_functor
from .bitset import iter_bits
from .engine import HomWitness
from .errors import BudgetExceededError, ParameterError
from .graphs import (
    Digraph,
    _check_fraction,
    circular_complete,
    complete_graph,
    directed_path,
    loop_free_graph,
    oriented_path,
    orientations,
    orient_edges,
    symmetrization,
    transitive_tournament,
)

ORIENTATION_SCAN_CAP = 18  # max edge count for exhaustive orientation scans


class ColouringCertificate(
    namedtuple(
        "ColouringCertificate",
        "target_name witness orientation family",
        defaults=("", None, None, ()),
    )
):
    """Either a verified homomorphism into a colouring target, or an
    orientation certified against a family of oriented paths (or both).

    `witness` is a HomWitness or None, `orientation` a spec string or
    None.  `family` records the exhaustive check outcome per family
    member as (orientation spec of the path, maps into the orientation?).
    """

    __slots__ = ()


def greedy_clique(g):
    """Deterministic greedy clique: grow from the max-degree vertex,
    always adding the highest-degree compatible vertex (ties by index)."""
    if g.n == 0:
        return []
    degs = [g.out_masks[u].bit_count() for u in range(g.n)]
    order = sorted(range(g.n), key=lambda u: (-degs[u], u))
    clique = []
    cmask = (1 << g.n) - 1
    for u in order:
        if cmask >> u & 1:
            clique.append(u)
            cmask &= g.out_masks[u]
    return clique


def k_colourable(g, k):
    """A proper k-colouring (list of colours) of g, which must pass
    `loop_free_graph`, or None.  Deterministic; counts decisions against the
    budget of the enclosing `limits.scope`.  A colouring is re-checked as a
    homomorphism into K_k by `engine.verify_witness` before it is
    returned.

    Each pick is the uncoloured vertex with the most colours around it,
    then the highest degree, then the lowest index.  levels[s] masks,
    over the ranks by (degree descending, index), the uncoloured
    vertices with s colours around them, so a pick is the lowest bit of
    the highest non-empty level and a decision costs O(k + deg).  Each
    vertex's neighbours are listed once, as a tuple that a decision walks
    past the coloured ones, so no decision scans a row bit by bit.  The
    search keeps its coloured vertices on an explicit stack, so its depth
    needs no change to Python's recursion limit."""
    g = loop_free_graph(g)
    if k < 0:
        raise ParameterError("colour count must be non-negative")
    n = g.n
    if n == 0:
        return []
    if k == 0:
        return None
    budget = limits.default_budget()
    adj = g.out_masks
    clique = greedy_clique(g)
    if len(clique) > k:
        return None
    nbrs = [tuple(iter_bits(row)) for row in adj]
    colours = [-1] * n
    nbr_used = [0] * n  # mask over colours present in the neighbourhood
    for c, v in enumerate(clique):
        colours[v] = c
        for w in nbrs[v]:
            nbr_used[w] |= 1 << c
    order = sorted(range(n), key=lambda u: (-adj[u].bit_count(), u))
    rank = [0] * n  # the bit of u's rank
    for r, u in enumerate(order):
        rank[u] = 1 << r
    levels = [0] * (k + 1)
    for u in range(n):
        if colours[u] < 0:
            levels[nbr_used[u].bit_count()] |= rank[u]
    decisions = 0
    # The vertex v being coloured lives in locals: its untried colours,
    # the colours in use before it, its colour bit and the neighbours
    # whose saturation that colour raised.  Each vertex coloured before it
    # waits on the stack as (v, avail, max_used, touched); its bit is
    # read back from colours[v], and its level from nbr_used[v], which
    # does not change while v is coloured.
    stack = []
    push, pop = stack.append, stack.pop
    max_used = len(clique) - 1
    left = n - len(clique)
    while left:
        s = k
        while not levels[s]:
            s -= 1
        low = levels[s] & -levels[s]
        v = order[low.bit_length() - 1]
        levels[s] ^= low
        avail = ~nbr_used[v] & ((1 << min(k, max_used + 2)) - 1)
        bit = 0
        touched = ()
        while True:
            for w in touched:
                sw = nbr_used[w].bit_count()
                nbr_used[w] ^= bit
                levels[sw] ^= rank[w]
                levels[sw - 1] |= rank[w]
            if not avail:
                colours[v] = -1
                levels[nbr_used[v].bit_count()] |= rank[v]
                if not stack:
                    return None
                v, avail, max_used, touched = pop()
                bit = 1 << colours[v]
                left += 1
                continue
            bit = avail & -avail
            avail ^= bit
            decisions += 1
            if decisions > budget:
                raise BudgetExceededError(decisions)
            colours[v] = c = bit.bit_length() - 1
            touched = []
            dead = False
            for w in nbrs[v]:
                if colours[w] < 0 and not nbr_used[w] & bit:
                    nbr_used[w] |= bit
                    touched.append(w)
                    sw = nbr_used[w].bit_count()
                    levels[sw - 1] ^= rank[w]
                    levels[sw] |= rank[w]
                    if sw == k:
                        dead = True
            if not dead:
                break
        push((v, avail, max_used, touched))
        left -= 1
        if c > max_used:
            max_used = c
    if not engine.verify_witness(g, complete_graph(k), colours):
        raise RuntimeError(
            f"colouring search produced an invalid {k}-colouring {colours} "
            f"for {g!r}"
        )
    return list(colours)


def _chromatic_colouring(g):
    """(chromatic number, a proper colouring with that many colours) of
    g, from one scan of k_colourable; g must pass `loop_free_graph`."""
    g = loop_free_graph(g)
    if g.arc_count == 0:
        return min(g.n, 1), [0] * g.n
    for k in range(2, g.n + 1):
        colours = k_colourable(g, k)
        if colours is not None:
            return k, colours
    raise RuntimeError("no colouring with one colour per vertex")  # unreachable


def chromatic_number(g):
    """Least n with a homomorphism to K_n; g must pass `loop_free_graph`."""
    return _chromatic_colouring(g)[0]


def _fraction_scan(g):
    """All reduced n/m with 2m <= n <= |V(G)|, ascending, one at a time: m/n
    walks the Farey sequence of order |V(G)| down from 1/2.  After a/b and
    c/d comes (jc - a)/(jd - b), with j = (|V(G)| + b) // d."""
    from fractions import Fraction

    top = g.n
    # 1/2 and the next term below it, (d // 2)/d for the largest odd d <= top
    a, b, d = 1, 2, top - 1 | 1
    c = d // 2
    while a and b <= top:
        yield Fraction(b, a), b, a
        j = (top + b) // d
        a, b, c, d = c, d, j * c - a, j * d - b


def circular_colouring(g):
    """(chi_c as a Fraction, witness into the minimising circular clique).

    Ordered Farey scan over reduced n/m with 2m <= n <= |V(G)|; since
    K_{a/b} -> K_{c/d} holds exactly when a/b <= c/d, the first success is
    the minimum.  An edgeless graph has circular chromatic number 1.  g
    must be non-empty and pass `loop_free_graph`."""
    from fractions import Fraction

    g = loop_free_graph(g)
    if g.n == 0:
        raise ParameterError("circular chromatic number needs a nonempty graph")
    if g.arc_count == 0:
        return Fraction(1), HomWitness(g.n, 1, (0,) * g.n)
    for frac, n, m in _fraction_scan(g):
        w = engine.hom_exists(g, circular_complete(n, m))
        if w is not None:
            return frac, w
    raise RuntimeError("scan exhausted without finding a colouring")  # unreachable


def circular_chromatic_number(g):
    return circular_colouring(g)[0]


# ---------------------------------------------------------------------------
# Gallai-Roy orientations
# ---------------------------------------------------------------------------


def _orientation_certificate(g, name, witness, target, paths):
    """The certificate that the pullback of the oriented graph `target`
    along `witness`, g -> sym(target), admits no path of `paths`, (label,
    oriented path) pairs: an edge u < v goes u -> v iff target has the
    arc w(u) -> w(v).  With no witness, None, once a scan of every
    orientation has found a path in each."""
    plans = [(label, p, engine._forest_plan(p, p.n - 1)) for label, p in paths]

    def hits(oriented):
        for _, p, plan in plans:
            yield engine._forest_walk(p, plan, oriented) is not None

    if witness is not None:
        w = witness.mapping
        spec = "".join(
            "1" if target.has_arc(w[u], w[v]) else "0" for u, v in g.edges()
        )
        family = tuple(zip([label for label, _ in paths], hits(orient_edges(g, spec))))
        if any(hit for _, hit in family):
            raise RuntimeError("certificate orientation admits a family path")
        return ColouringCertificate(name, witness, spec, family)
    if g.edge_count > ORIENTATION_SCAN_CAP:
        raise ParameterError(
            f"orientation scan over {g.edge_count} edges exceeds cap "
            f"{ORIENTATION_SCAN_CAP}"
        )
    if not all(any(hits(oriented)) for oriented in orientations(g)):
        raise RuntimeError("an orientation avoids the family, but no colouring exists")
    return None


def gallai_roy_orientation(g, k):
    """If g is k-colourable, the orientation along increasing colours (the
    pullback of T_k), certified to admit no homomorphism from the k-arc
    directed path; otherwise None, after confirming that every
    orientation admits one.  g must pass `loop_free_graph`."""
    g = loop_free_graph(g)
    if k < 1:
        raise ParameterError("needs k >= 1")
    colours = k_colourable(g, k)
    witness = None if colours is None else HomWitness(g.n, k, tuple(colours))
    path = [(f"dP{k}", directed_path(k))]
    return _orientation_certificate(g, f"K{k}", witness, transitive_tournament(k), path)


def reversal_path_specs(n, r):
    """Orientation strings of the n-arc path with at most r reversed arcs,
    ascending by reversal count then by reversed positions."""
    if r >= n:
        raise ParameterError("reversal count must be below the arc count")
    for i in range(r + 1):
        for positions in combinations(range(n), i):
            bits = ["1"] * n
            for p in positions:
                bits[p] = "0"
            yield "".join(bits)


def reversal_paths(n, r):
    """The oriented paths of reversal_path_specs."""
    return [oriented_path(spec) for spec in reversal_path_specs(n, r)]


@lru_cache(maxsize=None)
def _circular_orientation(n, m):
    """An orientation of K_{n/m}: the pullback of iota_m(T_n) along a fixed
    homomorphism K_{n/m} -> sym(iota_m(T_n)) (Goddyn, Tarsi & Zhang,
    J. Graph Theory 1998).  iota_m(T_n) has no loop and no antiparallel
    pair, so every edge takes one direction."""
    clique = circular_complete(n, m)
    iota = interleaved_adjoint(m, transitive_tournament(n))
    w = engine.hom_exists(clique, symmetrization(iota))
    if w is None:
        raise RuntimeError(f"no homomorphism K{n}/{m} -> B({n},{m})")
    arcs = []
    for a, b in clique.edges():
        if iota.has_arc(w(a), w(b)):
            arcs.append((a, b))
        elif iota.has_arc(w(b), w(a)):
            arcs.append((b, a))
        else:
            raise RuntimeError(f"K{n}/{m} -> B({n},{m}) is not a homomorphism")
    return Digraph(n, arcs)


def circular_gallai_roy_check(g, n, m):
    """Certificate that chi_c(g) <= n/m via an orientation (the pullback
    of _circular_orientation) admitting no homomorphism from any n-arc
    path with < m reversals, or None after confirming that every
    orientation admits one.  g must pass `loop_free_graph`, and the path
    family must pass the size guard before it is built."""
    g = loop_free_graph(g)
    _check_fraction(n, m)
    w = engine.hom_exists(g, circular_complete(n, m))
    target = None if w is None else _circular_orientation(n, m)
    count = sum(math.comb(n, i) for i in range(m))
    limits.check_size(count * (2 * n + 1), "reversal path family")
    paths = [(s, oriented_path(s)) for s in reversal_path_specs(n, m - 1)]
    return _orientation_certificate(g, f"K{n}/{m}", w, target, paths)


# ---------------------------------------------------------------------------
# circular chromatic number through power functors
# ---------------------------------------------------------------------------


class PowerBoundReport(
    namedtuple(
        "PowerBoundReport",
        "value attained_at successes skipped",
        defaults=((), ()),
    )
):
    """The least grid value (a Fraction, or None) and the grid point
    (i, j) it was attained at, with the ((i, j), value) successes and
    the skipped points of the scan."""

    __slots__ = ()


def circular_bound_via_powers(g, i_max, j_max):
    """Scan the (i, j) grid and return the least value (6i+3)/(3i+1-j)
    whose power graph P^{2i+1}_{2j+1}(g) is 3-colourable.

    Such 3-colourability certifies chi_c(g) <= (6i+3)/(3i+1-j), so the
    returned value is the best grid certificate for chi_c from above; it
    equals chi_c(g) whenever the grid contains the matching point.  Grid
    points with 3i+1-j <= 0 are skipped and reported.
    """
    from fractions import Fraction

    best = None
    best_at = None
    successes = []
    skipped = []
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            denom = 3 * i + 1 - j
            if denom <= 0:
                skipped.append((i, j))
                continue
            value = Fraction(6 * i + 3, denom)
            power = power_functor(2 * i + 1, 2 * j + 1, g)
            if power.has_loop():
                continue
            if k_colourable(power, 3) is not None:
                successes.append(((i, j), value))
                if best is None or value < best:
                    best, best_at = value, (i, j)
    return PowerBoundReport(
        value=best,
        attained_at=best_at,
        successes=tuple(successes),
        skipped=tuple(skipped),
    )
