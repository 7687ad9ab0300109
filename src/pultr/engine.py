"""Homomorphism engine: decide, count and enumerate (di)graph
homomorphisms, plus the derived relations built on them.

The search lives in the kernel module pultr._fallback, bound here as
`_kernel`.  tests/test_kernel_golden.py pins its witnesses, counts,
enumeration orders and decision counts.

Every search runs under the budget of the enclosing `limits.scope`.

Two loop rules settle many existence queries without a search.  A
looped vertex of h absorbs every homomorphism, so `hom_exists` answers
with the constant map onto the lowest such vertex; and a looped vertex
of g can only map onto a looped vertex, so when h has no loop and g has
one there is no homomorphism.

A source that is a forest needs no search either (Hell, Nesetril & Zhu,
Trans. AMS 1996; Feder & Vardi, SIAM J. Comput. 1998): a leaf-to-root
semijoin pass over bitmask domains decides it, and leaves at the root
exactly the values the root takes under some homomorphism.
`gamma_functor` builds the rows of a template with P = K_1 from these
passes (`_forest_plan`, `_semijoin`); `_forest_walk` adds a walk back
from the roots, which decides the oriented paths of `chromatic`'s
Gallai-Roy checks and the oriented-forest obstructions of `duality`.
`hom_exists` itself has one searcher, the kernel, behind its two loop
rules.

Every witness handed out is checked by code that does not depend on the
searcher.  A searched witness is re-checked against the raw adjacency
rows by `verify_witness`; the constant witness of the loop rule needs
only its one row, `h.out_masks[v] >> v & 1`, which is checked in O(1).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from . import _fallback as _kernel
from . import limits
from ._fallback import MODE_COUNT, MODE_ENUM, MODE_EXISTS
from .bitset import iter_bits
from .errors import BudgetExceededError, ParameterError
from .graphs import enumerate_graphs, tensor_product

ISO_CAP = 12


def kernel_name():
    """The name of the search kernel.  There is one, in pure Python."""
    return "python"


# Stays a dataclass: perfbench/selftest.py corrupts witnesses via dataclasses.replace.
@dataclass(frozen=True)
class HomWitness:
    """An explicit vertex map certifying a homomorphism."""

    source_order: int
    target_order: int
    mapping: tuple

    def __call__(self, u):
        return self.mapping[u]


def verify_witness(g, h, mapping):
    """Independent check that `mapping` is a homomorphism g -> h.

    It reads only the raw out-rows of g and h, never a cached arc tuple
    or in-row that a searcher consumes: every image must be a vertex of
    h, and for each vertex u of g, each arc u -> v read off g's row u
    must have its image mapping[v] in h's row at mapping[u]."""
    if len(mapping) != g.n:
        return False
    n = h.n
    for x in mapping:
        if not 0 <= x < n:
            return False
    rows = h.out_masks
    for x, row in zip(mapping, g.out_masks):
        target = rows[x]
        while row:
            low = row & -row
            if not target >> mapping[low.bit_length() - 1] & 1:
                return False
            row ^= low
    return True


def compose(w1: HomWitness, w2: HomWitness) -> HomWitness:
    """Composition of witnesses g -> h and h -> k."""
    if w1.target_order != w2.source_order:
        raise ParameterError("witness orders do not compose")
    return HomWitness(
        w1.source_order,
        w2.target_order,
        tuple(w2.mapping[x] for x in w1.mapping),
    )


def _checked(g, h, mapping):
    if not verify_witness(g, h, mapping):
        raise RuntimeError(
            f"searcher produced an invalid witness {mapping} "
            f"for {g!r} -> {h!r}"
        )
    return HomWitness(g.n, h.n, tuple(mapping))


def domains(g, h, pins=None):
    """The initial domains of a search g -> h, as bitmasks over V(h):
    the unary restrictions are the loops of g, which can only map onto
    looped vertices, and the pins {u: val}.  ParameterError for a pin
    out of range."""
    doms = [(1 << h.n) - 1] * g.n
    for u in iter_bits(g.loop_mask):
        doms[u] = h.loop_mask
    if pins:
        for u, val in pins.items():
            if not (0 <= u < g.n and 0 <= val < h.n):
                raise ParameterError(f"pin {u}->{val} out of range")
            doms[u] &= 1 << val
    return doms


def kernel_args(g, h, mode, pins=None):
    """The positional arguments of the kernels' `solve` for a search
    g -> h: the `domains`, the loop-free arcs of g as the binary
    constraints, and the budget of the enclosing `limits.scope`.  The
    arc list and the mask rows are the graphs' cached tuples, not
    copies."""
    return (
        g.n,
        h.n,
        g.loop_free_arcs,
        domains(g, h, pins),
        h.out_masks,
        h.in_masks,
        mode,
        limits.default_budget(),
    )


def _solve(g, h, mode, pins=None):
    need = g.n * 3 + 200
    if sys.getrecursionlimit() < need:
        return limits.recursion_room(need, _solve, g, h, mode, pins)
    status, payload, decisions = _kernel.solve(
        *kernel_args(g, h, mode, pins)
    )
    if status != 0:
        raise BudgetExceededError(decisions)
    return payload


@lru_cache(maxsize=256)
def _forest_plan(q, root):
    """The tree edges of Q in leaf-to-root order, or None if Q is not a
    forest.  Q counts as a forest when the undirected graph of its
    loop-free arcs, each antiparallel pair merged into one edge, has no
    cycle.  The component of `root` is rooted there, every other one at
    its lowest vertex.  An edge is (child, parent, kind): bit 0 of kind
    is the arc child -> parent, bit 1 the arc parent -> child."""
    seen = 0
    edges = []
    for r in sorted(range(q.n), key=lambda v: v != root):
        if seen >> r & 1:
            continue
        seen |= 1 << r
        parent = {r: r}
        queue = [r]
        for x in queue:
            nbrs = q.out_masks[x] | q.in_masks[x]
            for y in iter_bits(nbrs & ~(1 << x | 1 << parent[x])):
                if seen >> y & 1:
                    return None
                seen |= 1 << y
                parent[y] = x
                queue.append(y)
                edges.append((y, x, q.has_arc(y, x) | q.has_arc(x, y) << 1))
    return tuple(reversed(edges))


def _semijoin(plan, doms, rows):
    """One leaf-to-root pass: each parent keeps the values that some
    value of its child supports, rows[kind] being the support row of a
    child value.  On a forest, Q -> K has a homomorphism inside the
    domains iff no domain ends empty, and a root keeps exactly the
    values it takes under one."""
    for c, p, kind in plan:
        row = rows[kind]
        sup = 0
        m = doms[c]
        while m:
            low = m & -m
            sup |= row[low.bit_length() - 1]
            m ^= low
        doms[p] &= sup
    return all(doms)


def _forest_walk(f, plan, d):
    """A homomorphism from the oriented forest f (no loop, no antiparallel
    pair) into d, or None, without search; `plan` is a `_forest_plan` of
    f.  After one semijoin pass every root and isolated vertex takes the
    lowest value left, and every other vertex the lowest one joined to
    its parent's.  The map is re-checked by `verify_witness`
    (RuntimeError if it fails)."""
    doms = [(1 << d.n) - 1] * f.n
    rows = (None, d.out_masks, d.in_masks)
    if not _semijoin(plan, doms, rows):
        return None
    mapping = [(m & -m).bit_length() - 1 for m in doms]
    # An edge (c, p, kind) has kind 1 for the arc c -> p, so c takes an
    # in-neighbour of p's value; kind 2 asks for an out-neighbour.
    for c, p, kind in reversed(plan):
        m = doms[c] & rows[3 - kind][mapping[p]]
        mapping[c] = (m & -m).bit_length() - 1
    if not verify_witness(f, d, mapping):
        raise RuntimeError(
            f"forest walk produced an invalid map {mapping} for {f!r} -> {d!r}"
        )
    return tuple(mapping)


def hom_exists(g, h):
    """A verified homomorphism witness g -> h, or None.

    Deterministic: propagation plus smallest-domain-first backtracking,
    values in ascending order.  Two loop rules answer without a search:
    if h has a loop, the witness is the constant map onto its lowest
    looped vertex v, checked in O(1) by reading the loop bit of row v
    (RuntimeError if it is clear); if h has no loop and g has one, the
    answer is None.  Every other query goes to the kernel.
    """
    if g.n == 0:
        return HomWitness(0, h.n, ())
    if h.loop_mask:
        v = (h.loop_mask & -h.loop_mask).bit_length() - 1
        if not h.out_masks[v] >> v & 1:
            raise RuntimeError(
                f"loop shortcut picked vertex {v} of {h!r}, which has no loop"
            )
        return HomWitness(g.n, h.n, (v,) * g.n)
    if g.loop_mask:
        return None
    mapping = _solve(g, h, MODE_EXISTS)
    if mapping is None:
        return None
    return _checked(g, h, mapping)


def hom_exists_pinned(g, h, pins):
    """hom_exists with some vertices of g pinned to fixed images.
    No loop shortcut: pins must be honoured, and with no pins this is
    the plain search.  No library function calls it.  It is kept as the
    search that tests/test_gamma_oracle.py builds Gamma from, one pinned
    search per pair, and as an engine entry point that perfbench's
    tracer wraps by name."""
    mapping = _solve(g, h, MODE_EXISTS, pins=pins)
    if mapping is None:
        return None
    return _checked(g, h, mapping)


def hom_count(g, h):
    """Exact number of homomorphisms g -> h (plain DFS with forward
    checking; no symmetry factoring, no shortcuts)."""
    return _solve(g, h, MODE_COUNT)


def hom_enumerate(g, h):
    """All homomorphisms g -> h as witnesses, lexicographic in the map
    tuple."""
    return [_checked(g, h, m) for m in _solve(g, h, MODE_ENUM)]


def hom_equivalent(g, h):
    return hom_exists(g, h) is not None and hom_exists(h, g) is not None


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def isomorphic(g, h):
    """Exact isomorphism test by backtracking: each vertex of g maps onto
    the vertices of h with its (out-degree, in-degree, loop) triple, the
    vertex with the fewest candidates first."""
    if g.n != h.n or g.arc_count != h.arc_count:
        return False
    if g.n > ISO_CAP:
        raise ParameterError(f"isomorphism order {g.n} exceeds cap {ISO_CAP}")
    kg, kh = (
        [
            (d.out_masks[u].bit_count(), d.in_masks[u].bit_count(), d.out_masks[u] >> u & 1)
            for u in range(d.n)
        ]
        for d in (g, h)
    )
    if sorted(kg) != sorted(kh):
        return False
    cands = [
        [v for v in range(h.n) if kh[v] == kg[u]] for u in range(g.n)
    ]
    # assign rarest candidates first
    order = sorted(range(g.n), key=lambda u: (len(cands[u]), u))
    image = [-1] * g.n
    used = [False] * h.n

    def extend(i):
        if i == g.n:
            return True
        u = order[i]
        for v in cands[u]:
            if used[v]:
                continue
            for w in order[:i]:
                x = image[w]
                if g.has_arc(u, w) != h.has_arc(v, x) or g.has_arc(w, u) != h.has_arc(x, v):
                    break
            else:
                image[u] = v
                used[v] = True
                if extend(i + 1):
                    return True
                used[v] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# multiplicativity counterexample search
# ---------------------------------------------------------------------------


def multiplicativity_search(k, nmax=4):
    """Scan pairs of loop-free graphs G, H on up to nmax vertices for a
    refutation of multiplicativity of k: G -/-> k and H -/-> k but
    G x H -> k.  Returns the first such (G, H) in scan order (unordered
    pairs of the enumeration sequence, lexicographic), else None.

    The scan takes one graph per isomorphism class, the first labelled
    member, and returns the same pair as a scan of every labelled graph:
    the refutation is invariant under relabelling G and H, and replacing
    either member of the first labelled hit by the first member of its
    class gives a hit no later in the scan, so both members are first
    members.

    None is evidence within the bound, not a proof.
    """
    universe = list(
        enumerate_graphs(
            nmax, directed=False, loops=False, all_orders=True, up_to_iso=True
        )
    )
    hard = []
    for i, g in enumerate(universe):
        try:
            if hom_exists(g, k) is None:
                hard.append(g)
        except BudgetExceededError as e:
            raise BudgetExceededError(
                e.decisions, progress=f"prefilter graph {i}/{len(universe)}"
            ) from None
    for a, b in combinations_with_replacement(range(len(hard)), 2):
        g, h = hard[a], hard[b]
        try:
            if hom_exists(tensor_product(g, h), k) is not None:
                return g, h
        except BudgetExceededError as e:
            raise BudgetExceededError(
                e.decisions, progress=f"pair ({a},{b}) of {len(hard)} candidates"
            ) from None
    return None
