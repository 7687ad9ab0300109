"""Homomorphism engine: decide, count and enumerate (di)graph
homomorphisms, plus the derived relations built on them.

The actual search lives in a kernel module with two interchangeable
implementations: pultr._speedups (compiled) and pultr._fallback (pure
Python).  The compiled kernel is preferred when importable; setting
PULTR_PURE=1 forces the fallback.  Results are identical either way.

Every witness handed out has been re-checked against the raw arc sets by
`verify_witness`, which is independent of the searcher.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import limits
from .bitset import iter_bits
from .errors import BudgetExceededError, ParameterError
from .graphs import enumerate_graphs, tensor_product

if os.environ.get("PULTR_PURE") == "1":
    from . import _fallback as _kernel

    KERNEL = "python"
else:
    try:
        from . import _speedups as _kernel

        KERNEL = "compiled"
    except ImportError:
        from . import _fallback as _kernel

        KERNEL = "python"

MODE_EXISTS = 0
MODE_COUNT = 1
MODE_ENUM = 2

ISO_CAP = 12


def kernel_name():
    return KERNEL


@dataclass(frozen=True)
class HomWitness:
    """An explicit vertex map certifying a homomorphism."""

    source_order: int
    target_order: int
    mapping: tuple

    def __call__(self, u):
        return self.mapping[u]


def verify_witness(g, h, mapping):
    """Independent check that `mapping` is a homomorphism g -> h."""
    if len(mapping) != g.n:
        return False
    if any(not 0 <= x < h.n for x in mapping):
        return False
    return all(h.has_arc(mapping[u], mapping[v]) for u, v in g.arcs())


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


def kernel_args(g, h, mode, pins=None, budget=None, limit=-1):
    """The positional arguments of the kernels' `solve` for a search
    g -> h: loops of g and pins become unary domain restrictions, the
    remaining arcs of g are the binary constraints.  budget=None means
    the scoped default (`limits.default_budget`)."""
    if budget is None:
        budget = limits.default_budget()
    full = (1 << h.n) - 1
    doms = [full] * g.n
    arcs = []
    for u, v in g.arc_list:
        if u == v:
            doms[u] &= h.loop_mask
        else:
            arcs.append((u, v))
    if pins:
        for u, val in pins.items():
            doms[u] &= 1 << val
    return (
        g.n,
        h.n,
        arcs,
        doms,
        list(h.out_masks),
        list(h.in_masks),
        mode,
        budget,
        limit,
    )


def _solve(g, h, mode, pins=None, budget=None, limit=-1):
    need = g.n * 3 + 200
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)
    status, payload, decisions = _kernel.solve(
        *kernel_args(g, h, mode, pins, budget, limit)
    )
    if status != 0:
        raise BudgetExceededError(decisions)
    return payload


def hom_exists(g, h, budget=None, shortcuts=True):
    """A verified homomorphism witness g -> h, or None.

    Deterministic: propagation plus smallest-domain-first backtracking,
    values in ascending order.  A looped vertex of h short-circuits to the
    constant witness at the lowest such vertex.
    """
    if g.n == 0:
        return HomWitness(0, h.n, ())
    if shortcuts and h.loop_mask:
        v = (h.loop_mask & -h.loop_mask).bit_length() - 1
        return _checked(g, h, (v,) * g.n)
    mapping = _solve(g, h, MODE_EXISTS, budget=budget)
    if mapping is None:
        return None
    return _checked(g, h, mapping)


def hom_exists_pinned(g, h, pins, budget=None):
    """hom_exists with some vertices of g pinned to fixed images.
    No loop shortcut: pins must be honoured."""
    for u, val in pins.items():
        if not (0 <= u < g.n and 0 <= val < h.n):
            raise ParameterError(f"pin {u}->{val} out of range")
    mapping = _solve(g, h, MODE_EXISTS, pins=pins, budget=budget)
    if mapping is None:
        return None
    return _checked(g, h, mapping)


def hom_count(g, h, budget=None):
    """Exact number of homomorphisms g -> h (plain DFS with forward
    checking; no symmetry factoring, no shortcuts)."""
    return _solve(g, h, MODE_COUNT, budget=budget)


def hom_enumerate(g, h, limit=None, budget=None):
    """All homomorphisms g -> h as witnesses, lexicographic in the map
    tuple.  `limit` caps the list; None means exhaustive."""
    maps = _solve(g, h, MODE_ENUM, budget=budget, limit=-1 if limit is None else limit)
    return [_checked(g, h, m) for m in maps]


def hom_equivalent(g, h, budget=None):
    return (
        hom_exists(g, h, budget=budget) is not None
        and hom_exists(h, g, budget=budget) is not None
    )


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _joint_refinement(g, h):
    """Iterated neighbourhood refinement (1-WL) over the disjoint union of
    g and h with a shared colour palette, so the resulting colour ids are
    directly comparable between the two graphs."""
    graphs = ((g, 0), (h, g.n))
    base = []
    for d, _off in graphs:
        for u in range(d.n):
            base.append(
                (
                    d.out_masks[u].bit_count(),
                    d.in_masks[u].bit_count(),
                    d.out_masks[u] >> u & 1,
                )
            )
    palette = {}
    cols = [palette.setdefault(k, len(palette)) for k in base]
    while True:
        sigs = []
        for d, off in graphs:
            for u in range(d.n):
                outs = tuple(
                    sorted(cols[off + v] for v in iter_bits(d.out_masks[u]))
                )
                ins = tuple(
                    sorted(cols[off + v] for v in iter_bits(d.in_masks[u]))
                )
                sigs.append((cols[off + u], outs, ins))
        palette = {}
        new = [palette.setdefault(s, len(palette)) for s in sigs]
        if new == cols:
            return cols[: g.n], cols[g.n :]
        cols = new


def isomorphic(g, h, cap=ISO_CAP):
    """Exact isomorphism test via backtracking, after degree-sequence and
    neighbourhood-refinement pruning."""
    if g.n != h.n or g.arc_count != h.arc_count:
        return False
    if g.n == 0:
        return True
    if g.n > cap:
        raise ParameterError(
            f"isomorphism order {g.n} exceeds cap {cap}; pass cap= to override"
        )
    kg, kh = _joint_refinement(g, h)
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
            ok = True
            for w in order[:i]:
                x = image[w]
                if g.has_arc(u, w) != h.has_arc(v, x) or g.has_arc(w, u) != h.has_arc(x, v):
                    ok = False
                    break
            if ok:
                image[u] = v
                used[v] = True
                if extend(i + 1):
                    return True
                used[v] = False
                image[u] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# multiplicativity counterexample search
# ---------------------------------------------------------------------------


def multiplicativity_search(k, nmax=4, budget=None):
    """Scan pairs of loop-free graphs G, H on up to nmax vertices for a
    refutation of multiplicativity of k: G -/-> k and H -/-> k but
    G x H -> k.  Returns the first such (G, H) in scan order (unordered
    pairs of the enumeration sequence, lexicographic), else None.

    None is evidence within the bound, not a proof.
    """
    universe = list(
        enumerate_graphs(nmax, directed=False, loops=False, all_orders=True)
    )
    hard = []
    for i, g in enumerate(universe):
        try:
            if hom_exists(g, k, budget=budget) is None:
                hard.append(g)
        except BudgetExceededError as e:
            raise BudgetExceededError(
                e.decisions, progress=f"prefilter graph {i}/{len(universe)}"
            ) from None
    for a, b in combinations_with_replacement(range(len(hard)), 2):
        g, h = hard[a], hard[b]
        try:
            if hom_exists(tensor_product(g, h), k, budget=budget) is not None:
                return g, h
        except BudgetExceededError as e:
            raise BudgetExceededError(
                e.decisions, progress=f"pair ({a},{b}) of {len(hard)} candidates"
            ) from None
    return None
