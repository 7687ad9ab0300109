"""Pure-Python search kernel for the homomorphism engine.

The problem is the binary CSP "map V(G) into V(H) preserving arcs":
variables are the vertices of G, domains are vertex sets of H stored as
int bitmasks.  Existence queries run AC-3 style propagation to a fixpoint
and branch on the smallest open domain (ties to the lowest vertex index,
values in ascending order).  Propagation memoises, per call, the support
of each domain mask along an arc.

Two rules keep the existence search where the arcs are, and neither can
change a witness.  engine.kernel_args seeds each arc's tail with the arc
tails of H and its head with H's arc heads: propagation would remove
every other value before the first branch, and its fixpoint, the
largest arc-consistent domains inside the initial ones, is the same
either way.  And the search branches only on an endpoint of a
(loop-free) arc.  No constraint reaches any other vertex, so the
subtree below each of its values is the same: branching on it would
find a map with its lowest value first, or refute that subtree once per
value.  It takes its lowest value at the leaf instead, the map that
branching would find, and each refutation is made once.

Counting and enumeration use exhaustive DFS in vertex order with
forward checking only, undone from a trail, so counts are exact and the
enumeration order is lexicographic on the map tuple.  Both searches
keep their open branches on an explicit stack, not on Python's call
stack, so depth costs no recursion limit and a call leaves no reference
cycle behind.

tests/test_kernel_golden.py pins the witnesses, counts, enumeration
orders and decision counts of all three modes.  engine.hom_exists
sends every query that its loop rules leave open here; the semijoin
passes of engine._forest_walk and functors.gamma_functor decide forests
without this module.

Unary constraints (loops of G, pinned vertices) must already be applied
to the initial domains; `arcs` must be loop-free.
"""

MODE_EXISTS = 0
MODE_COUNT = 1
MODE_ENUM = 2

STATUS_OK = 0
STATUS_BUDGET = 1


def solve(n_g, n_h, arcs, doms0, out_masks, in_masks, mode, budget):
    """Returns (status, payload, decisions).  payload: mapping tuple or None
    for MODE_EXISTS, int for MODE_COUNT, list of mapping tuples for
    MODE_ENUM."""
    decisions = 0
    # The support of a domain mask along an arc, the OR of its rows, is
    # memoised per call: out_sup for the out-rows, in_sup for the in-rows.
    out_sup = {}
    in_sup = {}

    def propagate(doms):
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                du = doms[u]
                dv = doms[v]
                sup = out_sup.get(du)
                if sup is None:
                    sup = 0
                    m = du
                    while m:
                        low = m & -m
                        sup |= out_masks[low.bit_length() - 1]
                        m ^= low
                    out_sup[du] = sup
                ndv = dv & sup
                if ndv != dv:
                    if not ndv:
                        return False
                    doms[v] = ndv
                    dv = ndv
                    changed = True
                sup = in_sup.get(dv)
                if sup is None:
                    sup = 0
                    m = dv
                    while m:
                        low = m & -m
                        sup |= in_masks[low.bit_length() - 1]
                        m ^= low
                    in_sup[dv] = sup
                ndu = du & sup
                if ndu != du:
                    if not ndu:
                        return False
                    doms[u] = ndu
                    changed = True
        return True

    if mode == MODE_EXISTS:
        if n_g == 0:
            return STATUS_OK, (), decisions
        doms = list(doms0)
        if 0 in doms or not propagate(doms):
            return STATUS_OK, None, decisions
        # Only an arc's endpoint is branched on; any other vertex keeps its
        # domain and takes its lowest value at the leaf.
        ends = sorted({x for arc in arcs for x in arc})
        # One entry per open branch, deepest last: the domains it narrows,
        # the vertex it branches on and that vertex's untried values.
        stack = []
        while True:
            # Branch on the smallest open domain, ties to the lowest index.
            best = -1
            best_pc = n_h + 1
            for u in ends:
                pc = doms[u].bit_count()
                if 1 < pc < best_pc:
                    best = u
                    best_pc = pc
                    if pc == 2:
                        break
            if best < 0:
                return (
                    STATUS_OK,
                    tuple((d & -d).bit_length() - 1 for d in doms),
                    decisions,
                )
            stack.append([doms, best, doms[best]])
            while True:
                if not stack:
                    return STATUS_OK, None, decisions
                top = stack[-1]
                parent, best, m = top
                if not m:
                    stack.pop()
                    continue
                low = m & -m
                top[2] = m ^ low
                decisions += 1
                if decisions > budget:
                    return STATUS_BUDGET, None, decisions
                doms = parent.copy()
                doms[best] = low
                if propagate(doms):
                    break
    if mode != MODE_COUNT and mode != MODE_ENUM:
        raise ValueError(f"unknown mode {mode}")

    # forward-checking lists for the static-order DFS: for each variable i,
    # the constraints towards later variables, as (j, 0=out / 1=in).
    fwd = [[] for _ in range(n_g)]
    for u, v in arcs:
        if u < v:
            fwd[u].append((v, 0))
        elif v < u:
            fwd[v].append((u, 1))

    # Counting and enumeration share one DFS; only enumeration records
    # the maps.
    record = mode == MODE_ENUM
    if n_g == 0:
        return STATUS_OK, [()] if record else 1, decisions
    if not all(doms0):
        return STATUS_OK, [] if record else 0, decisions
    assign = [0] * n_g
    results = []
    found = 0

    # The forward checks narrow `doms` in place.  Variable i keeps its
    # untried values in rest[i] and the narrowings of its current value
    # in trails[i], undone in reverse before its next value, since fwd[i]
    # may list one j twice.
    doms = list(doms0)
    rest = [0] * n_g
    trails = [()] * n_g
    rest[0] = doms[0]
    last = n_g - 1
    i = 0
    while i >= 0:
        for j, dj in reversed(trails[i]):
            doms[j] = dj
        m = rest[i]
        if not m:
            trails[i] = ()
            i -= 1
            continue
        low = m & -m
        rest[i] = m ^ low
        val = low.bit_length() - 1
        decisions += 1
        if decisions > budget:
            return STATUS_BUDGET, None, decisions
        assign[i] = val
        trails[i] = trail = []
        for j, kind in fwd[i]:
            dj = doms[j]
            nj = dj & (out_masks[val] if kind == 0 else in_masks[val])
            if not nj:
                break
            if nj != dj:
                trail.append((j, dj))
                doms[j] = nj
        else:
            if i == last:
                found += 1
                if record:
                    results.append(tuple(assign))
            else:
                i += 1
                rest[i] = doms[i]
    return STATUS_OK, results if record else found, decisions
