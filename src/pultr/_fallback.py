"""Pure-Python search kernel for the homomorphism engine.

The problem is the binary CSP "map V(G) into V(H) preserving arcs":
variables are the vertices of G, domains are vertex sets of H stored as
int bitmasks.  Existence queries run AC-3 style propagation to a fixpoint
and branch on the smallest open domain (ties to the lowest vertex index,
values in ascending order).  Counting and enumeration use exhaustive DFS
in vertex order with forward checking only, so counts are exact and the
enumeration order is lexicographic on the map tuple.

pultr._speedups implements the identical algorithm in C.  Both kernels
must produce bit-identical results (same first witness, same counts, same
decision counts); tests/test_parity.py compiles the committed
_speedups.c and checks this.

Unary constraints (loops of G, pinned vertices) must already be applied
to the initial domains; `arcs` must be loop-free.
"""

MODE_EXISTS = 0
MODE_COUNT = 1
MODE_ENUM = 2

STATUS_OK = 0
STATUS_BUDGET = 1


class _BudgetHit(Exception):
    pass


def solve(n_g, n_h, arcs, doms0, out_masks, in_masks, mode, budget, limit=-1):
    """Returns (status, payload, decisions).  payload: mapping tuple or None
    for MODE_EXISTS, int for MODE_COUNT, list of mapping tuples for
    MODE_ENUM (capped at `limit` when limit >= 0)."""
    decisions = 0

    def propagate(doms):
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                du = doms[u]
                dv = doms[v]
                sup = 0
                m = du
                while m:
                    low = m & -m
                    sup |= out_masks[low.bit_length() - 1]
                    m ^= low
                ndv = dv & sup
                if ndv != dv:
                    if not ndv:
                        return False
                    doms[v] = ndv
                    dv = ndv
                    changed = True
                sup = 0
                m = dv
                while m:
                    low = m & -m
                    sup |= in_masks[low.bit_length() - 1]
                    m ^= low
                ndu = du & sup
                if ndu != du:
                    if not ndu:
                        return False
                    doms[u] = ndu
                    changed = True
        return True

    def search_exists(doms):
        nonlocal decisions
        best = -1
        best_pc = n_h + 1
        for u in range(n_g):
            pc = doms[u].bit_count()
            if 1 < pc < best_pc:
                best = u
                best_pc = pc
                if pc == 2:
                    break
        if best < 0:
            return tuple(d.bit_length() - 1 for d in doms)
        m = doms[best]
        while m:
            low = m & -m
            m ^= low
            decisions += 1
            if decisions > budget:
                raise _BudgetHit
            nd = doms.copy()
            nd[best] = low
            if propagate(nd):
                found = search_exists(nd)
                if found is not None:
                    return found
        return None

    if mode == MODE_EXISTS:
        if n_g == 0:
            return STATUS_OK, (), decisions
        doms = list(doms0)
        if any(d == 0 for d in doms) or not propagate(doms):
            return STATUS_OK, None, decisions
        try:
            return STATUS_OK, search_exists(doms), decisions
        except _BudgetHit:
            return STATUS_BUDGET, None, decisions
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
    # the maps and stops after `limit` of them.
    record = mode == MODE_ENUM
    cap = limit if record else -1
    assign = [0] * n_g
    results = []
    found = 0

    def dfs(i, doms):
        """False once `cap` maps have been found."""
        nonlocal decisions, found
        if i == n_g:
            found += 1
            if record:
                results.append(tuple(assign))
            return cap < 0 or found < cap
        lst = fwd[i]
        m = doms[i]
        while m:
            low = m & -m
            m ^= low
            val = low.bit_length() - 1
            decisions += 1
            if decisions > budget:
                raise _BudgetHit
            assign[i] = val
            if lst:
                nd = doms.copy()
                for j, kind in lst:
                    dj = nd[j] & (out_masks[val] if kind == 0 else in_masks[val])
                    if not dj:
                        break
                    nd[j] = dj
                else:
                    if not dfs(i + 1, nd):
                        return False
            elif not dfs(i + 1, doms):
                return False
        return True

    try:
        # A cap of 0 asks for no maps: the DFS would record one before it
        # checks the cap, so it does not start.
        if all(doms0) and cap != 0:
            dfs(0, list(doms0))
    except _BudgetHit:
        return STATUS_BUDGET, None, decisions
    return STATUS_OK, results if record else found, decisions
