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
decision counts); tests/test_parity.py checks this whenever the
compiled kernel is importable.

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

    # forward-checking lists for the static-order DFS: for each variable i,
    # the constraints towards later variables, as (j, 0=out / 1=in).
    fwd = [[] for _ in range(n_g)]
    for u, v in arcs:
        if u < v:
            fwd[u].append((v, 0))
        elif v < u:
            fwd[v].append((u, 1))

    def count_from(i, doms):
        nonlocal decisions
        if i == n_g:
            return 1
        total = 0
        lst = fwd[i]
        m = doms[i]
        while m:
            low = m & -m
            m ^= low
            val = low.bit_length() - 1
            decisions += 1
            if decisions > budget:
                raise _BudgetHit
            if lst:
                nd = doms.copy()
                ok = True
                for j, kind in lst:
                    mask = out_masks[val] if kind == 0 else in_masks[val]
                    dj = nd[j] & mask
                    if not dj:
                        ok = False
                        break
                    nd[j] = dj
                if ok:
                    total += count_from(i + 1, nd)
            else:
                total += count_from(i + 1, doms)
        return total

    assign = [0] * n_g
    results = []

    def enum_from(i, doms):
        nonlocal decisions
        if i == n_g:
            results.append(tuple(assign))
            return limit < 0 or len(results) < limit
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
                ok = True
                for j, kind in lst:
                    mask = out_masks[val] if kind == 0 else in_masks[val]
                    dj = nd[j] & mask
                    if not dj:
                        ok = False
                        break
                    nd[j] = dj
                if ok and not enum_from(i + 1, nd):
                    return False
            else:
                if not enum_from(i + 1, doms):
                    return False
        return True

    try:
        if mode == MODE_EXISTS:
            if n_g == 0:
                return STATUS_OK, (), decisions
            doms = list(doms0)
            if any(d == 0 for d in doms) or not propagate(doms):
                return STATUS_OK, None, decisions
            return STATUS_OK, search_exists(doms), decisions
        if mode == MODE_COUNT:
            if n_g == 0:
                return STATUS_OK, 1, decisions
            if any(d == 0 for d in doms0):
                return STATUS_OK, 0, decisions
            return STATUS_OK, count_from(0, list(doms0)), decisions
        if mode == MODE_ENUM:
            if n_g == 0:
                return STATUS_OK, [()], decisions
            if any(d == 0 for d in doms0):
                return STATUS_OK, [], decisions
            enum_from(0, list(doms0))
            return STATUS_OK, results, decisions
    except _BudgetHit:
        return STATUS_BUDGET, None, decisions
    raise ValueError(f"unknown mode {mode}")
