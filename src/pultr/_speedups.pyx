# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernel; algorithmic twin of pultr._fallback.

The existence search (propagation + branching) runs in C without the
GIL.  Counting and enumeration delegate to pultr._fallback.  Results
and decision counts must equal the fallback's: tests/test_parity.py
compiles the committed _speedups.c and checks them.  After any change
here, regenerate that file with Cython and mirror behavioural changes
in pultr._fallback.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memcpy, memset

from . import _fallback

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil
    int __builtin_ctzll(unsigned long long) nogil

ctypedef unsigned long long u64

MODE_EXISTS = 0
MODE_COUNT = 1
MODE_ENUM = 2

STATUS_OK = 0
STATUS_BUDGET = 1


cdef struct Ctx:
    int n_g
    int n_h
    int W
    int n_arcs
    int *au
    int *av
    u64 *hout
    u64 *hin
    u64 *tmp
    long long budget
    long long decisions


cdef int _propagate(Ctx *c, u64 *doms) nogil:
    cdef int changed = 1
    cdef int a, u, v, w, i, idx
    cdef u64 m, low, nw
    cdef bint diff, empty
    while changed:
        changed = 0
        for a in range(c.n_arcs):
            u = c.au[a]
            v = c.av[a]
            # values of v supported by some out-neighbour of dom[u]
            memset(c.tmp, 0, c.W * sizeof(u64))
            for w in range(c.W):
                m = doms[u * c.W + w]
                while m:
                    low = m & (~m + 1)
                    idx = (w << 6) + __builtin_ctzll(low)
                    for i in range(c.W):
                        c.tmp[i] |= c.hout[idx * c.W + i]
                    m ^= low
            diff = False
            empty = True
            for i in range(c.W):
                nw = doms[v * c.W + i] & c.tmp[i]
                if nw != doms[v * c.W + i]:
                    diff = True
                    doms[v * c.W + i] = nw
                if nw:
                    empty = False
            if diff:
                if empty:
                    return 0
                changed = 1
            # values of u with an out-neighbour inside dom[v]
            memset(c.tmp, 0, c.W * sizeof(u64))
            for w in range(c.W):
                m = doms[v * c.W + w]
                while m:
                    low = m & (~m + 1)
                    idx = (w << 6) + __builtin_ctzll(low)
                    for i in range(c.W):
                        c.tmp[i] |= c.hin[idx * c.W + i]
                    m ^= low
            diff = False
            empty = True
            for i in range(c.W):
                nw = doms[u * c.W + i] & c.tmp[i]
                if nw != doms[u * c.W + i]:
                    diff = True
                    doms[u * c.W + i] = nw
                if nw:
                    empty = False
            if diff:
                if empty:
                    return 0
                changed = 1
    return 1


cdef int _search_exists(Ctx *c, u64 *doms, u64 *levels, int depth, int *out) nogil:
    """1 = witness written to out, 0 = exhausted, -1 = budget."""
    cdef int best = -1
    cdef int best_pc = c.n_h + 1
    cdef int u, pc, w, r, val_w
    cdef u64 m, low
    cdef u64 *nd
    for u in range(c.n_g):
        pc = 0
        for w in range(c.W):
            pc += __builtin_popcountll(doms[u * c.W + w])
        if 1 < pc < best_pc:
            best = u
            best_pc = pc
            if pc == 2:
                break
    if best < 0:
        for u in range(c.n_g):
            for w in range(c.W):
                m = doms[u * c.W + w]
                if m:
                    out[u] = (w << 6) + __builtin_ctzll(m)
                    break
        return 1
    nd = levels + depth * c.n_g * c.W
    for val_w in range(c.W):
        m = doms[best * c.W + val_w]
        while m:
            low = m & (~m + 1)
            m ^= low
            c.decisions += 1
            if c.decisions > c.budget:
                return -1
            memcpy(nd, doms, c.n_g * c.W * sizeof(u64))
            memset(nd + best * c.W, 0, c.W * sizeof(u64))
            nd[best * c.W + val_w] = low
            if _propagate(c, nd):
                r = _search_exists(c, nd, levels, depth + 1, out)
                if r != 0:
                    return r
    return 0


cdef int _fill_rows(u64 *dst, rows, int W) except -1:
    cdef int i = 0
    cdef bytes b
    for row in rows:
        b = row.to_bytes(W * 8, "little")
        memcpy(dst + i * W, <const unsigned char *> b, W * 8)
        i += 1
    return 0


def solve(n_g, n_h, arcs, doms0, out_masks, in_masks, mode, budget, limit=-1):
    """Same contract as pultr._fallback.solve."""
    if mode != MODE_EXISTS:
        return _fallback.solve(
            n_g, n_h, arcs, doms0, out_masks, in_masks, mode, budget, limit
        )
    if n_g == 0:
        return STATUS_OK, (), 0
    if any(d == 0 for d in doms0):
        return STATUS_OK, None, 0

    cdef Ctx c
    c.n_g = n_g
    c.n_h = n_h
    c.W = (n_h + 63) >> 6 if n_h else 1
    c.n_arcs = len(arcs)
    c.budget = budget
    c.decisions = 0

    cdef u64 *doms = NULL
    cdef u64 *levels = NULL
    cdef int *out = NULL
    cdef int status = 0
    cdef int i
    c.au = <int *> malloc(max(c.n_arcs, 1) * sizeof(int))
    c.av = <int *> malloc(max(c.n_arcs, 1) * sizeof(int))
    c.hout = <u64 *> malloc(max(n_h, 1) * c.W * sizeof(u64))
    c.hin = <u64 *> malloc(max(n_h, 1) * c.W * sizeof(u64))
    c.tmp = <u64 *> malloc(c.W * sizeof(u64))
    doms = <u64 *> malloc(n_g * c.W * sizeof(u64))
    levels = <u64 *> malloc((n_g + 1) * n_g * c.W * sizeof(u64))
    out = <int *> malloc(n_g * sizeof(int))
    if (
        c.au == NULL or c.av == NULL or c.hout == NULL or c.hin == NULL
        or c.tmp == NULL or doms == NULL or levels == NULL or out == NULL
    ):
        _free_all(&c, doms, levels, out)
        raise MemoryError
    try:
        for i, (a, b) in enumerate(arcs):
            c.au[i] = a
            c.av[i] = b
        _fill_rows(c.hout, out_masks, c.W)
        _fill_rows(c.hin, in_masks, c.W)
        _fill_rows(doms, doms0, c.W)
        with nogil:
            if not _propagate(&c, doms):
                status = 0
            else:
                status = _search_exists(&c, doms, levels, 0, out)
        if status == -1:
            return STATUS_BUDGET, None, c.decisions
        if status == 0:
            return STATUS_OK, None, c.decisions
        return STATUS_OK, tuple(out[i] for i in range(n_g)), c.decisions
    finally:
        _free_all(&c, doms, levels, out)


cdef void _free_all(Ctx *c, u64 *doms, u64 *levels, int *out):
    if c.au != NULL:
        free(c.au)
    if c.av != NULL:
        free(c.av)
    if c.hout != NULL:
        free(c.hout)
    if c.hin != NULL:
        free(c.hin)
    if c.tmp != NULL:
        free(c.tmp)
    if doms != NULL:
        free(doms)
    if levels != NULL:
        free(levels)
    if out != NULL:
        free(out)
