"""Finite digraphs and graphs: representations, standard families, products,
orientation and enumeration utilities.

Vertices are the dense integers 0..n-1.  Adjacency is stored as per-vertex
out-neighbour bitmasks, which deduplicates arcs for free and is the layout
the search kernels consume directly.  Constructions whose vertices are
composite labels (tuples, subsets, vertex maps) sort the labels and
renumber, so identical inputs always produce identical outputs.

Graphs are digraphs whose arc set is closed under reversal; an undirected
edge is the arc pair (u,v),(v,u) and a loop is the single arc (u,u).
Loops are first class everywhere: several functor constructions create
them, and a looped target absorbs every homomorphism.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import cache, cached_property
from itertools import combinations, permutations
from operator import or_

from . import limits
from .bitset import iter_bits
from .errors import ParameterError


class Digraph:
    """Immutable digraph on vertices 0..n-1; loops allowed, no multi-arcs."""

    def __init__(self, n, arcs=()):
        if n < 0:
            raise ParameterError(f"order must be non-negative, got {n}")
        masks = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"arc ({u},{v}) out of range for order {n}")
            masks[u] |= 1 << v
        self.n = n
        self.out_masks = tuple(masks)

    @classmethod
    def _from_masks(cls, n, masks):
        g = object.__new__(cls)
        g.n = n
        g.out_masks = tuple(masks)
        return g

    @cached_property
    def in_masks(self):
        masks = [0] * self.n
        for u, row in enumerate(self.out_masks):
            bit = 1 << u
            while row:
                low = row & -row
                masks[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(masks)

    @cached_property
    def arc_count(self):
        return sum(row.bit_count() for row in self.out_masks)

    @cached_property
    def loop_mask(self):
        m = 0
        for u, row in enumerate(self.out_masks):
            if row >> u & 1:
                m |= 1 << u
        return m

    def has_loop(self):
        return self.loop_mask != 0

    @cached_property
    def is_symmetric(self):
        return self.out_masks == self.in_masks

    def has_arc(self, u, v):
        return self.out_masks[u] >> v & 1 == 1

    def arcs(self):
        for u, row in enumerate(self.out_masks):
            for v in iter_bits(row):
                yield (u, v)

    @cached_property
    def arc_list(self):
        return tuple(self.arcs())

    @cached_property
    def loop_free_arcs(self):
        """The arcs (u, v) with u != v, in arc order: the binary
        constraints of a search from this graph."""
        arcs = []
        for u, row in enumerate(self.out_masks):
            row &= ~(1 << u)
            while row:
                low = row & -row
                arcs.append((u, low.bit_length() - 1))
                row ^= low
        return tuple(arcs)

    def reverse(self):
        return Digraph(self.n, ((v, u) for u, v in self.arcs()))

    def relabel(self, perm):
        """Return the same-type graph with vertex u renamed perm[u]."""
        if sorted(perm) != list(range(self.n)):
            raise ParameterError("relabelling is not a permutation")
        masks = [0] * self.n
        for u, row in enumerate(self.out_masks):
            m = 0
            for v in iter_bits(row):
                m |= 1 << perm[v]
            masks[perm[u]] = m
        return type(self)._from_masks(self.n, masks)

    def induced(self, verts):
        """Induced subgraph on `verts` (renumbered in the given order)."""
        index = {v: i for i, v in enumerate(verts)}
        arcs = [
            (index[u], index[v])
            for u in verts
            for v in iter_bits(self.out_masks[u])
            if v in index
        ]
        return type(self)._from_masks(
            len(verts), _mask_rows(len(verts), arcs)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_masks == other.out_masks
        )

    def __hash__(self):
        return hash((self.n, self.out_masks))

    def __repr__(self):
        kind = "Graph" if isinstance(self, Graph) else "Digraph"
        arcs = list(self.arcs())
        if len(arcs) > 12:
            return f"{kind}(n={self.n}, arcs={self.arc_count})"
        return f"{kind}({self.n}, {arcs})"


class Graph(Digraph):
    """A symmetric digraph.  The constructor takes undirected edges and
    closes them under reversal; loops stay single arcs.  Every Graph is
    built with symmetric rows, so its in-rows are its out-rows."""

    is_symmetric = True

    @property
    def in_masks(self):
        return self.out_masks

    def __init__(self, n, edges=()):
        arcs = []
        for u, v in edges:
            arcs.append((u, v))
            arcs.append((v, u))
        super().__init__(n, arcs)

    def edges(self):
        """Unordered edges as pairs (u, v) with u <= v."""
        for u, row in enumerate(self.out_masks):
            for v in iter_bits(row):
                if v >= u:
                    yield (u, v)

    @cached_property
    def edge_count(self):
        return sum(1 for _ in self.edges())


def _mask_rows(n, arcs):
    masks = [0] * n
    for u, v in arcs:
        masks[u] |= 1 << v
    return masks


def as_graph(d):
    """View a symmetric digraph as a Graph (validates symmetry)."""
    if isinstance(d, Graph):
        return d
    if not d.is_symmetric:
        raise ParameterError("digraph is not symmetric; cannot view as graph")
    return Graph._from_masks(d.n, d.out_masks)


def loop_free_graph(d):
    """as_graph(d), with a ParameterError if d has a loop."""
    g = as_graph(d)
    if g.loop_mask:
        raise ParameterError("a loop-free graph is needed, and this one has a loop")
    return g


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def complete_graph(n):
    if n < 0:
        raise ParameterError("order must be non-negative")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n):
    if n < 3:
        raise ParameterError("undirected cycles need at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(m):
    """Undirected path with m edges (m+1 vertices)."""
    if m < 0:
        raise ParameterError("path length must be non-negative")
    return Graph(m + 1, ((i, i + 1) for i in range(m)))


def directed_path(m):
    """Directed path with m arcs: 0 -> 1 -> ... -> m."""
    if m < 0:
        raise ParameterError("path length must be non-negative")
    return Digraph(m + 1, ((i, i + 1) for i in range(m)))


def directed_cycle(n):
    if n < 1:
        raise ParameterError("directed cycles need at least 1 vertex")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def transitive_tournament(n):
    if n < 1:
        raise ParameterError("tournaments need at least 1 vertex")
    return Digraph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def circular_complete(n, m):
    """Circular complete graph on Z_n: u ~ v iff (u-v) mod n in {m..n-m}."""
    _check_fraction(n, m)
    limits.check_size(n + n * (n - 2 * m + 1), "circular complete graph")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if m <= (v - u) % n <= n - m:
                edges.append((u, v))
    return Graph(n, edges)


def _check_fraction(n, m):
    if n < 1 or m < 1:
        raise ParameterError("circular fraction needs positive n, m")
    if math.gcd(n, m) != 1:
        raise ParameterError(f"{n}/{m} is not reduced")
    if 2 * m > n:
        raise ParameterError(f"{n}/{m} < 2 is not a circular clique")


def kneser_pairs(n):
    """Kneser graph K(n,2): 2-subsets of {0..n-1}, adjacent iff disjoint.
    Its C(n,2) vertices and C(n,2) C(n-2,2) arcs are checked before the
    build."""
    if n < 2:
        raise ParameterError("K(n,2) needs n >= 2")
    size = math.comb(n, 2)
    limits.check_size(size + size * math.comb(n - 2, 2), "Kneser graph")
    pairs = list(combinations(range(n), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not (set(a) & set(b))
    ]
    return Graph(len(pairs), edges)


def oriented_path(spec):
    """Oriented path from an orientation string: character i is '1' for the
    forward arc i -> i+1 and '0' for the reversed arc i+1 -> i."""
    _check_orientation(spec)
    arcs = [(i, i + 1) if b == "1" else (i + 1, i) for i, b in enumerate(spec)]
    return Digraph(len(spec) + 1, arcs)


def _check_orientation(spec):
    if not isinstance(spec, str) or spec.strip("01"):
        raise ParameterError(f"orientation {spec!r} is not a string of 0s and 1s")


# ---------------------------------------------------------------------------
# products and other constructions
# ---------------------------------------------------------------------------


def tensor_product(g, h):
    """Categorial (tensor) product: arc (u,x)->(v,y) iff u->v and x->y."""
    limits.check_size(g.n * h.n + g.arc_count * h.arc_count, "tensor product")
    arcs = [
        (u * h.n + x, v * h.n + y)
        for u, v in g.arcs()
        for x, y in h.arcs()
    ]
    rows = _mask_rows(g.n * h.n, arcs)
    cls = Graph if isinstance(g, Graph) and isinstance(h, Graph) else Digraph
    return cls._from_masks(g.n * h.n, rows)


def lexicographic_product(g, h):
    """Lexicographic product G[H]: (u,x) ~ (v,y) iff uv is an edge of G, or
    u = v and xy an edge of H.  Undirected inputs only (as_graph)."""
    g, h = as_graph(g), as_graph(h)
    limits.check_size(
        g.n * h.n + g.arc_count * h.n * h.n + g.n * h.arc_count,
        "lexicographic product",
    )
    arcs = []
    for u, v in g.arcs():
        for x in range(h.n):
            for y in range(h.n):
                arcs.append((u * h.n + x, v * h.n + y))
    for u in range(g.n):
        for x, y in h.arcs():
            arcs.append((u * h.n + x, u * h.n + y))
    return Graph._from_masks(g.n * h.n, _mask_rows(g.n * h.n, arcs))


def by_rows(verts, row, what):
    """Out-rows of the digraph on `verts`, in list order, where row(x)
    yields x's out-neighbours; vertices + arcs are guarded after each row."""
    index = {x: i for i, x in enumerate(verts)}
    rows = []
    size = len(verts)
    for x in verts:
        r = 0
        for y in row(x):
            r |= 1 << index[y]
        rows.append(r)
        size += r.bit_count()
        limits.check_size(size, what)
    return rows


def exponential_graph(k, h):
    """Exponential graph K^H: vertices are all vertex maps V(H) -> V(K),
    in lexicographic order; f ~ g iff for every edge [x,y] of H,
    [f(x), g(y)] is an edge of K.  So g(y) ranges over the intersection
    of N_K(f(x)) over x in N_H(y)."""
    k, h = as_graph(k), as_graph(h)
    limits.check_size(k.n**h.n, "exponential graph")
    maps = list(itertools.product(range(k.n), repeat=h.n))
    full = (1 << k.n) - 1

    def row(f):
        allow = [full] * h.n
        for x, y in h.arc_list:
            allow[y] &= k.out_masks[f[x]]
        return itertools.product(*map(iter_bits, allow))

    return Graph._from_masks(len(maps), by_rows(maps, row, "exponential graph"))


def symmetrization(d):
    rows = [row | col for row, col in zip(d.out_masks, d.in_masks)]
    return Graph._from_masks(d.n, rows)


def orient_edges(g, spec):
    """Orient g, which must pass loop_free_graph, by an orientation string
    over its edges in sorted order (Graph.edges): bit i = '1' orients
    edge i from its smaller to its larger endpoint."""
    g = loop_free_graph(g)
    _check_orientation(spec)
    edges = list(g.edges())
    if len(spec) != len(edges):
        raise ParameterError(
            f"orientation length {len(spec)} != edge count {len(edges)}"
        )
    arcs = [
        (u, v) if b == "1" else (v, u) for (u, v), b in zip(edges, spec)
    ]
    return Digraph._from_masks(g.n, _mask_rows(g.n, arcs))


def orientations(g):
    """Stream all 2^|E| orientations of g (loop_free_graph), in orientation
    string order (integer counter, bit i = edge i of Graph.edges)."""
    g = loop_free_graph(g)
    edges = list(g.edges())
    e = len(edges)
    for s in range(1 << e):
        arcs = []
        for i, (u, v) in enumerate(edges):
            if s >> i & 1:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
        yield Digraph._from_masks(g.n, _mask_rows(g.n, arcs))


def odd_girth(g):
    """Length of a shortest odd closed walk (= shortest odd cycle).
    math.inf iff bipartite; a loop counts as a 1-cycle.

    From each s, the set of ends of walks of length d is the OR of the
    rows over the set for d - 1; the least odd d whose set holds s is the
    shortest odd closed walk through s.  A shortest odd cycle has at most
    n vertices, so d stops at n, and at the best length found so far."""
    if not g.is_symmetric:
        raise ParameterError("odd girth is defined for undirected graphs")
    if g.loop_mask:
        return 1
    best = math.inf
    rows = g.out_masks
    for s in range(g.n):
        reach = 1 << s
        for d in range(1, min(g.n + 1, best)):
            nxt = 0
            for v in iter_bits(reach):
                nxt |= rows[v]
            reach = nxt
            if d & 1 and reach >> s & 1:
                best = d
                break
    return best


def is_connected(d):
    """Weak connectivity (arcs treated as edges)."""
    if d.n == 0:
        return True
    union = [o | i for o, i in zip(d.out_masks, d.in_masks)]
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in iter_bits(union[v]):
            if not seen >> w & 1:
                seen |= 1 << w
                frontier.append(w)
    return seen == (1 << d.n) - 1


def is_oriented_tree(d):
    """Connected, loop-free, no antiparallel arc pairs, |arcs| = n - 1."""
    if d.n == 0 or d.loop_mask:
        return False
    if d.arc_count != d.n - 1:
        return False
    if any(d.has_arc(v, u) for u, v in d.arcs()):
        return False
    return is_connected(d)


def dominated_reduction(d):
    """Remove dominated vertices until none remain; the result is
    homomorphically equivalent to the input (u may be dropped when some w
    satisfies N_out(u)-{u} <= N_out(w), N_in(u)-{u} <= N_in(w), and w has a
    loop if u does).  Never applied implicitly by any construction.

    Each step drops the dominated vertex of least index; the result is
    the subgraph induced on the survivors.  Dropping x can newly dominate
    only a neighbour of x, so `todo` holds the live vertices not checked
    since they last lost a neighbour.  u's dominators are the live w != u
    with an arc to each out-neighbour of u and from each in-neighbour."""
    out, inn = d.out_masks, d.in_masks
    alive = todo = (1 << d.n) - 1
    while todo:
        ubit = todo & -todo
        todo ^= ubit
        u = ubit.bit_length() - 1
        dominators = alive & ~ubit
        if out[u] & ubit:
            dominators &= d.loop_mask
        for row, cols in ((out[u], inn), (inn[u], out)):
            for a in iter_bits(row & alive & ~ubit):
                dominators &= cols[a] & ~(1 << a)
        if dominators:
            alive ^= ubit
            todo |= (out[u] | inn[u]) & alive
    if alive == (1 << d.n) - 1:
        return d
    return d.induced(list(iter_bits(alive)))


# ---------------------------------------------------------------------------
# enumeration and isomorphism classes
# ---------------------------------------------------------------------------

ENUM_CAP_DIRECTED = 5
ENUM_CAP_UNDIRECTED = 6


def _orders(n, directed, all_orders):
    if n < 0:
        raise ParameterError(f"enumeration order {n} is negative")
    cap = ENUM_CAP_DIRECTED if directed else ENUM_CAP_UNDIRECTED
    if n > cap:
        raise ParameterError(f"enumeration order {n} exceeds cap {cap}")
    return range(1, n + 1) if all_orders else [n]


@cache
def _slots(k, directed, loops):
    """The slots of order k: bit i of the counter s selects slot i, an arc
    (u, v), or for graphs an edge {u, v} with u <= v, in lexicographic
    order."""
    return tuple(
        (u, v)
        for u in range(k)
        for v in range(0 if directed else u, k)
        if loops or u != v
    )


def _chunk_tables(images):
    """Split the bits of a slot counter into two or more chunks of at most
    10 bits, and return the chunk width and, per chunk, the table from the
    chunk's value to the OR of images[i] over its set bits i.  Two chunks
    of 5 bits take 64 entries where one of 10 takes 1 024."""
    chunks = max(2, -(-len(images) // 10))
    width = -(-len(images) // chunks)
    tables = []
    for j in range(chunks):
        table = [0]
        for image in images[j * width : (j + 1) * width]:
            # The values with this bit set follow those without it.
            table += [x | image for x in table]
        tables.append(table)
    return width, tables


def _arc_tables(k, directed, loops):
    """_chunk_tables over the slots of order k, each slot's image its
    packed adjacency: bit u*k + v is the arc (u, v)."""
    return _chunk_tables([
        1 << u * k + v if directed else 1 << u * k + v | 1 << v * k + u
        for u, v in _slots(k, directed, loops)
    ])


def enumerate_graphs(
    n,
    directed=False,
    loops=True,
    all_orders=False,
    up_to_iso=False,
):
    """Yield every labelled digraph/graph on exactly n vertices (or on all
    orders 1..n with all_orders=True), in slot order: order by order, and
    within an order by the counter s over _slots.  With up_to_iso=True,
    yield only the first member of each isomorphism class, in the same
    order (_class_walk).
    Orders above ENUM_CAP_DIRECTED / ENUM_CAP_UNDIRECTED are refused."""
    orders = _orders(n, directed, all_orders)
    cls = Digraph if directed else Graph
    for k in orders:
        width, tables = _arc_tables(k, directed, loops)
        full = (1 << k) - 1
        shifts = [u * k for u in range(k)]
        if up_to_iso:
            mask = (1 << width) - 1
            for s in _class_walk(k, directed, loops):
                a = 0
                for j, table in enumerate(tables):
                    a |= table[s >> j * width & mask]
                yield cls._from_masks(k, [a >> shift & full for shift in shifts])
        else:
            high = [0]
            for table in tables[1:]:
                high = [h | x for x in table for h in high]
            for h in high:
                for low in tables[0]:
                    a = h | low
                    yield cls._from_masks(k, [a >> shift & full for shift in shifts])


def stream_index(g, directed=False, loops=True):
    """g's 0-based position in enumerate_graphs(n, directed, loops,
    all_orders=True), for any n >= g.n: the labelled graphs of every
    lower order (stream_size), plus g's counter over _slots."""
    rows = g.out_masks
    s = 0
    for i, (u, v) in enumerate(_slots(g.n, directed, loops)):
        s |= (rows[u] >> v & 1) << i
    return s + stream_size(g.n - 1, directed, loops)


def stream_size(nmax, directed=False, loops=True):
    """The number of labelled graphs that enumerate_graphs(nmax, directed,
    loops, all_orders=True) yields, on 1..nmax vertices; no cap applies."""
    return sum(1 << len(_slots(k, directed, loops)) for k in range(1, nmax + 1))


@cache
def _orbit_marker(k, directed, loops):
    """mark(seen, s), which sets seen[t] = 1 for every slot counter t of
    order k in the orbit of s under relabelling.  The image of s under a
    relabelling is the OR of per-permutation tables looked up on the
    chunks of s, at least two and of at most 10 bits each.  The tables
    take 4 bytes per entry, k! 2^width per chunk (0.9 MiB for loop-free
    digraphs on five vertices), and are kept for the next walk of the
    order."""
    slots = _slots(k, directed, loops)
    index = {slot: i for i, slot in enumerate(slots)}
    per_permutation = []
    for p in permutations(range(k)):
        images = [
            1 << index[(p[u], p[v]) if directed or p[u] <= p[v] else (p[v], p[u])]
            for u, v in slots
        ]
        width, tables = _chunk_tables(images)
        per_permutation.append([array("I", table) for table in tables])
    # Chunk j's table for every permutation.
    low, *high = zip(*per_permutation)
    mask = (1 << width) - 1

    def mark(seen, s):
        images = [table[s & mask] for table in low]
        for j, column in enumerate(high, 1):
            part = s >> j * width & mask
            images = list(map(or_, images, [table[part] for table in column]))
        for image in images:
            seen[image] = 1

    return mark


def _class_walk(k, directed, loops):
    """Yield the least slot counter of each isomorphism class of order k,
    in increasing order.

    Counters grow along the walk, so the first counter met in a class is
    its least.  A bytearray marks the orbit of each class met
    (_orbit_marker), and bytearray.find skips the marked counters in C,
    so the loop runs once per class.  The bytearray takes a byte per
    labelled graph of the order."""
    mark = _orbit_marker(k, directed, loops)
    seen = bytearray(1 << len(_slots(k, directed, loops)))
    s = seen.find(0)
    while s >= 0:
        mark(seen, s)
        yield s
        s = seen.find(0, s + 1)
