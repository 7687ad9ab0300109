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

import math
from functools import cached_property
from itertools import combinations, permutations

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
            for v in iter_bits(row):
                masks[v] |= bit
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

    def out_neighbours(self, u):
        return iter_bits(self.out_masks[u])

    def in_neighbours(self, u):
        return iter_bits(self.in_masks[u])

    def arcs(self):
        for u, row in enumerate(self.out_masks):
            for v in iter_bits(row):
                yield (u, v)

    @cached_property
    def arc_list(self):
        return tuple(self.arcs())

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
    closes them under reversal; loops stay single arcs."""

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

    def neighbour_mask(self, u):
        return self.out_masks[u]


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


def from_labels(labels, arc_pairs, symmetric=False):
    """Build a graph from arbitrary (sortable, hashable) vertex labels.

    Labels are sorted and renumbered 0..n-1; arcs are given as label pairs.
    Returns (graph, index) where index maps label -> vertex number.
    """
    ordered = sorted(set(labels))
    index = {lab: i for i, lab in enumerate(ordered)}
    arcs = [(index[a], index[b]) for a, b in arc_pairs]
    rows = _mask_rows(len(ordered), arcs)
    cls = Graph if symmetric else Digraph
    return cls._from_masks(len(ordered), rows), index


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
    """Kneser graph K(n,2): 2-subsets of {0..n-1}, adjacent iff disjoint."""
    if n < 2:
        raise ParameterError("K(n,2) needs n >= 2")
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
    bits = _parse_orientation(spec)
    arcs = [(i, i + 1) if b else (i + 1, i) for i, b in enumerate(bits)]
    return Digraph(len(bits) + 1, arcs)


def _parse_orientation(spec):
    if isinstance(spec, str):
        trans = {"1": 1, "0": 0, "f": 1, "r": 0}
        try:
            return [trans[c] for c in spec]
        except KeyError as e:
            raise ParameterError(f"bad orientation character {e.args[0]!r}")
    return [1 if b else 0 for b in spec]


def standard_family(spec):
    """Parse a compact family name: K5, C7, P3, dC3, dP4, T4, K7/3, KG5,
    or o<bits> for an oriented path (e.g. o1101)."""
    s = spec.strip()
    try:
        if s.startswith("dC"):
            return directed_cycle(int(s[2:]))
        if s.startswith("dP"):
            return directed_path(int(s[2:]))
        if s.startswith("KG"):
            return kneser_pairs(int(s[2:]))
        if s.startswith("K") and "/" in s:
            n, m = s[1:].split("/")
            return circular_complete(int(n), int(m))
        if s.startswith("K"):
            return complete_graph(int(s[1:]))
        if s.startswith("C"):
            return cycle_graph(int(s[1:]))
        if s.startswith("P"):
            return path_graph(int(s[1:]))
        if s.startswith("T"):
            return transitive_tournament(int(s[1:]))
        if s.startswith("o"):
            return oriented_path(s[1:])
    except ValueError:
        pass
    raise ParameterError(f"unrecognized family spec {spec!r}")


# ---------------------------------------------------------------------------
# products and other constructions
# ---------------------------------------------------------------------------


def product(kind, g, h):
    """Dispatch to tensor_product or lexicographic_product by name."""
    if kind == "tensor":
        return tensor_product(g, h)
    if kind == "lexicographic":
        return lexicographic_product(g, h)
    raise ParameterError(f"unknown product kind {kind!r}")


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
    u = v and xy an edge of H.  Undirected inputs only."""
    if not (isinstance(g, Graph) and isinstance(h, Graph)):
        raise ParameterError("lexicographic product needs undirected inputs")
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


def exponential_graph(k, h):
    """Exponential graph K^H: vertices are all vertex maps V(H) -> V(K);
    f ~ g iff for every edge [x,y] of H, [f(x), g(y)] is an edge of K."""
    if not (isinstance(k, Graph) and isinstance(h, Graph)):
        raise ParameterError("exponential graph needs undirected inputs")
    order = k.n**h.n if h.n else 1
    limits.check_size(order, "exponential graph")
    maps = list(_all_maps(h.n, k.n))
    h_arcs = h.arc_list
    edges = []
    for i, f in enumerate(maps):
        for j in range(i, len(maps)):
            gmap = maps[j]
            if all(k.has_arc(f[x], gmap[y]) for x, y in h_arcs):
                edges.append((i, j))
    limits.check_size(order + 2 * len(edges), "exponential graph")
    return Graph(len(maps), edges)


def _all_maps(dom, cod):
    """All tuples of length `dom` over range(cod), lexicographic."""
    if dom == 0:
        yield ()
        return
    if cod == 0:
        return
    idx = [0] * dom
    while True:
        yield tuple(idx)
        pos = dom - 1
        while pos >= 0 and idx[pos] == cod - 1:
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return
        idx[pos] += 1


def symmetrization(d):
    rows = [row | col for row, col in zip(d.out_masks, d.in_masks)]
    return Graph._from_masks(d.n, rows)


def sorted_edges(g):
    """The canonical edge order used by orientation bit strings."""
    return sorted(g.edges())


def orient_edges(g, spec):
    """Orient a loop-free graph by an orientation string over sorted_edges:
    bit i = '1' orients edge i from its smaller to its larger endpoint."""
    if g.has_loop():
        raise ParameterError("cannot orient a graph with loops")
    bits = _parse_orientation(spec)
    edges = sorted_edges(g)
    if len(bits) != len(edges):
        raise ParameterError(
            f"orientation length {len(bits)} != edge count {len(edges)}"
        )
    arcs = [
        (u, v) if b else (v, u) for (u, v), b in zip(edges, bits)
    ]
    return Digraph._from_masks(g.n, _mask_rows(g.n, arcs))


def orientations(g):
    """Stream all 2^|E| orientations of a loop-free graph, in orientation
    string order (integer counter, bit i = edge i of sorted_edges)."""
    if g.has_loop():
        raise ParameterError("cannot orient a graph with loops")
    edges = sorted_edges(g)
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
    math.inf iff bipartite; a loop counts as a 1-cycle."""
    if not g.is_symmetric:
        raise ParameterError("odd girth is defined for undirected graphs")
    if g.loop_mask:
        return 1
    best = math.inf
    rows = g.out_masks
    for s in range(g.n):
        dist = {(s, 0): 0}
        frontier = [(s, 0)]
        found = None
        while frontier and found is None:
            nxt = []
            for v, p in frontier:
                dv = dist[(v, p)]
                for w in iter_bits(rows[v]):
                    key = (w, 1 - p)
                    if key not in dist:
                        dist[key] = dv + 1
                        if key == (s, 1):
                            found = dv + 1
                            break
                        nxt.append(key)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            best = min(best, found)
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


def disjoint_union(graphs):
    offset = 0
    arcs = []
    total = 0
    for g in graphs:
        arcs.extend((u + offset, v + offset) for u, v in g.arcs())
        offset += g.n
        total = offset
    return Digraph._from_masks(total, _mask_rows(total, arcs))


def dominated_reduction(d):
    """Remove dominated vertices until none remain; the result is
    homomorphically equivalent to the input (u may be dropped when some w
    satisfies N_out(u)-{u} <= N_out(w), N_in(u)-{u} <= N_in(w), and w has a
    loop if u does).  Never applied implicitly by any construction."""
    g = d
    while True:
        victim = None
        for u in range(g.n):
            ubit = 1 << u
            ou = g.out_masks[u] & ~ubit
            iu = g.in_masks[u] & ~ubit
            uloop = g.out_masks[u] >> u & 1
            for w in range(g.n):
                if w == u:
                    continue
                if uloop and not g.out_masks[w] >> w & 1:
                    continue
                wbit = 1 << w
                if ou & ~(g.out_masks[w] & ~wbit) == 0 and (
                    iu & ~(g.in_masks[w] & ~wbit) == 0
                ):
                    victim = u
                    break
            if victim is not None:
                break
        if victim is None:
            return g
        g = g.induced([v for v in range(g.n) if v != victim])


# ---------------------------------------------------------------------------
# enumeration and canonical forms
# ---------------------------------------------------------------------------

ENUM_CAP_DIRECTED = 5
ENUM_CAP_UNDIRECTED = 6
CANONICAL_CAP = 7


def enumerate_graphs(
    n,
    directed=False,
    loops=True,
    all_orders=False,
    up_to_iso=False,
    cap=None,
):
    """Yield every labelled digraph/graph on exactly n vertices (or on all
    orders 1..n with all_orders=True), in deterministic order.  Optional
    isomorph rejection keeps the first representative of each class."""
    if cap is None:
        cap = ENUM_CAP_DIRECTED if directed else ENUM_CAP_UNDIRECTED
    if n > cap:
        raise ParameterError(
            f"enumeration order {n} exceeds cap {cap}; pass cap= to override"
        )
    orders = range(1, n + 1) if all_orders else [n]
    seen = set() if up_to_iso else None
    for k in orders:
        if directed:
            slots = [
                (u, v) for u in range(k) for v in range(k) if loops or u != v
            ]
        else:
            slots = [
                (u, v)
                for u in range(k)
                for v in range(u, k)
                if loops or u != v
            ]
        for s in range(1 << len(slots)):
            arcs = []
            for i, (u, v) in enumerate(slots):
                if s >> i & 1:
                    arcs.append((u, v))
                    if not directed:
                        arcs.append((v, u))
            rows = _mask_rows(k, arcs)
            cls = Digraph if directed else Graph
            g = cls._from_masks(k, rows)
            if seen is not None:
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
            yield g


def _invariant_keys(d, rounds=2):
    """Per-vertex keys built from iterated degree signatures.  The keys are
    nested tuples of invariant data only, so they are comparable across
    isomorphic graphs and totally ordered."""
    keys = [
        (
            d.out_masks[u].bit_count(),
            d.in_masks[u].bit_count(),
            d.out_masks[u] >> u & 1,
        )
        for u in range(d.n)
    ]
    for _ in range(rounds):
        keys = [
            (
                keys[u],
                tuple(sorted(keys[v] for v in iter_bits(d.out_masks[u]))),
                tuple(sorted(keys[v] for v in iter_bits(d.in_masks[u]))),
            )
            for u in range(d.n)
        ]
    return keys


def canonical_form(d):
    """Canonical representative under relabelling: exhaustive minimum over
    the permutations that respect invariant vertex classes (sound because
    any isomorphism must respect them).  Only for order <= CANONICAL_CAP."""
    if d.n > CANONICAL_CAP:
        raise ParameterError(
            f"canonical form is brute force; order cap is {CANONICAL_CAP}"
        )
    keys = _invariant_keys(d)
    classes = {}
    for u, key in enumerate(keys):
        classes.setdefault(key, []).append(u)
    ordered = sorted(classes.items(), key=lambda item: item[0])
    # block of target positions per class, in invariant class order
    blocks = []
    start = 0
    for _key, members in ordered:
        blocks.append((members, start))
        start += len(members)
    best = None
    perm = [0] * d.n

    def assign(i):
        nonlocal best
        if i == len(blocks):
            rows = [0] * d.n
            for u, row in enumerate(d.out_masks):
                m = 0
                for v in iter_bits(row):
                    m |= 1 << perm[v]
                rows[perm[u]] = m
            key = tuple(rows)
            if best is None or key < best:
                best = key
            return
        members, start = blocks[i]
        for p in permutations(range(len(members))):
            for j, u in enumerate(members):
                perm[u] = start + p[j]
            assign(i + 1)

    assign(0)
    return type(d)._from_masks(d.n, best)
