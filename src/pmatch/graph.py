"""Immutable simple undirected graphs: construction, parsing, generators,
and the structural queries every solver builds on.

Vertices are dense integers ``0..n-1``. Optional string labels ride along for
display purposes only; all computation happens on indices. Three views are
exposed: neighbor tuples (``adj_lists``, cheap at any scale), per-vertex
integer bitmasks over the vertices (``adj_masks``), over the edges at each
vertex (``incidence_masks``) and over the edges with an end in its closed
neighborhood (``closed_incidence_masks``). The mask views are built lazily
and meant for the desk-scale graphs where the predicate and search code
lives.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import itemgetter, or_

__all__ = [
    "Graph",
    "Block",
    "BlockDecomposition",
    "ParseError",
    "parse_graph",
    "serialize_graph",
    "generate",
    "FAMILY_LIMIT",
    "from_edge_mask",
    "edge_mask_of",
    "FIGURE_MATCHINGS",
    "closed_neighborhood",
    "induced_subgraph",
    "complement",
    "components",
    "is_connected",
    "is_bipartite",
    "is_acyclic_graph",
    "is_triangle_free",
    "block_decomposition",
    "is_even_cycle_free",
    "is_edge_cut",
]

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _is_canonical(edges, n: int) -> bool:
    """True when ``edges`` is already a tuple of (u, v) int tuples with
    0 <= u < v < n in strictly increasing order, the form ``Graph`` stores.
    One pass; any other input takes the normalizing loop and its errors."""
    if type(edges) is not tuple:
        return False
    pu = pv = -1
    try:
        for e in edges:
            if type(e) is not tuple:
                return False
            u, v = e
            if not (u < v < n and (pu < u or (pu == u and pv < v))) or (
                u.__class__ is not int or v.__class__ is not int  # no call, unlike type()
            ):
                return False
            pu, pv = u, v
    except (TypeError, ValueError):
        return False
    # u never decreases along the tuple, so the first u bounds them all.
    return not edges or edges[0][0] >= 0


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v; duplicates
    collapse silently, self-loops are rejected. Instances are immutable and
    hashable, so every query below is pure and safe to share across threads.
    """

    n: int
    edges: tuple[Edge, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if not _is_canonical(self.edges, n):
            seen = set()
            for e in self.edges:
                u, v = e
                if type(u) is not int or type(v) is not int:
                    raise ValueError(f"edge {e} has a non-integer endpoint")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge {e} has an endpoint outside 0..{n - 1}")
                seen.add((u, v) if u < v else (v, u))
            object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise ValueError("labels must provide one entry per vertex")
            object.__setattr__(self, "labels", labels)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj_lists(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples; linear in n + m, usable at any scale. The
        edges are sorted with u < v, so each vertex meets its smaller
        neighbors first and both runs arrive in ascending order."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks. Memory grows with n**2 / 8; only ask
        for this on desk-scale graphs (the solvers and predicates do)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def incidence_masks(self) -> tuple[int, ...]:
        """Per-vertex edge bitmasks: bit j of entry v is set when v is an end
        of ``edges[j]``. Memory grows with n * m / 8 at most; every
        edge-conflict mask of the solvers is built from these."""
        masks = [0] * self.n
        for j, (u, v) in enumerate(self.edges):
            masks[u] |= 1 << j
            masks[v] |= 1 << j
        return tuple(masks)

    @cached_property
    def closed_incidence_masks(self) -> tuple[int, ...]:
        """Per-vertex masks of the edges with an end in N[v]: bit j of entry v
        is set when an end of ``edges[j]`` is v or a neighbor of v. Built
        from ``incidence_masks``; the induced conflict masks and the
        first-hit search read it."""
        at = self.incidence_masks
        return tuple(reduce(or_, map(at.__getitem__, nbrs), at[v])
                     for v, nbrs in enumerate(self.adj_lists))

    @cached_property
    def closed_adj_masks(self) -> tuple[int, ...]:
        return tuple(m | (1 << v) for v, m in enumerate(self.adj_masks))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self.adj_lists[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj_lists[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _canon(u, v) in self.edge_set

    def label(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def _check_vertex(self, v: int):
        if type(v) is not int or not (0 <= v < self.n):
            raise ValueError(f"vertex {v!r} is not an integer in 0..{self.n - 1}")

    def _check_edge(self, e) -> Edge:
        u, v = e
        ce = _canon(u, v)
        if ce not in self.edge_set or type(u) is not int or type(v) is not int:
            raise ValueError(f"{e} is not an edge of this graph")
        return ce


# -- structural queries ----------------------------------------------------


def closed_neighborhood(G: Graph, v: int) -> frozenset[int]:
    """N[v] = N(v) together with v."""
    return G.neighbors(v) | {v}


def induced_subgraph(G: Graph, S) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on vertex set S, plus the map from new indices back
    to the original ones (position i holds the original index). The relabel
    keeps order, so edges keep their relative order too. It walks the
    neighbors of S only, in time linear in the size of S and its edges."""
    order = sorted(set(S))
    for v in order:
        G._check_vertex(v)
    index = {v: i for i, v in enumerate(order)}
    adj = G.adj_lists
    edges = [(i, index[w]) for i, v in enumerate(order) for w in adj[v] if w > v and w in index]
    labels = tuple(G.label(v) for v in order) if G.labels is not None else None
    return Graph(len(order), tuple(edges), labels), tuple(order)


def complement(G: Graph) -> Graph:
    edges = [
        (u, v) for u, v in combinations(range(G.n), 2) if not G.has_edge(u, v)
    ]
    return Graph(G.n, tuple(edges), G.labels)


def components(G: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by smallest member. Empty graph: []."""
    seen = [False] * G.n
    out: list[frozenset[int]] = []
    adj = G.adj_lists
    for s in range(G.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def is_connected(G: Graph) -> bool:
    """True when G has at most one component (n = 0 counts as connected)."""
    return len(components(G)) <= 1


def is_bipartite(G: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A bipartition (A, B) with every edge crossing, or None when some odd
    cycle makes one impossible. Isolated vertices land in A."""
    color = [-1] * G.n
    adj = G.adj_lists
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    a = frozenset(v for v in range(G.n) if color[v] == 0)
    b = frozenset(v for v in range(G.n) if color[v] == 1)
    return a, b


def is_acyclic_graph(G: Graph) -> bool:
    """True iff G is a forest, i.e. |E| = n - #components."""
    return G.m == G.n - len(components(G))


def is_triangle_free(G: Graph) -> bool:
    """True iff no edge has ends with a common neighbor. Each disjointness
    test walks the smaller of the two neighbor sets, so the whole test takes
    O(m^1.5) time, and linear time on graphs of bounded degree."""
    nbrs = [set(a) for a in G.adj_lists]
    return all(nbrs[u].isdisjoint(nbrs[v]) for u, v in G.edges)


@dataclass(frozen=True)
class Block:
    """One block (maximal biconnected subgraph); bridges appear as 2-vertex
    blocks. ``kind`` is "edge", "odd_cycle" (chordless, length >= 3) or
    "other"."""

    vertices: frozenset[int]
    edges: tuple[Edge, ...]
    kind: str


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]


def _classify_block(vertices: frozenset[int], edges: tuple[Edge, ...]) -> str:
    if len(vertices) == 2:
        return "edge"
    # A biconnected graph with |E| = |V| is a single cycle, and an induced
    # block carries no extra edges, so the cycle is automatically chordless.
    if len(vertices) % 2 == 1 and len(edges) == len(vertices):
        return "odd_cycle"
    return "other"


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Biconnected components by one iterative lowpoint DFS (Hopcroft &
    Tarjan, 1973), then one pass over the vertices and one over the edges.

    Every edge lands in exactly one block; isolated vertices are in none.
    Each block's edges are sorted, and blocks come in the order of those
    edge tuples, so by smallest vertex first. A cut vertex is a vertex that
    lies in two or more blocks.
    """
    n = G.n
    adj = G.adj_lists
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    order: list[int] = []
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = len(order)
        order.append(root)
        # The parent edge may lower low[v] to disc[parent] but never below,
        # which leaves the test low[v] >= disc[parent] below unchanged.
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            lv = low[v]
            for w in nbrs:
                dw = disc[w]
                if dw == -1:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    parent[w] = v
                    stack.append((w, iter(adj[w])))
                    break
                if dw < lv:
                    lv = dw
            else:
                stack.pop()
                p = parent[v]
                if p != -1 and lv < low[p]:
                    low[p] = lv
            low[v] = lv

    # Each non-root vertex v joins the block of its tree edge, which starts
    # at v when nothing below v reaches above its parent. A block is a pair
    # (edges, vertices); in_blocks counts the blocks that hold each vertex.
    block_of: list = [None] * n
    heads: list[tuple[list[Edge], list[int]]] = []
    in_blocks = [0] * n
    cuts: list[int] = []
    for v in order:
        p = parent[v]
        if p == -1:
            continue
        in_blocks[v] = 1
        if low[v] >= disc[p]:
            block_of[v] = blk = ([], [p, v])
            heads.append(blk)
            in_blocks[p] += 1
            if in_blocks[p] == 2:
                cuts.append(p)
        else:
            block_of[v] = blk = block_of[p]
            blk[1].append(v)
    # An edge belongs to the block of its later-discovered end; G.edges is
    # sorted, so each block's edge list comes out sorted too.
    for e in G.edges:
        u, w = e
        block_of[u if disc[u] > disc[w] else w][0].append(e)

    heads.sort(key=lambda blk: blk[0][0])
    blocks = []
    for es, vs in heads:
        vset, et = frozenset(vs), tuple(es)
        blocks.append(Block(vset, et, _classify_block(vset, et)))
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def is_even_cycle_free(G: Graph) -> bool:
    """True iff G has no cycle of even length, which holds exactly when every
    block is a single edge or a chordless odd cycle. Any other block is an
    even cycle or holds two cycles that share a path, and of the three cycles
    those two form, one is even."""
    return all(b.kind != "other" for b in block_decomposition(G).blocks)


def is_edge_cut(G: Graph, F) -> bool:
    """True iff removing the edge set F leaves strictly more components,
    that is, iff some edge of F joins two components of G - F. One
    labelling pass over ``adj_lists`` from F's ends finds those components."""
    removed: dict[int, set[int]] = {}
    for e in F:
        u, v = G._check_edge(e)
        removed.setdefault(u, set()).add(v)
        removed.setdefault(v, set()).add(u)
    adj = G.adj_lists
    label = [-1] * G.n
    for s in removed:
        if label[s] < 0:
            label[s] = s
            stack = [s]
            while stack:
                v = stack.pop()
                gone = removed.get(v, ())
                for w in adj[v]:
                    if label[w] < 0 and w not in gone:
                        label[w] = s
                        stack.append(w)
    return any(label[u] != label[v] for u, ends in removed.items() for v in ends)


# -- parsing and serialization ---------------------------------------------


class ParseError(ValueError):
    pass


def _parse_int_pair(tokens, lineno):
    if len(tokens) != 2:
        raise ParseError(f"line {lineno}: expected two integers, got {tokens!r}")
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"line {lineno}: expected two integers, got {tokens!r}") from None


def parse_graph(text: str) -> Graph:
    """Parse a graph from edge-list or DIMACS-like text (auto-detected).

    Edge list: one "u v" pair per line, '#' comments, blank lines ignored.
    An optional "n m" header is recognized on the first data line when its
    second integer equals the number of remaining data lines and the pair is
    plausible as a header (n >= 1, and n >= 2 whenever m > 0); anything
    else reads as an edge, so "0 0" is rejected as a self-loop. A file with
    no data lines is the empty graph on zero vertices.

    DIMACS-like: a "p edge n m" header followed by m lines "e u v" with
    1-indexed endpoints; 'c' comment lines are skipped.

    Duplicate edge lines, self-loops, endpoints at or above the declared
    vertex count, and malformed lines are all errors.
    """
    data: list[tuple[int, str]] = []
    dimacs = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "c" and line[:2] in ("c", "c "):
            continue
        if line.startswith("p "):
            dimacs = True
        data.append((lineno, line))

    if dimacs:
        return _parse_dimacs(data)
    return _parse_edge_list(data)


def _parse_edge_list(data) -> Graph:
    if not data:
        return Graph(0)
    declared_n = None
    start = 0
    first_tokens = data[0][1].split()
    if len(first_tokens) == 2 and all(t.removeprefix("-").isdecimal() for t in first_tokens):
        a, b = int(first_tokens[0]), int(first_tokens[1])
        plausible = a > 0 and (b == 0 or a >= 2)
        if b == len(data) - 1 and plausible:
            declared_n = a
            start = 1

    # One tight pass over the lines; the edges come out canonical, so one
    # sort hands Graph a tuple that it only has to check.
    edges: list[Edge] = []
    seen = set()
    for lineno, line in data[start:]:
        tokens = line.split()
        try:
            a, b = tokens
            u, v = int(a), int(b)
        except ValueError:
            u, v = _parse_int_pair(tokens, lineno)  # raises this line's error
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(e)
        edges.append(e)

    max_v = max(map(itemgetter(1), edges), default=-1)
    n = max_v + 1 if declared_n is None else declared_n
    if max_v >= n:
        raise ParseError(f"endpoint {max_v} exceeds declared vertex count {n}")
    edges.sort()
    return Graph(n, tuple(edges))


def _parse_dimacs(data) -> Graph:
    n = m = None
    edges: list[Edge] = []
    seen = set()
    for lineno, line in data:
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge n m'")
            n, m = _parse_int_pair(tokens[2:], lineno)
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative count in 'p edge {n} {m}'")
        elif tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            u, v = _parse_int_pair(tokens[1:], lineno)
            u, v = u - 1, v - 1
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: endpoint outside 1..{n}")
            e = _canon(u, v)
            if e in seen:
                raise ParseError(f"line {lineno}: duplicate edge")
            seen.add(e)
            edges.append(e)
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'p edge n m' line")
    if m is not None and m != len(edges):
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    edges.sort()
    return Graph(n, tuple(edges))


def serialize_graph(G: Graph) -> str:
    """Canonical edge-list text: "n m" header then sorted "u v" lines.

    The empty graph serializes to the empty string; parse_graph round-trips
    every serialized graph.
    """
    if G.n == 0:
        return ""
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


# -- generators -------------------------------------------------------------


def _pair_index(n: int) -> list[Edge]:
    return list(combinations(range(n), 2))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices whose edges are the set bits of ``mask`` over the
    lexicographic pair ordering (0,1), (0,2), ..., (n-2, n-1)."""
    pairs = _pair_index(n)
    if mask < 0 or mask >= (1 << len(pairs)):
        raise ValueError("edge mask out of range")
    edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
    return Graph(n, edges)


def edge_mask_of(G: Graph) -> int:
    pos = {e: i for i, e in enumerate(_pair_index(G.n))}
    mask = 0
    for e in G.edges:
        mask |= 1 << pos[e]
    return mask


#: The most vertices, and the most edges, that ``generate`` builds. A larger
#: family is refused before anything is allocated (for gnp the edge count is
#: its expected one).
FAMILY_LIMIT = 10**6


def _fits(family: str, vertices: int, edges: int):
    if vertices > FAMILY_LIMIT or edges > FAMILY_LIMIT:
        raise ValueError(f"family {family!r} is too large: {vertices} vertices and {edges} "
                         f"edges, past the limit of {FAMILY_LIMIT} of each")


def _path(n: int) -> Graph:
    _fits("path", n, n - 1)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _fits("cycle", n, n)
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _complete(n: int) -> Graph:
    _fits("complete", n, n * (n - 1) // 2)
    return Graph(n, tuple(combinations(range(n), 2)))


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both part sizes must be at least 1")
    _fits("complete_bipartite", a + b, a * b)
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def _hypercube(d: int) -> Graph:
    if d < 1:
        raise ValueError("hypercube dimension must be at least 1")
    if d > 64:  # 2^d itself would take memory
        raise ValueError(f"family 'hypercube' is too large: 2^{d} vertices, past the "
                         f"limit of {FAMILY_LIMIT}")
    _fits("hypercube", 1 << d, d << d >> 1)
    n = 1 << d
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if y > x:
                edges.append((x, y))
    return Graph(n, tuple(edges))


def _gnp(n: int, p: float, seed) -> Graph:
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    _fits("gnp", n, round(p * n * (n - 1) / 2))  # the expected edge count
    rng = random.Random(seed)
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def _random_tree(n: int, seed) -> Graph:
    _fits("random_tree", n, n - 1)
    rng = random.Random(seed)
    if n <= 1:
        return Graph(n)
    if n == 2:
        return Graph(2, ((0, 1),))
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append(_canon(leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append(_canon(u, w))
    return Graph(n, tuple(edges))


# Named example graphs: eight-vertex fixtures on two rows of four, built to
# exercise the rarer variants. Indices follow reading order, top row 0..3,
# bottom row 4..7 directly below; every fixture's bundled matching is the
# four vertical rungs 0-4, 1-5, 2-6, 3-7.
#
# fig2l: rungs plus slants 0-5, 0-6, 1-6, 3-6. The rung matching is uniquely
#   restricted (the only cycle, 0-5-1-6, carries a single matched edge).
# fig2r: rungs plus slants 0-7, 1-4, 2-5, 3-6, an 8-cycle in disguise, so the
#   rung matching sits on an alternating cycle and is not uniquely restricted.
# fig3: labels 1 2 3 4 / 1' 2' 3' 4'. Top path 2-3-4, rungs, and the slant
#   1'-2'. The rung matching is independent (orient tails to 1, 2, 3', 4).
# fig4: labels as fig3. Top edge 1-2, rungs, slants 2'-3 and 3'-4. The rung
#   matching is bipartite (tails 1, 2', 3', 4' against heads 1', 2, 3, 4).
_PRIMED = ("1", "2", "3", "4", "1'", "2'", "3'", "4'")

_FIGURES = {
    "fig2l": Graph(8, ((0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (0, 6), (1, 6), (3, 6))),
    "fig2r": Graph(8, ((0, 4), (1, 5), (2, 6), (3, 7), (0, 7), (1, 4), (2, 5), (3, 6))),
    "fig3": Graph(8, ((1, 2), (2, 3), (0, 4), (4, 5), (1, 5), (2, 6), (3, 7)), _PRIMED),
    "fig4": Graph(8, ((0, 1), (0, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7)), _PRIMED),
}

#: The matching drawn in each named example graph (all four use the rungs).
FIGURE_MATCHINGS: dict[str, tuple[Edge, ...]] = {
    name: ((0, 4), (1, 5), (2, 6), (3, 7)) for name in _FIGURES
}


def generate(
    family: str,
    n: int | None = None,
    a: int | None = None,
    b: int | None = None,
    p: float | None = None,
    seed=None,
) -> Graph:
    """Build a graph from a named family.

    Families: path, cycle, complete, complete_bipartite (sizes a, b),
    hypercube (dimension n), gnp (size n, probability p, seed), random_tree
    (size n, seed), and the named example graphs fig2l, fig2r, fig3, fig4.
    Randomized families are deterministic for a fixed seed. A family with
    more than ``FAMILY_LIMIT`` vertices or edges raises ValueError.
    """
    fam = family.lower().replace("-", "_")
    if fam in _FIGURES:
        return _FIGURES[fam]

    def need_n(minimum=1):
        if n is None or n < minimum:
            raise ValueError(f"family {family!r} needs n >= {minimum}")
        return n

    if fam == "path":
        return _path(need_n())
    if fam == "cycle":
        return _cycle(need_n(3))
    if fam == "complete":
        return _complete(need_n())
    if fam == "complete_bipartite":
        if a is None or b is None:
            raise ValueError("complete_bipartite needs part sizes a and b")
        return _complete_bipartite(a, b)
    if fam == "hypercube":
        return _hypercube(need_n())
    if fam == "gnp":
        if p is None:
            raise ValueError("gnp needs an edge probability p")
        return _gnp(need_n(), p, seed)
    if fam == "random_tree":
        return _random_tree(need_n(), seed)
    raise ValueError(f"unknown graph family {family!r}")
