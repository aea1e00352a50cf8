"""Matching types and one decidable predicate per matching variant.

A matching saturates the endpoints of its edges; ``<M>`` denotes the subgraph
of the host graph induced on the saturated vertices. Each variant asks that
``<M>`` (or the matching itself) carry some structure: a disjoint union of
single edges (induced), a unique perfect matching (uniquely restricted),
connectivity, acyclicity, an orientation with independent tails, and so on.
The empty matching counts as every variant; definitions that read "size one
or ..." accept single edges by fiat.

Predicates never mutate. Where a certificate is meaningful (an alternating
cycle, an orientation, a violating pair) a companion ``find_*`` function
returns it; the boolean predicate is derived from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graph import Graph, is_edge_cut

__all__ = [
    "PropertyId",
    "Matching",
    "Orientation",
    "MixedSet",
    "BoundFunction",
    "as_matching",
    "is_matching",
    "matching_violation",
    "is_maximal_matching",
    "is_perfect_matching",
    "has_property",
    "property_holds",
    "HEREDITARY_PROPERTIES",
    "is_induced_matching",
    "find_alternating_cycle",
    "is_uniquely_restricted",
    "is_connected_matching",
    "is_isolate_free_matching",
    "is_disconnected_matching",
    "is_acyclic_matching",
    "find_independent_orientation",
    "is_independent_matching",
    "find_bipartite_orientation",
    "is_bipartite_matching",
    "are_cnbr_adjacent",
    "is_cnbr_matching",
    "cnbr_violation",
    "are_onbr_adjacent",
    "is_onbr_matching",
    "onbr_violation",
    "is_vertex_irredundant_matching",
    "is_edge_irredundant_matching",
    "is_separating_matching",
    "is_total_matching",
    "is_maximal_total_matching",
    "total_violation",
    "is_b_matching",
    "is_maximal_p_matching",
]

Edge = tuple[int, int]


def _canon(e) -> Edge:
    u, v = e
    return (u, v) if u < v else (v, u)


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class PropertyId(enum.Enum):
    """Closed set of matching-variant tags."""

    PLAIN = "plain"
    INDUCED = "induced"
    UNIQUELY_RESTRICTED = "ur"
    CONNECTED = "connected"
    ISOLATE_FREE = "isolate_free"
    DISCONNECTED = "disconnected"
    ACYCLIC = "acyclic"
    INDEPENDENT = "independent"
    BIPARTITE = "bipartite"
    ONBR = "onbr"
    CNBR = "cnbr"
    VERTEX_IRREDUNDANT = "vertex_irredundant"
    EDGE_IRREDUNDANT = "edge_irredundant"

    @classmethod
    def from_string(cls, s: str) -> "PropertyId":
        key = s.strip().lower().replace("-", "_")
        for p in cls:
            if p.value == key:
                return p
        raise ValueError(f"unknown matching property {s!r}")


#: Variants closed under taking sub-matchings. Membership is verified
#: exhaustively by the test suite before the search engine is allowed to
#: prune on a failed prefix.
HEREDITARY_PROPERTIES = frozenset(
    {
        PropertyId.PLAIN,
        PropertyId.INDUCED,
        PropertyId.UNIQUELY_RESTRICTED,
        PropertyId.ACYCLIC,
        PropertyId.INDEPENDENT,
        PropertyId.BIPARTITE,
        PropertyId.ONBR,
        PropertyId.CNBR,
        PropertyId.VERTEX_IRREDUNDANT,
        PropertyId.EDGE_IRREDUNDANT,
    }
)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph.

    Construction validates membership and disjointness; the saturated vertex
    set is derived. Hashable and immutable like the graph itself.
    """

    host: Graph
    edges: tuple[Edge, ...]

    def __init__(self, host: Graph, edges: Iterable[Edge] = ()):
        object.__setattr__(self, "host", host)
        canon = sorted({_canon(e) for e in edges})
        seen: set[int] = set()
        for e in canon:
            host._check_edge(e)
            for v in e:
                if v in seen:
                    raise ValueError(f"not a matching: vertex {v} is shared")
                seen.add(v)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def saturated(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    @cached_property
    def sat_mask(self) -> int:
        mask = 0
        for u, v in self.edges:
            mask |= (1 << u) | (1 << v)
        return mask

    @cached_property
    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.edges:
            out[u] = v
            out[v] = u
        return out


def as_matching(G: Graph, M) -> Matching:
    if isinstance(M, Matching):
        return M
    return Matching(G, tuple(M))


@dataclass(frozen=True)
class Orientation:
    """A head/tail choice per matched edge: X collects the tails, Y the heads."""

    pairs: tuple[tuple[int, int], ...]  # (tail, head), sorted by edge

    @cached_property
    def tails(self) -> frozenset[int]:
        return frozenset(t for t, _ in self.pairs)

    @cached_property
    def heads(self) -> frozenset[int]:
        return frozenset(h for _, h in self.pairs)

    def as_strings(self, G: Graph | None = None) -> tuple[str, ...]:
        if G is None:
            return tuple(f"{t}>{h}" for t, h in self.pairs)
        return tuple(f"{G.label(t)}>{G.label(h)}" for t, h in self.pairs)


@dataclass(frozen=True)
class MixedSet:
    """A selection of vertices and edges of one host graph (the candidate
    object for total matchings). Membership is validated; independence is the
    predicate's business."""

    host: Graph
    vertices: frozenset[int]
    edges: tuple[Edge, ...]

    def __init__(self, host: Graph, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        object.__setattr__(self, "host", host)
        vs = frozenset(vertices)
        for v in vs:
            host._check_vertex(v)
        es = tuple(sorted({_canon(e) for e in edges}))
        for e in es:
            host._check_edge(e)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)

    @property
    def size(self) -> int:
        return len(self.vertices) + len(self.edges)


@dataclass(frozen=True)
class BoundFunction:
    """Per-vertex degree bounds for b-matchings; valid when 0 <= b(v) <= d(v)."""

    values: tuple[int, ...]

    @classmethod
    def uniform(cls, G: Graph, k: int) -> "BoundFunction":
        return cls(tuple(min(k, G.degree(v)) for v in range(G.n)))

    def validate_for(self, G: Graph):
        if len(self.values) != G.n:
            raise ValueError("bound function must provide one value per vertex")
        for v, bv in enumerate(self.values):
            if not (0 <= bv <= G.degree(v)):
                raise ValueError(
                    f"bound b({v}) = {bv} outside [0, d({v}) = {G.degree(v)}]"
                )


# -- plain matching predicates ----------------------------------------------


def matching_violation(G: Graph, F) -> int | None:
    """The first vertex shared by two members of F, or None when F is a
    matching. Members must be edges of G."""
    seen: set[int] = set()
    for e in sorted({_canon(e) for e in F}):
        G._check_edge(e)
        for v in e:
            if v in seen:
                return v
            seen.add(v)
    return None


def is_matching(G: Graph, F) -> bool:
    return matching_violation(G, F) is None


def is_maximal_matching(G: Graph, M) -> bool:
    """True iff no edge of G avoids the saturated vertices entirely."""
    m = as_matching(G, M)
    sat = m.sat_mask
    return all(sat & ((1 << u) | (1 << v)) for u, v in G.edges)


def is_perfect_matching(G: Graph, M) -> bool:
    m = as_matching(G, M)
    return 2 * m.size == G.n


# -- mask-level helpers -----------------------------------------------------


def _component_mask(adj: tuple[int, ...], start: int, allowed: int) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _count_components(adj: tuple[int, ...], mask: int) -> int:
    count = 0
    rem = mask
    while rem:
        start = (rem & -rem).bit_length() - 1
        rem &= ~_component_mask(adj, start, mask)
        count += 1
    return count


def _edges_within(adj: tuple[int, ...], mask: int) -> int:
    total = 0
    for v in _bits(mask):
        total += (adj[v] & mask).bit_count()
    return total // 2


# -- variant predicates -----------------------------------------------------


def is_induced_matching(G: Graph, M) -> bool:
    """<M> is a disjoint union of single edges, i.e. carries exactly |M| edges."""
    m = as_matching(G, M)
    return _edges_within(G.adj_masks, m.sat_mask) == m.size


def find_alternating_cycle(G: Graph, M) -> list[int] | None:
    """A cycle in <M> alternating between matched and unmatched edges,
    as a vertex sequence, or None. Backtracking search; every vertex of <M>
    is matched, so after an unmatched step the matched step is forced."""
    m = as_matching(G, M)
    if m.size < 2:
        return None
    adj = G.adj_masks
    sat = m.sat_mask
    partner = m.partner

    for a, b in m.edges:
        # Look for: a -(matched)- b -(unmatched)- ... -(unmatched)- a.
        path = [a, b]
        visited = (1 << a) | (1 << b)

        def extend(v: int, visited: int) -> list[int] | None:
            # v was entered on a matched edge; leave on an unmatched one.
            choices = adj[v] & sat & ~(1 << partner[v])
            if choices & (1 << a):
                return path.copy()
            for w in _bits(choices & ~visited):
                u = partner[w]
                if visited & (1 << u):
                    continue
                path.append(w)
                path.append(u)
                found = extend(u, visited | (1 << w) | (1 << u))
                if found is not None:
                    return found
                path.pop()
                path.pop()
            return None

        cycle = extend(b, visited)
        if cycle is not None:
            return cycle
    return None


def is_uniquely_restricted(G: Graph, M) -> bool:
    """M is the only perfect matching of <M>; decided through the absence of
    an alternating cycle. The brute-force perfect-matching count gives the
    independent second route used by the verification suite."""
    return find_alternating_cycle(G, M) is None


def is_connected_matching(G: Graph, M) -> bool:
    m = as_matching(G, M)
    if m.size == 0:
        return True
    sat = m.sat_mask
    start = (sat & -sat).bit_length() - 1
    return _component_mask(G.adj_masks, start, sat) == sat


def is_isolate_free_matching(G: Graph, M) -> bool:
    """Size one by fiat, otherwise <M> must have no single-edge component."""
    m = as_matching(G, M)
    if m.size <= 1:
        return True
    adj = G.adj_masks
    sat = m.sat_mask
    for u, v in m.edges:
        if adj[u] & sat == (1 << v) and adj[v] & sat == (1 << u):
            return False
    return True


def is_disconnected_matching(G: Graph, M) -> bool:
    """Size one by fiat, otherwise <M> must be disconnected."""
    m = as_matching(G, M)
    if m.size <= 1:
        return True
    return not is_connected_matching(G, m)


def is_acyclic_matching(G: Graph, M) -> bool:
    m = as_matching(G, M)
    adj = G.adj_masks
    sat = m.sat_mask
    return _edges_within(adj, sat) == sat.bit_count() - _count_components(adj, sat)


# -- orientations -----------------------------------------------------------


def _tarjan_scc(n_nodes: int, out: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component ids in reverse topological order
    (sinks get the smaller ids)."""
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = 0
    comps = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            while i < len(out[v]):
                w = out[v][i]
                i += 1
                if index[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comps
                    low[w] = low[v]
                    if w == v:
                        break
                comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def find_independent_orientation(G: Graph, M) -> Orientation | None:
    """An orientation whose tail set is independent in G, or None.

    One binary choice per matched edge; a host edge joining endpoints of two
    distinct matched edges forbids the choice pair that would put both ends
    in the tail set. Solved as a 2-SAT instance over the implication graph.
    """
    m = as_matching(G, M)
    k = m.size
    if k == 0:
        return Orientation(())
    adj = G.adj_masks
    edges = m.edges
    # Node 2*i + side: edge i's tail is endpoint `side` (0 = u, 1 = v).
    out: list[list[int]] = [[] for _ in range(2 * k)]
    for i in range(k):
        for j in range(i + 1, k):
            for si in (0, 1):
                for sj in (0, 1):
                    x, y = edges[i][si], edges[j][sj]
                    if adj[x] >> y & 1:
                        # Choosing (i, si) forces (j, 1 - sj) and vice versa.
                        out[2 * i + si].append(2 * j + (1 - sj))
                        out[2 * j + sj].append(2 * i + (1 - si))
    comp = _tarjan_scc(2 * k, out)
    pairs = []
    for i in range(k):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
        # Smaller component id = nearer the sinks = safe to assert.
        side = 0 if comp[2 * i] < comp[2 * i + 1] else 1
        tail = edges[i][side]
        head = edges[i][1 - side]
        pairs.append((tail, head))
    return Orientation(tuple(pairs))


def is_independent_matching(G: Graph, M) -> bool:
    return find_independent_orientation(G, M) is not None


def find_bipartite_orientation(G: Graph, M) -> Orientation | None:
    """An orientation with both tails and heads independent, or None.

    Such an orientation is exactly a proper 2-coloring of <M> (every edge of
    <M>, matched or not, must cross the tail/head split, and any proper
    2-coloring splits each matched edge). The verification suite checks this
    reduction against exhaustive orientation search before trusting it.
    """
    m = as_matching(G, M)
    if m.size == 0:
        return Orientation(())
    adj = G.adj_masks
    sat = m.sat_mask
    color: dict[int, int] = {}
    for s in _bits(sat):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in _bits(adj[v] & sat):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    pairs = tuple((u, v) if color[u] == 0 else (v, u) for u, v in m.edges)
    return Orientation(pairs)


def is_bipartite_matching(G: Graph, M) -> bool:
    return find_bipartite_orientation(G, M) is not None


# -- neighborhood adjacency variants ----------------------------------------


def are_cnbr_adjacent(G: Graph, e1, e2) -> bool:
    """True iff both edges lie inside the subgraph induced by some closed
    neighborhood N[v]."""
    a, b = G._check_edge(e1)
    c, d = G._check_edge(e2)
    closed = G.closed_adj_masks
    return bool(closed[a] & closed[b] & closed[c] & closed[d])


def are_onbr_adjacent(G: Graph, e1, e2) -> bool:
    """True iff both edges lie inside the subgraph induced by some open
    neighborhood N(v); such a v is adjacent to all four endpoints."""
    a, b = G._check_edge(e1)
    c, d = G._check_edge(e2)
    adj = G.adj_masks
    return bool(adj[a] & adj[b] & adj[c] & adj[d])


def cnbr_violation(G: Graph, M) -> tuple[Edge, Edge] | None:
    m = as_matching(G, M)
    for i in range(m.size):
        for j in range(i + 1, m.size):
            if are_cnbr_adjacent(G, m.edges[i], m.edges[j]):
                return m.edges[i], m.edges[j]
    return None


def onbr_violation(G: Graph, M) -> tuple[Edge, Edge] | None:
    m = as_matching(G, M)
    for i in range(m.size):
        for j in range(i + 1, m.size):
            if are_onbr_adjacent(G, m.edges[i], m.edges[j]):
                return m.edges[i], m.edges[j]
    return None


def is_cnbr_matching(G: Graph, M) -> bool:
    return cnbr_violation(G, M) is None


def is_onbr_matching(G: Graph, M) -> bool:
    return onbr_violation(G, M) is None


# -- irredundance variants ---------------------------------------------------


def is_vertex_irredundant_matching(G: Graph, M) -> bool:
    """Every matched edge has an endpoint with an external private neighbor:
    a vertex outside the saturated set S adjacent to that endpoint and to no
    other member of S."""
    m = as_matching(G, M)
    adj = G.adj_masks
    closed = G.closed_adj_masks
    sat = m.sat_mask
    full = (1 << G.n) - 1
    outside = full & ~sat

    def has_private(u: int) -> bool:
        blocked = 0
        for s in _bits(sat & ~(1 << u)):
            blocked |= closed[s]
        return bool(adj[u] & outside & ~blocked)

    return all(has_private(u) or has_private(v) for u, v in m.edges)


def is_edge_irredundant_matching(G: Graph, M) -> bool:
    """Every matched edge has a witness edge outside M touching it and no
    other matched edge: equivalently, some endpoint sees an unsaturated
    vertex."""
    m = as_matching(G, M)
    adj = G.adj_masks
    sat = m.sat_mask
    full = (1 << G.n) - 1
    outside = full & ~sat
    return all((adj[u] | adj[v]) & outside for u, v in m.edges)


# -- remaining variants -------------------------------------------------------


def is_separating_matching(G: Graph, M) -> bool:
    m = as_matching(G, M)
    return is_edge_cut(G, m.edges)


_DISPATCH = {
    PropertyId.PLAIN: lambda G, m: True,
    PropertyId.INDUCED: is_induced_matching,
    PropertyId.UNIQUELY_RESTRICTED: is_uniquely_restricted,
    PropertyId.CONNECTED: is_connected_matching,
    PropertyId.ISOLATE_FREE: is_isolate_free_matching,
    PropertyId.DISCONNECTED: is_disconnected_matching,
    PropertyId.ACYCLIC: is_acyclic_matching,
    PropertyId.INDEPENDENT: is_independent_matching,
    PropertyId.BIPARTITE: is_bipartite_matching,
    PropertyId.ONBR: is_onbr_matching,
    PropertyId.CNBR: is_cnbr_matching,
    PropertyId.VERTEX_IRREDUNDANT: is_vertex_irredundant_matching,
    PropertyId.EDGE_IRREDUNDANT: is_edge_irredundant_matching,
}


def has_property(G: Graph, M, P: PropertyId) -> bool:
    """Dispatch to the predicate for P. The empty matching passes every P."""
    m = as_matching(G, M)
    if m.size == 0:
        return True
    return _DISPATCH[P](G, m)


def property_holds(G: Graph, P: PropertyId, edges: tuple[Edge, ...]) -> bool:
    """Low-level entry for search code: same semantics as ``has_property``
    but skips Matching construction. ``edges`` must already be a canonical
    matching of G."""
    m = object.__new__(Matching)
    object.__setattr__(m, "host", G)
    object.__setattr__(m, "edges", edges)
    if not edges:
        return True
    return _DISPATCH[P](G, m)


# -- total matchings -----------------------------------------------------------


def total_violation(G: Graph, T: MixedSet) -> tuple | None:
    """The first dependent pair among T's elements, or None when the elements
    are pairwise independent: vertices must be nonadjacent, edges vertex
    disjoint, and a vertex must not be an endpoint of a chosen edge."""
    vs = sorted(T.vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if G.has_edge(u, v):
                return (u, v)
    for i, e in enumerate(T.edges):
        for f in T.edges[i + 1:]:
            if set(e) & set(f):
                return (e, f)
    for v in vs:
        for e in T.edges:
            if v in e:
                return (v, e)
    return None


def is_total_matching(G: Graph, T: MixedSet) -> bool:
    return total_violation(G, T) is None


def is_maximal_total_matching(G: Graph, T: MixedSet) -> bool:
    """Pairwise independent, and no single vertex or edge can be added."""
    if not is_total_matching(G, T):
        return False
    sat = 0
    for u, v in T.edges:
        sat |= (1 << u) | (1 << v)
    vmask = 0
    for v in T.vertices:
        vmask |= 1 << v
    adj = G.adj_masks
    blocked_v = vmask | sat
    for v in range(G.n):
        if not (blocked_v >> v & 1) and not (adj[v] & vmask):
            return False  # vertex v is addable
    for u, v in G.edges:
        bits = (1 << u) | (1 << v)
        if not (bits & (sat | vmask)):
            return False  # edge (u, v) is addable
    return True


# -- b-matchings -----------------------------------------------------------------


def is_b_matching(G: Graph, F, b: BoundFunction) -> bool:
    """Every vertex meets at most b(v) edges of F. F need not be a matching."""
    b.validate_for(G)
    deg = [0] * G.n
    for e in {_canon(e) for e in F}:
        u, v = G._check_edge(e)
        deg[u] += 1
        deg[v] += 1
    return all(deg[v] <= b.values[v] for v in range(G.n))


# -- maximality with respect to a property -----------------------------------------


def is_maximal_p_matching(G: Graph, M, P: PropertyId) -> bool:
    """No single edge extends M to a larger matching with property P.

    For non-hereditary variants this one-edge-extension reading differs from
    "maximal matching possessing P" and is applied uniformly. Raises when M
    itself lacks P.
    """
    m = as_matching(G, M)
    if not has_property(G, m, P):
        raise ValueError(f"matching does not have property {P.value!r}")
    sat = m.sat_mask
    for e in G.edges:
        u, v = e
        if sat & ((1 << u) | (1 << v)):
            continue
        if property_holds(G, P, tuple(sorted(m.edges + (e,)))):
            return False
    return True
