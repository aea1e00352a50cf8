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
    "predicate",
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
    "pairwise_conflict_masks",
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
        return cls(tuple(min(k, len(a)) for a in G.adj_lists))

    def validate_for(self, G: Graph):
        if len(self.values) != G.n:
            raise ValueError("bound function must provide one value per vertex")
        for v, (bv, a) in enumerate(zip(self.values, G.adj_lists)):
            if not (0 <= bv <= len(a)):
                raise ValueError(
                    f"bound b({v}) = {bv} outside [0, d({v}) = {len(a)}]"
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


def _alternating_cycle(adj, partner, sat: int, u: int, v: int) -> list[int] | None:
    """An alternating cycle through uv of the matching that saturates
    ``sat`` and pairs x with ``partner[x]``, as [u, v, w1, y1, ...], or None.
    Backtracking over one path of whole matched edges: from its end, leave
    on an unmatched edge to a w of <M> off the path, go on to partner[w],
    and close once that end sees u. Each matched edge on the path keeps a
    mask of its untried exits."""
    path = [u, v]
    seen = 1 << u | 1 << v
    exits = [adj[v] & sat & ~seen]
    while exits:
        out = exits[-1]
        if not out:
            exits.pop()
            seen ^= 1 << path.pop() | 1 << path.pop()
            continue
        low = out & -out
        exits[-1] = out ^ low
        w = low.bit_length() - 1
        y = partner[w]
        path += (w, y)
        if adj[y] >> u & 1:
            return path
        seen |= low | 1 << y
        exits.append(adj[y] & sat & ~seen)
    return None


def find_alternating_cycle(G: Graph, M) -> list[int] | None:
    """A cycle in <M> alternating between matched and unmatched edges, as a
    vertex sequence with a matched edge first, or None. M's edges come in
    in order and each search starts from the new one, so the cycle found
    lies in the shortest prefix of M that has one."""
    adj = G.adj_masks
    partner = [0] * G.n
    sat = 0
    for u, v in as_matching(G, M).edges:
        partner[u], partner[v] = v, u
        sat |= 1 << u | 1 << v
        cycle = _alternating_cycle(adj, partner, sat, u, v)
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


def _orient_masks(adj, partner, sat: int) -> int | None:
    """The tails mask of an orientation with independent tails of the
    matching that saturates ``sat`` and pairs x with ``partner[x]``, or None.

    A 2-SAT instance over the saturated vertices, solved by the limited
    backtracking of Even, Itai and Shamir (SIAM J. Comput. 1976): literal x
    says "x is a tail", and its negation is its partner. An unmatched edge xy
    of <M> makes x imply partner[y]. So a tail makes its neighbors in <M>
    heads, and a head makes its partner a tail. Take the lowest open vertex,
    assert it with unit propagation, and keep the outcome when no vertex
    became both; otherwise assert its partner instead. An attempt that
    succeeds leaves every clause it touched satisfied, so when both attempts
    fail no orientation exists.
    """
    tails = heads = 0
    for x in _bits(sat):
        if not (tails | heads) >> x & 1:
            forced = (_assert_tail(adj, partner, sat, tails, heads, x)
                      or _assert_tail(adj, partner, sat, tails, heads, partner[x]))
            if forced is None:
                return None
            tails, heads = forced
    return tails


def _assert_tail(adj, partner, sat: int, tails: int, heads: int, x: int):
    """Unit propagation of "x is a tail" from the partial assignment
    (``tails``, ``heads``) of ``_orient_masks``'s 2-SAT: the tails and heads
    it forces, or None when a vertex would be both."""
    t, h, todo = tails, heads, 1 << x
    while todo and not (t | todo) & h:
        low = todo & -todo
        v = low.bit_length() - 1
        t |= low
        new_h = (adj[v] & sat | 1 << partner[v]) & ~h
        h |= new_h
        while new_h:  # a new head makes its partner a tail
            low = new_h & -new_h
            todo |= 1 << partner[low.bit_length() - 1]
            new_h ^= low
        todo &= ~t
    return None if (t | todo) & h else (t, h)


def find_independent_orientation(G: Graph, M) -> Orientation | None:
    """An orientation whose tail set is independent in G, or None."""
    m = as_matching(G, M)
    tails = _orient_masks(G.adj_masks, m.partner, m.sat_mask)
    if tails is None:
        return None
    return Orientation(tuple((u, v) if tails >> u & 1 else (v, u) for u, v in m.edges))


def is_independent_matching(G: Graph, M) -> bool:
    m = as_matching(G, M)
    return _orient_masks(G.adj_masks, m.partner, m.sat_mask) is not None


def _join_coloured(adj, comps: tuple, u: int, v: int) -> tuple | None:
    """The 2-colourings (a, b) of the components of <M + uv> from those of
    <M> in ``comps``, or None when it has none. Edge uv joins the components
    its ends see, u on one side and v on the other, which fails unless each
    has all of u's neighbors on one side and all of v's on the other."""
    p, q, rest = 1 << u, 1 << v, []
    for a, b in comps:
        nu, nv = adj[u] & (a | b), adj[v] & (a | b)
        if not nu | nv:
            rest.append((a, b))
        elif not (nu & a or nv & b):
            p, q = p | a, q | b
        elif not (nu & b or nv & a):
            p, q = p | b, q | a
        else:
            return None
    return (*rest, (p, q))


def _coloured(adj, edges) -> tuple | None:
    """The 2-coloured components of <M> for M's ``edges``, or None."""
    comps = ()
    for u, v in edges:
        comps = _join_coloured(adj, comps, u, v)
        if comps is None:
            return None
    return comps


def find_bipartite_orientation(G: Graph, M) -> Orientation | None:
    """An orientation with both tails and heads independent, or None: a
    proper 2-coloring of <M>, whose lowest vertex in each component is a
    tail."""
    m = as_matching(G, M)
    comps = _coloured(G.adj_masks, m.edges)
    if comps is None:
        return None
    tails = 0
    for a, b in comps:
        tails |= a if a & -a < b & -b else b
    return Orientation(tuple((u, v) if tails >> u & 1 else (v, u) for u, v in m.edges))


def is_bipartite_matching(G: Graph, M) -> bool:
    return _coloured(G.adj_masks, as_matching(G, M).edges) is not None


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


def _common_nbr_pair(m: Matching, nbr: tuple[int, ...]) -> tuple[Edge, Edge] | None:
    """The first pair of matched edges whose four ends all lie in one
    neighborhood of the table ``nbr`` (closed or open), or None."""
    edges = m.edges
    common = [nbr[a] & nbr[b] for a, b in edges]
    for i, c in enumerate(common):
        for j in range(i + 1, len(edges)):
            if c & common[j]:
                return edges[i], edges[j]
    return None


def cnbr_violation(G: Graph, M) -> tuple[Edge, Edge] | None:
    return _common_nbr_pair(as_matching(G, M), G.closed_adj_masks)


def onbr_violation(G: Graph, M) -> tuple[Edge, Edge] | None:
    return _common_nbr_pair(as_matching(G, M), G.adj_masks)


def is_cnbr_matching(G: Graph, M) -> bool:
    return cnbr_violation(G, M) is None


def is_onbr_matching(G: Graph, M) -> bool:
    return onbr_violation(G, M) is None


# -- pairwise variants as conflict graphs -------------------------------------


def pairwise_conflict_masks(G: Graph, P: PropertyId) -> list[int] | None:
    """For the variants that are a condition on each pair of matched edges
    (plain, induced, onbr, cnbr): bit j of entry i is set when edges i and j
    of ``G.edges`` cannot lie in one P-matching, so a set of edges is a
    P-matching exactly when it is independent in these masks. For induced
    matchings this is the square of the line graph. None for every other
    variant.

    Built from ``G.incidence_masks`` (``at``) with no loop over pairs of
    edges: O(n + m) mask operations for plain, O(n + m) more for induced,
    and for onbr and cnbr O(n + m) more plus one per edge inside each
    vertex's neighborhood, each operation on masks of m bits."""
    if P not in (PropertyId.PLAIN, PropertyId.INDUCED, PropertyId.ONBR, PropertyId.CNBR):
        return None
    at, edges = G.incidence_masks, G.edges
    if P is PropertyId.INDUCED:
        # f clashes with e when it touches N[a] or N[b], e = ab.
        near = G.closed_incidence_masks
        masks = [near[a] | near[b] for a, b in edges]
    else:
        # A shared end clashes everywhere.
        masks = [at[a] | at[b] for a, b in edges]
    if P in (PropertyId.ONBR, PropertyId.CNBR):
        # Edges with both ends in N(w) (N[w] for cnbr) clash pairwise: an
        # edge is inside once its second end has been OR-ed in.
        closed = P is PropertyId.CNBR
        for w, nbrs in enumerate(G.adj_lists):
            seen, inside = at[w] if closed else 0, 0
            for x in nbrs:
                inside |= at[x] & seen
                seen |= at[x]
            if inside & (inside - 1):  # two edges or more
                for j in _bits(inside):
                    masks[j] |= inside
    return [mask ^ 1 << j for j, mask in enumerate(masks)]  # each holds its own bit


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


def predicate(P: PropertyId):
    """The predicate for P, called as ``f(G, m)`` on a nonempty Matching m."""
    return _DISPATCH[P]


def has_property(G: Graph, M, P: PropertyId) -> bool:
    """Dispatch to the predicate for P. The empty matching passes every P."""
    m = as_matching(G, M)
    return m.size == 0 or _DISPATCH[P](G, m)


def property_holds(G: Graph, P: PropertyId, edges: tuple[Edge, ...]) -> bool:
    """Low-level entry for search code: same semantics as ``has_property``
    but skips Matching construction. ``edges`` must already be a canonical
    matching of G."""
    m = object.__new__(Matching)
    object.__setattr__(m, "host", G)
    object.__setattr__(m, "edges", edges)
    return not edges or _DISPATCH[P](G, m)


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


def _total_masks(G: Graph, T: MixedSet) -> tuple[int, int] | None:
    """T's vertex mask and the mask of its edges' ends, or None when two of
    T's elements are dependent."""
    vmask = sum(1 << v for v in T.vertices)
    sat = 0
    for u, v in T.edges:
        if sat & ((1 << u) | (1 << v)):
            return None
        sat |= (1 << u) | (1 << v)
    if sat & vmask or any(G.adj_masks[v] & vmask for v in T.vertices):
        return None
    return vmask, sat


def is_total_matching(G: Graph, T: MixedSet) -> bool:
    return _total_masks(G, T) is not None


def is_maximal_total_matching(G: Graph, T: MixedSet) -> bool:
    """Pairwise independent, and no single vertex or edge can be added."""
    masks = _total_masks(G, T)
    if masks is None:
        return False
    vmask, sat = masks
    taken, adj = vmask | sat, G.adj_masks
    # A vertex is addable when it is untaken and sees no chosen vertex, an
    # edge when neither end is taken.
    return all(taken >> v & 1 or adj[v] & vmask for v in range(G.n)) and all(
        taken & ((1 << u) | (1 << v)) for u, v in G.edges
    )


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
