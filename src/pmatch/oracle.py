"""Brute-force reference values for every parameter.

Deliberately naive: candidate sets are enumerated exhaustively and filtered
through the public predicates, with no shortcut beyond abandoning a partial
set that already violates the defining filter (a shared vertex for
matchings, an exceeded bound for b-matchings, a dependent pair for total
matchings). No code is shared with the solver engine beyond the graph type
and the predicates themselves, so an engine bug cannot mirror itself here.

Each scan runs once per graph and serves every tag it answers: one pass over
all matchings serves the matching tags, one over all vertex subsets serves
``beta0``, ``alpha0`` and ``gamma``, and one over the pairwise-independent
mixed sets serves both total-matching tags. In the matching pass, each
variant's predicate runs once per matching and sets one bit of its vector.
M is maximal for P when P's bit is clear in the OR of the vectors of its
one-edge extensions, and the separating test builds no graph. The scans and
the edge-cover scan keep their last few graphs' reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graph import Graph, is_edge_cut
from .properties import (
    BoundFunction,
    Matching,
    MixedSet,
    PropertyId,
    as_matching,
    is_maximal_total_matching,
    predicate,
)
from .solvers import PROPERTY_MAX_PARAM, PROPERTY_MIN_PARAM, ParameterId

__all__ = [
    "OracleReport",
    "OracleLimitError",
    "oracle_parameter",
    "oracle_orientation_feasible",
    "oracle_perfect_matchings",
    "all_matchings",
    "EDGE_SUBSET_LIMIT",
    "MIXED_SUBSET_LIMIT",
    "VERTEX_SUBSET_LIMIT",
    "COVER_SCAN_LIMIT",
    "PM_COUNT_LIMIT",
    "ORIENTATION_LIMIT",
]

Edge = tuple[int, int]

EDGE_SUBSET_LIMIT = 22
MIXED_SUBSET_LIMIT = 22
VERTEX_SUBSET_LIMIT = 16
COVER_SCAN_LIMIT = 20
PM_COUNT_LIMIT = 16
ORIENTATION_LIMIT = 20


class OracleLimitError(ValueError):
    """The requested enumeration universe is too large for brute force."""


@dataclass(frozen=True)
class OracleReport:
    """Reference value for one parameter: the exact optimum, how many optimal
    witnesses exist, how many candidate sets the scan evaluated, and the
    lexicographically smallest optimal witness (None without a value)."""

    parameter: ParameterId
    value: int | None
    all_witnesses_count: int
    enumerated: int
    witness: object = None


class _Tally:
    """Running optimum of one scan: the best size, how many candidates reach
    it, and the smallest of them."""

    def __init__(self, maximize: bool):
        self.maximize = maximize
        self.value: int | None = None
        self.count = 0
        self.witness = None

    def offer(self, size: int, witness):
        if self.value is None or (size > self.value if self.maximize else size < self.value):
            self.value, self.count, self.witness = size, 1, witness
        elif size == self.value:
            self.count += 1
            self.witness = min(self.witness, witness)

    def offer_set(self, size: int, mask: int):
        """offer() for the vertex set ``mask``, whose member tuple is built
        only when the set ties or beats the optimum."""
        if self.value is None or (size >= self.value if self.maximize else size <= self.value):
            self.offer(size, _members(mask))

    def report(self, pid: ParameterId, enumerated: int) -> OracleReport:
        return OracleReport(pid, self.value, self.count, enumerated, self.witness)


def _matchings(G: Graph):
    """Yield (matching, key, sat) for every matching of G, the empty one
    first, depth first in edge order: bit i of ``key`` marks edge i of
    ``G.edges``, and ``sat``, the saturated-vertex mask, is preset as the
    Matching's ``sat_mask``. A branch is abandoned only once two chosen
    edges share a vertex, which is the defining filter."""
    edges = G.edges
    masks = [(1 << u) | (1 << v) for u, v in edges]
    stack: list[tuple[int, tuple[Edge, ...], int, int]] = [(0, (), 0, 0)]
    while stack:
        start, chosen, sat, key = stack.pop()
        m = object.__new__(Matching)
        object.__setattr__(m, "host", G)
        object.__setattr__(m, "edges", chosen)
        object.__setattr__(m, "sat_mask", sat)
        yield m, key, sat
        # Pushed in reverse, so the lowest extension is visited next.
        for i in range(len(edges) - 1, start - 1, -1):
            if not masks[i] & sat:
                stack.append((i + 1, chosen + (edges[i],), sat | masks[i], key | 1 << i))


def all_matchings(G: Graph):
    """Yield every matching of G as a Matching object (the empty one first),
    depth first in edge order."""
    return (m for m, _, _ in _matchings(G))


_PROPS = tuple(PropertyId)


# Callers query one graph's tags back to back, so the scans keep only a few
# recent graphs; each cached scan holds a witness per parameter.
@lru_cache(maxsize=16)
def _matching_scan(G: Graph) -> tuple[int, dict[ParameterId, _Tally]]:
    """One pass over all matchings of G: per-variant property vectors (the
    empty matching has every bit), the resulting maxima, and the minima over
    maximal-with-respect-to-P matchings. Returns the number of matchings and
    one tally per matching-valued parameter."""
    if G.m > EDGE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {EDGE_SUBSET_LIMIT}-edge enumeration cap"
        )
    edge_vmask = [(1 << u) | (1 << v) for u, v in G.edges]
    tests = [(1 << pi, predicate(prop)) for pi, prop in enumerate(_PROPS)]

    entries: list[tuple[int, Matching, int, int]] = []  # (key, matching, sat, propbits)
    vec: dict[int, int] = {0: (1 << len(_PROPS)) - 1}
    for m, key, sat in _matchings(G):
        if key:
            vec[key] = sum(bit for bit, holds in tests if holds(G, m))
        entries.append((key, m, sat, vec[key]))

    # One tally per tag; a property's slot holds its maximum's and minimum's.
    tallies = {pid: _Tally(maximize=True) for pid in PROPERTY_MAX_PARAM.values()}
    tallies |= {pid: _Tally(maximize=False) for pid in PROPERTY_MIN_PARAM.values()}
    slots = [(bit, tallies[PROPERTY_MAX_PARAM[P]], tallies[PROPERTY_MIN_PARAM[P]])
             for (bit, _), P in zip(tests, _PROPS)]
    # beta_plain maximality coincides with plain maximality by construction;
    # keep the dedicated tallies anyway so the two tags stay independent.
    beta1 = tallies[ParameterId.BETA1] = _Tally(maximize=True)
    beta1_minus = tallies[ParameterId.BETA1_MINUS] = _Tally(maximize=False)
    sep_min = tallies[ParameterId.BETA_SEP_MIN] = _Tally(maximize=False)

    for key, m, sat, bits in entries:
        size, edges = m.size, m.edges
        beta1.offer(size, edges)
        ext = 0
        maximal = True
        for j, ends in enumerate(edge_vmask):
            if not ends & sat:
                ext |= vec[key | 1 << j]
                maximal = False
        for pbit, top, bottom in slots:
            if bits & pbit:
                top.offer(size, edges)
                if size >= 1 and not ext & pbit:
                    bottom.offer(size, edges)
        if size >= 1 and maximal:  # maximal plain matching
            beta1_minus.offer(size, edges)
        if size >= 1 and is_edge_cut(G, edges):
            sep_min.offer(size, edges)
    return len(entries), tallies


# -- vertex-subset parameters -------------------------------------------------


def _members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


_VERTEX_PARAMS = (ParameterId.BETA0, ParameterId.ALPHA0, ParameterId.GAMMA)


@lru_cache(maxsize=16)
def _vertex_scan(G: Graph) -> tuple[OracleReport, ...]:
    """One pass over all 2^n vertex subsets for the three vertex-subset
    parameters. Each subset is read as its lowest vertex v plus the rest,
    a smaller subset already visited: it is independent when the rest is
    and v sees none of it, it dominates when the closed neighborhoods of
    the rest and of v cover every vertex, and its complement is a vertex
    cover exactly when it is independent."""
    if G.n > VERTEX_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.n} vertices exceed the {VERTEX_SUBSET_LIMIT}-vertex cap"
        )
    adj = G.adj_masks
    closed = G.closed_adj_masks
    full = (1 << G.n) - 1
    independent = bytearray(1 << G.n)
    independent[0] = True
    dominated = [0] * (1 << G.n)
    beta0 = _Tally(maximize=True)
    alpha0 = _Tally(maximize=False)
    gamma = _Tally(maximize=False)
    for mask in range(1 << G.n):
        if mask:
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            independent[mask] = independent[rest] and not adj[v] & rest
            dominated[mask] = dominated[rest] | closed[v]
        size = mask.bit_count()
        if independent[mask]:
            beta0.offer_set(size, mask)
            alpha0.offer_set(G.n - size, full ^ mask)
        if dominated[mask] == full:
            gamma.offer_set(size, mask)
    return tuple(
        tally.report(pid, 1 << G.n)
        for pid, tally in zip(_VERTEX_PARAMS, (beta0, alpha0, gamma))
    )


@lru_cache(maxsize=16)
def _edge_cover_scan(G: Graph) -> OracleReport:
    """Minimum edge cover by scanning edge subsets in order of size: the first
    size at which some subset covers every vertex is the minimum, and all
    covers of that size are counted."""
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise ValueError("edge cover undefined: graph has an isolated vertex")
    if G.m > COVER_SCAN_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {COVER_SCAN_LIMIT}-edge cover-scan cap"
        )
    full = (1 << G.n) - 1
    edge_masks = [(1 << u) | (1 << v) for u, v in G.edges]
    tally = _Tally(maximize=False)
    enumerated = 0
    for size in range(G.m + 1):  # size m always covers: there are no isolates
        for subset in combinations(range(G.m), size):
            enumerated += 1
            covered = 0
            for i in subset:
                covered |= edge_masks[i]
            if covered == full:
                tally.offer(size, tuple(G.edges[i] for i in subset))
        if tally.count:
            break
    return tally.report(ParameterId.ALPHA1, enumerated)


# -- mixed (total matching) parameters ------------------------------------------


@lru_cache(maxsize=16)
def _total_scan(G: Graph) -> tuple[OracleReport, OracleReport]:
    """Visit every pairwise-independent mixed set once (extend by the next
    compatible element); a set is maximal when nothing at all is compatible,
    and each maximal set is re-verified through the public predicate."""
    n, m = G.n, G.m
    if n + m > MIXED_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{n + m} elements exceed the {MIXED_SUBSET_LIMIT}-element mixed cap"
        )
    total = n + m
    # Element i < n is vertex i, element n + j is edge j; dependence encodes
    # the definition: adjacent vertices, edges sharing a vertex, incidence.
    ends = [(1 << u) | (1 << v) for u, v in G.edges]
    dependent = [
        G.adj_masks[v] | sum(1 << (n + j) for j, e in enumerate(ends) if e >> v & 1)
        for v in range(n)
    ] + [
        e | sum(1 << (n + k) for k, f in enumerate(ends) if k != j and e & f)
        for j, e in enumerate(ends)
    ]

    largest = _Tally(maximize=True)
    smallest = _Tally(maximize=False)
    enumerated = 0
    stack = [(0, 0, (1 << total) - 1)]  # (next element, selection, compatible)
    while stack:
        start, sel, avail = stack.pop()
        enumerated += 1
        if avail == 0:
            candidate = MixedSet(
                G,
                [i for i in range(n) if sel >> i & 1],
                [G.edges[j] for j in range(m) if sel >> (n + j) & 1],
            )
            if not is_maximal_total_matching(G, candidate):
                raise AssertionError("mixed-set scan disagrees with the predicate")
            witness = (tuple(sorted(candidate.vertices)), candidate.edges)
            largest.offer(candidate.size, witness)
            smallest.offer(candidate.size, witness)
            continue
        # Pushed from the highest element down, so the lowest is visited next.
        rest = avail >> start << start
        while rest:
            i = rest.bit_length() - 1
            b = 1 << i
            rest ^= b
            stack.append((i + 1, sel | b, avail & ~dependent[i] & ~b))
    return (
        largest.report(ParameterId.BETA_TOTAL_MAX, enumerated),
        smallest.report(ParameterId.BETA_TOTAL_MIN, enumerated),
    )


# -- b-matchings -----------------------------------------------------------------


def _b_matching_scan(G: Graph, b: BoundFunction) -> OracleReport:
    if G.m > EDGE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {EDGE_SUBSET_LIMIT}-edge enumeration cap"
        )
    b.validate_for(G)
    edges = G.edges
    tally = _Tally(maximize=True)
    enumerated = 0
    stack: list[tuple[int, tuple[Edge, ...], list[int]]] = [(0, (), [0] * G.n)]
    while stack:
        start, chosen, deg = stack.pop()
        enumerated += 1
        tally.offer(len(chosen), chosen)
        for i in range(len(edges) - 1, start - 1, -1):
            u, v = edges[i]
            if deg[u] + 1 > b.values[u] or deg[v] + 1 > b.values[v]:
                continue
            extended = deg.copy()
            extended[u] += 1
            extended[v] += 1
            stack.append((i + 1, chosen + (edges[i],), extended))
    return tally.report(ParameterId.B_MATCHING_MAX, enumerated)


# -- public entry points -------------------------------------------------------------


def oracle_parameter(
    G: Graph, pid: ParameterId, b: BoundFunction | None = None
) -> OracleReport:
    """Exact reference value for one parameter by exhaustive enumeration.

    Raises OracleLimitError when the universe exceeds the per-family caps,
    and ValueError for the edge cover number on a graph with isolates.
    """
    if pid in _VERTEX_PARAMS:
        return _vertex_scan(G)[_VERTEX_PARAMS.index(pid)]
    if pid is ParameterId.ALPHA1:
        return _edge_cover_scan(G)
    if pid is ParameterId.BETA_TOTAL_MAX:
        return _total_scan(G)[0]
    if pid is ParameterId.BETA_TOTAL_MIN:
        return _total_scan(G)[1]
    if pid is ParameterId.B_MATCHING_MAX:
        bound = b if b is not None else BoundFunction.uniform(G, 1)
        return _b_matching_scan(G, bound)

    enumerated, tallies = _matching_scan(G)
    if pid not in tallies:
        raise ValueError(f"no oracle route for {pid}")
    return tallies[pid].report(pid, enumerated)


def oracle_orientation_feasible(G: Graph, M, mode: str) -> bool:
    """Try all 2^|M| head/tail assignments; mode "independent" needs the tail
    set independent, mode "bipartite" needs both sides independent."""
    m = as_matching(G, M)
    if m.size > ORIENTATION_LIMIT:
        raise OracleLimitError(f"{m.size} matched edges exceed the 2^k cap")
    if mode not in ("independent", "bipartite"):
        raise ValueError("mode must be 'independent' or 'bipartite'")
    adj = G.adj_masks
    edges = m.edges

    def independent(mask: int) -> bool:
        return not any(adj[v] & mask for v in range(G.n) if mask >> v & 1)

    for bits in range(1 << m.size):
        # Bit i set makes the higher end of edge i its tail; y holds the heads.
        x = sum(1 << (v if bits >> i & 1 else u) for i, (u, v) in enumerate(edges))
        y = m.sat_mask ^ x
        if independent(x) and (mode == "independent" or independent(y)):
            return True
    return False


def oracle_perfect_matchings(H: Graph) -> tuple[int, list[tuple[Edge, ...]]]:
    """Count (and list) all perfect matchings of H by pairing the lowest
    unsaturated vertex with each available neighbor."""
    if H.n > PM_COUNT_LIMIT:
        raise OracleLimitError(f"{H.n} vertices exceed the {PM_COUNT_LIMIT}-vertex cap")
    if H.n % 2 == 1:
        return 0, []
    adj = H.adj_masks
    out: list[tuple[Edge, ...]] = []
    stack: list[tuple[int, tuple[Edge, ...]]] = [((1 << H.n) - 1, ())]
    while stack:
        free, chosen = stack.pop()
        if not free:
            out.append(chosen)  # sorted: each pair's lower end is the lowest free vertex
            continue
        u = (free & -free).bit_length() - 1
        rest = free & ~(1 << u)
        # Pushed from the highest neighbor down, so the lowest is paired next.
        nbrs = adj[u] & rest
        while nbrs:
            w = nbrs.bit_length() - 1
            nbrs ^= 1 << w
            stack.append((rest & ~(1 << w), chosen + ((u, w),)))
    return len(out), out
