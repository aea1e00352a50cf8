"""Brute-force reference values for every parameter.

Deliberately naive: candidate sets are enumerated exhaustively and filtered
through the public predicates, with no shortcut beyond abandoning a partial
set that already violates the defining filter (a shared vertex for
matchings, an exceeded bound for b-matchings, a dependent pair for total
matchings). No code is shared with the solver engine beyond the graph type
and the predicates themselves, so an engine bug cannot mirror itself here.
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
    has_property,
    is_maximal_total_matching,
)
from .solvers import (
    PARAM_PROPERTY,
    MINUS_PARAMS,
    ParameterId,
)

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
    witnesses exist, and how many candidate sets the scan evaluated."""

    parameter: ParameterId
    value: int | None
    all_witnesses_count: int
    enumerated: int


def all_matchings(G: Graph):
    """Yield every matching of G as a Matching object (the empty one first).
    Recursion only ever abandons a branch once two chosen edges share a
    vertex, which is the defining filter."""
    edges = G.edges
    masks = [(1 << u) | (1 << v) for u, v in edges]

    def rec(start: int, chosen: tuple[Edge, ...], sat: int):
        m = object.__new__(Matching)
        object.__setattr__(m, "host", G)
        object.__setattr__(m, "edges", chosen)
        yield m
        for i in range(start, len(edges)):
            if masks[i] & sat:
                continue
            yield from rec(i + 1, chosen + (edges[i],), sat | masks[i])

    yield from rec(0, (), 0)


_PROPS = tuple(PropertyId)


@dataclass(frozen=True)
class _MatchingScan:
    enumerated: int
    beta: dict
    beta_counts: dict
    beta_minus: dict
    beta_minus_counts: dict
    beta1: int
    beta1_count: int
    beta1_minus: int | None
    beta1_minus_count: int
    sep_min: int | None
    sep_count: int


@lru_cache(maxsize=256)
def _matching_scan(G: Graph) -> _MatchingScan:
    """One pass over all matchings of G: per-variant property vectors, the
    resulting maxima, and the minima over maximal-with-respect-to-P
    matchings. Property results are collected per matching so the
    maximality test can reread them instead of recomputing."""
    if G.m > EDGE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {EDGE_SUBSET_LIMIT}-edge enumeration cap"
        )
    edge_pos = {e: i for i, e in enumerate(G.edges)}
    edge_vmask = [(1 << u) | (1 << v) for u, v in G.edges]

    entries: list[tuple[int, Matching, int]] = []  # (edge-index mask, matching, propbits)
    vec: dict[int, int] = {}
    enumerated = 0
    for m in all_matchings(G):
        enumerated += 1
        key = 0
        for e in m.edges:
            key |= 1 << edge_pos[e]
        bits = 0
        for pi, prop in enumerate(_PROPS):
            if has_property(G, m, prop):
                bits |= 1 << pi
        vec[key] = bits
        entries.append((key, m, bits))

    beta = {p: 0 for p in _PROPS}
    beta_counts = {p: 0 for p in _PROPS}
    beta_minus: dict[PropertyId, int | None] = {p: None for p in _PROPS}
    beta_minus_counts = {p: 0 for p in _PROPS}
    beta1 = 0
    beta1_count = 0
    beta1_minus: int | None = None
    beta1_minus_count = 0
    sep_min: int | None = None
    sep_count = 0

    for key, m, bits in entries:
        size = m.size
        if size > beta1:
            beta1, beta1_count = size, 1
        elif size == beta1:
            beta1_count += 1
        compat = [
            j for j in range(G.m) if not (edge_vmask[j] & m.sat_mask)
        ]
        for pi, prop in enumerate(_PROPS):
            pbit = 1 << pi
            if not bits & pbit:
                continue
            if size > beta[prop]:
                beta[prop], beta_counts[prop] = size, 1
            elif size == beta[prop]:
                beta_counts[prop] += 1
            if size >= 1 and all(not vec[key | (1 << j)] & pbit for j in compat):
                cur = beta_minus[prop]
                if cur is None or size < cur:
                    beta_minus[prop], beta_minus_counts[prop] = size, 1
                elif size == cur:
                    beta_minus_counts[prop] += 1
        if size >= 1 and not compat:  # maximal plain matching
            if beta1_minus is None or size < beta1_minus:
                beta1_minus, beta1_minus_count = size, 1
            elif size == beta1_minus:
                beta1_minus_count += 1
        if size >= 1 and is_edge_cut(G, m.edges):
            if sep_min is None or size < sep_min:
                sep_min, sep_count = size, 1
            elif size == sep_min:
                sep_count += 1

    # beta_plain maximality coincides with plain maximality by construction;
    # keep the dedicated counters anyway so the two tags stay independent.
    return _MatchingScan(
        enumerated,
        beta,
        beta_counts,
        beta_minus,
        beta_minus_counts,
        beta1,
        beta1_count,
        beta1_minus,
        beta1_minus_count,
        sep_min,
        sep_count,
    )


# -- vertex-subset parameters -------------------------------------------------


def _vertex_scan(G: Graph, pid: ParameterId) -> OracleReport:
    if G.n > VERTEX_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.n} vertices exceed the {VERTEX_SUBSET_LIMIT}-vertex cap"
        )
    adj = G.adj_masks
    closed = G.closed_adj_masks
    full = (1 << G.n) - 1
    edge_masks = [(1 << u) | (1 << v) for u, v in G.edges]

    best: int | None = None
    count = 0
    maximize = pid is ParameterId.BETA0
    for mask in range(1 << G.n):
        if pid is ParameterId.BETA0:
            ok = all(not (adj[v] & mask) for v in range(G.n) if mask >> v & 1)
        elif pid is ParameterId.ALPHA0:
            ok = all(em & mask for em in edge_masks)
        elif pid is ParameterId.GAMMA:
            dom = 0
            m = mask
            while m:
                b = m & -m
                dom |= closed[b.bit_length() - 1]
                m ^= b
            ok = dom == full
        else:
            raise ValueError(f"{pid} is not a vertex-subset parameter")
        if not ok:
            continue
        size = mask.bit_count()
        if best is None or (size > best if maximize else size < best):
            best, count = size, 1
        elif size == best:
            count += 1
    return OracleReport(pid, best, count, 1 << G.n)


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
    enumerated = 0
    for size in range(G.m + 1):  # size m always covers: there are no isolates
        count = 0
        for subset in combinations(edge_masks, size):
            enumerated += 1
            covered = 0
            for em in subset:
                covered |= em
            if covered == full:
                count += 1
        if count:
            break
    return OracleReport(ParameterId.ALPHA1, size, count, enumerated)


# -- mixed (total matching) parameters ------------------------------------------


@lru_cache(maxsize=256)
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
    dependent = [0] * total
    for v in range(n):
        dependent[v] = G.adj_masks[v]
    for j, (u, v) in enumerate(G.edges):
        idx = n + j
        dependent[idx] |= (1 << u) | (1 << v)
        dependent[u] |= 1 << idx
        dependent[v] |= 1 << idx
        for k in range(j + 1, m):
            x, y = G.edges[k]
            if ((1 << u) | (1 << v)) & ((1 << x) | (1 << y)):
                dependent[idx] |= 1 << (n + k)
                dependent[n + k] |= 1 << idx

    full = (1 << total) - 1
    best_max: int | None = None
    cnt_max = 0
    best_min: int | None = None
    cnt_min = 0
    enumerated = 0

    def as_mixed(sel: int) -> MixedSet:
        verts = [i for i in range(n) if sel >> i & 1]
        edges = [G.edges[j] for j in range(m) if sel >> (n + j) & 1]
        return MixedSet(G, verts, edges)

    def rec(start: int, sel: int, avail: int):
        nonlocal enumerated, best_max, cnt_max, best_min, cnt_min
        enumerated += 1
        if avail == 0:
            candidate = as_mixed(sel)
            if not is_maximal_total_matching(G, candidate):
                raise AssertionError("mixed-set scan disagrees with the predicate")
            size = candidate.size
            if best_max is None or size > best_max:
                best_max, cnt_max = size, 1
            elif size == best_max:
                cnt_max += 1
            if best_min is None or size < best_min:
                best_min, cnt_min = size, 1
            elif size == best_min:
                cnt_min += 1
            return
        rest = avail >> start << start
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            rec(i + 1, sel | b, avail & ~dependent[i] & ~b)

    if total == 0:
        return (
            OracleReport(ParameterId.BETA_TOTAL_MAX, 0, 1, 1),
            OracleReport(ParameterId.BETA_TOTAL_MIN, 0, 1, 1),
        )
    rec(0, 0, full)
    return (
        OracleReport(ParameterId.BETA_TOTAL_MAX, best_max, cnt_max, enumerated),
        OracleReport(ParameterId.BETA_TOTAL_MIN, best_min, cnt_min, enumerated),
    )


# -- b-matchings -----------------------------------------------------------------


def _b_matching_scan(G: Graph, b: BoundFunction) -> OracleReport:
    if G.m > EDGE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {EDGE_SUBSET_LIMIT}-edge enumeration cap"
        )
    b.validate_for(G)
    edges = G.edges
    best = 0
    count = 1  # the empty set
    enumerated = 0

    def rec(start: int, size: int, deg: list[int]):
        nonlocal best, count, enumerated
        enumerated += 1
        if size > best:
            best, count = size, 1
        elif size == best and size > 0:
            count += 1
        for i in range(start, len(edges)):
            u, v = edges[i]
            if deg[u] + 1 > b.values[u] or deg[v] + 1 > b.values[v]:
                continue
            deg[u] += 1
            deg[v] += 1
            rec(i + 1, size + 1, deg)
            deg[u] -= 1
            deg[v] -= 1

    rec(0, 0, [0] * G.n)
    if best == 0:
        count = 1
    return OracleReport(ParameterId.B_MATCHING_MAX, best, count, enumerated)


# -- public entry points -------------------------------------------------------------


def oracle_parameter(
    G: Graph, pid: ParameterId, b: BoundFunction | None = None
) -> OracleReport:
    """Exact reference value for one parameter by exhaustive enumeration.

    Raises OracleLimitError when the universe exceeds the per-family caps,
    and ValueError for the edge cover number on a graph with isolates.
    """
    if pid in (ParameterId.ALPHA0, ParameterId.BETA0, ParameterId.GAMMA):
        return _vertex_scan(G, pid)
    if pid is ParameterId.ALPHA1:
        return _edge_cover_scan(G)
    if pid is ParameterId.BETA_TOTAL_MAX:
        return _total_scan(G)[0]
    if pid is ParameterId.BETA_TOTAL_MIN:
        return _total_scan(G)[1]
    if pid is ParameterId.B_MATCHING_MAX:
        bound = b if b is not None else BoundFunction.uniform(G, 1)
        return _b_matching_scan(G, bound)

    scan = _matching_scan(G)
    if pid is ParameterId.BETA1:
        return OracleReport(pid, scan.beta1, scan.beta1_count, scan.enumerated)
    if pid is ParameterId.BETA1_MINUS:
        return OracleReport(pid, scan.beta1_minus, scan.beta1_minus_count, scan.enumerated)
    if pid is ParameterId.BETA_SEP_MIN:
        return OracleReport(pid, scan.sep_min, scan.sep_count, scan.enumerated)
    if pid in PARAM_PROPERTY:
        prop = PARAM_PROPERTY[pid]
        if pid in MINUS_PARAMS:
            return OracleReport(
                pid, scan.beta_minus[prop], scan.beta_minus_counts[prop], scan.enumerated
            )
        return OracleReport(pid, scan.beta[prop], scan.beta_counts[prop], scan.enumerated)
    raise ValueError(f"no oracle route for {pid}")


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
        rest = mask
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            if adj[v] & mask:
                return False
            rest ^= b
        return True

    for bits in range(1 << m.size):
        x = 0
        y = 0
        for i, (u, v) in enumerate(edges):
            if bits >> i & 1:
                x |= 1 << v
                y |= 1 << u
            else:
                x |= 1 << u
                y |= 1 << v
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
    full = (1 << H.n) - 1
    out: list[tuple[Edge, ...]] = []

    def rec(free: int, chosen: list[Edge]):
        if not free:
            out.append(tuple(sorted(chosen)))
            return
        u = (free & -free).bit_length() - 1
        for b in _bits(adj[u] & free & ~(1 << u)):
            chosen.append((u, b) if u < b else (b, u))
            rec(free & ~(1 << u) & ~(1 << b), chosen)
            chosen.pop()

    def _bits(mask: int):
        while mask:
            b = mask & -mask
            yield b.bit_length() - 1
            mask ^= b

    rec(full, [])
    return len(out), out
