"""Exact computation of every matching parameter.

Polynomial fast paths where a classical algorithm exists (blossom for the
matching number, the tree greedy for b-matchings, the block-structure
shortcut for uniquely restricted), a generic branch-and-bound engine for the
variant maxima, and pruned enumeration for the minus (minimum maximal)
parameters. Searches are deterministic: the branching order is fixed, and
among equally sized optima the lexicographically smallest witness wins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import Graph, block_decomposition, is_acyclic_graph, is_edge_cut
from .matching import (
    hall_violator,
    hopcroft_karp,
    lexmin_maximum_matching,
    max_matching_size,
)
from .properties import (
    HEREDITARY_PROPERTIES,
    BoundFunction,
    PropertyId,
    property_holds,
)

__all__ = [
    "ParameterId",
    "ParameterResult",
    "EngineConfig",
    "BudgetExceededError",
    "SetSystem",
    "SdrResult",
    "PROPERTY_MAX_PARAM",
    "PROPERTY_MIN_PARAM",
    "max_matching",
    "min_maximal_matching",
    "perfect_matching_exists",
    "compute_beta_p",
    "compute_beta_minus_p",
    "classic_parameters",
    "independence_number",
    "domination_number",
    "edge_cover_number",
    "tree_b_matching_max",
    "total_matching_bounds",
    "min_separating_matching",
    "block_class_fast_path",
    "sdr_solve",
    "compute_parameter",
]

Edge = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """A search ran past its node budget; results are never approximated."""

    def __init__(self, what: str, nodes: int):
        super().__init__(f"{what}: node budget exceeded after {nodes} nodes")
        self.what = what
        self.nodes = nodes


@dataclass
class EngineConfig:
    """Search-engine knobs. Pruning never changes results, only node counts;
    the budget (when set) aborts with BudgetExceededError instead of
    returning an approximation."""

    node_budget: int | None = None
    remaining_edge_bound: bool = True
    residual_matching_bound: bool = True
    residual_bound_min_edges: int = 10
    hereditary_pruning: bool = True


DEFAULT_CONFIG = EngineConfig()


class ParameterId(enum.Enum):
    """Closed tag set; each tag maps to one solver route and one oracle route."""

    BETA1 = "beta1"
    BETA1_MINUS = "beta1_minus"
    ALPHA0 = "alpha0"
    BETA0 = "beta0"
    ALPHA1 = "alpha1"
    GAMMA = "gamma"
    BETA_PLAIN = "beta_plain"
    BETA_PLAIN_MINUS = "beta_plain_minus"
    BETA_STAR = "beta_star"
    BETA_STAR_MINUS = "beta_star_minus"
    BETA_UR = "beta_ur"
    BETA_UR_MINUS = "beta_ur_minus"
    BETA_C = "beta_c"
    BETA_C_MINUS = "beta_c_minus"
    BETA_IF = "beta_if"
    BETA_IF_MINUS = "beta_if_minus"
    BETA_DC = "beta_dc"
    BETA_DC_MINUS = "beta_dc_minus"
    BETA_AC = "beta_ac"
    BETA_AC_MINUS = "beta_ac_minus"
    BETA_I = "beta_i"
    BETA_I_MINUS = "beta_i_minus"
    BETA_B = "beta_b"
    BETA_B_MINUS = "beta_b_minus"
    BETA_ON = "beta_on"
    BETA_ON_MINUS = "beta_on_minus"
    BETA_CN = "beta_cn"
    BETA_CN_MINUS = "beta_cn_minus"
    BETA_V_IR_MAX = "beta_v_IR"
    BETA_V_IR_MIN = "beta_v_ir"
    BETA_E_IR_MAX = "beta_e_IR"
    BETA_E_IR_MIN = "beta_e_ir"
    BETA_TOTAL_MAX = "beta_total_max"
    BETA_TOTAL_MIN = "beta_total_min"
    BETA_SEP_MIN = "beta_sep_min"
    B_MATCHING_MAX = "b_matching_max"

    @classmethod
    def from_string(cls, s: str) -> "ParameterId":
        key = s.strip()
        aliases = {"beta1minus": "beta1_minus", "beta_1": "beta1", "beta_1_minus": "beta1_minus"}
        key = aliases.get(key, key)
        for p in cls:
            if p.value == key:  # case-sensitive: beta_v_IR and beta_v_ir differ
                return p
        raise ValueError(f"unknown parameter {s!r}")

    @classmethod
    def all(cls) -> tuple["ParameterId", ...]:
        return tuple(cls)


_PROPERTY_PARAM_PAIRS = {
    PropertyId.PLAIN: (ParameterId.BETA_PLAIN, ParameterId.BETA_PLAIN_MINUS),
    PropertyId.INDUCED: (ParameterId.BETA_STAR, ParameterId.BETA_STAR_MINUS),
    PropertyId.UNIQUELY_RESTRICTED: (ParameterId.BETA_UR, ParameterId.BETA_UR_MINUS),
    PropertyId.CONNECTED: (ParameterId.BETA_C, ParameterId.BETA_C_MINUS),
    PropertyId.ISOLATE_FREE: (ParameterId.BETA_IF, ParameterId.BETA_IF_MINUS),
    PropertyId.DISCONNECTED: (ParameterId.BETA_DC, ParameterId.BETA_DC_MINUS),
    PropertyId.ACYCLIC: (ParameterId.BETA_AC, ParameterId.BETA_AC_MINUS),
    PropertyId.INDEPENDENT: (ParameterId.BETA_I, ParameterId.BETA_I_MINUS),
    PropertyId.BIPARTITE: (ParameterId.BETA_B, ParameterId.BETA_B_MINUS),
    PropertyId.ONBR: (ParameterId.BETA_ON, ParameterId.BETA_ON_MINUS),
    PropertyId.CNBR: (ParameterId.BETA_CN, ParameterId.BETA_CN_MINUS),
    PropertyId.VERTEX_IRREDUNDANT: (ParameterId.BETA_V_IR_MAX, ParameterId.BETA_V_IR_MIN),
    PropertyId.EDGE_IRREDUNDANT: (ParameterId.BETA_E_IR_MAX, ParameterId.BETA_E_IR_MIN),
}

PROPERTY_MAX_PARAM = {p: pair[0] for p, pair in _PROPERTY_PARAM_PAIRS.items()}
PROPERTY_MIN_PARAM = {p: pair[1] for p, pair in _PROPERTY_PARAM_PAIRS.items()}
PARAM_PROPERTY = {pid: p for p, pair in _PROPERTY_PARAM_PAIRS.items() for pid in pair}
MINUS_PARAMS = frozenset(PROPERTY_MIN_PARAM.values())


@dataclass(frozen=True)
class ParameterResult:
    """Value plus witness plus provenance for one parameter on one graph.

    ``value`` is None when the feasible set is empty (rendered as the token
    "undefined" downstream). The witness, when present, re-validates through
    the predicates; for maxima its size equals the value.
    """

    parameter: ParameterId
    value: int | None
    witness: object = None
    route: str = "search"
    nodes_explored: int = 0


# -- branch and bound for the variant maxima ---------------------------------


def _ordered_edges(G: Graph) -> list[Edge]:
    """Branching order: descending endpoint degree sum, ties by edge index."""
    deg = [len(a) for a in G.adj_lists]
    return sorted(G.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))


def _residual_matching_bound(G: Graph, avail: list[Edge]) -> int:
    sub = Graph(G.n, tuple(avail))
    return max_matching_size(sub)


def compute_beta_p(
    G: Graph, P: PropertyId, config: EngineConfig | None = None
) -> ParameterResult:
    """Largest matching whose induced subgraph has property P, by
    branch-and-bound over the edges.

    Hereditary variants prune a branch as soon as the partial matching loses
    P; the rest are explored fully. Two upper bounds prune by size: the count
    of still-compatible edges and (for wide nodes) the exact matching number
    of the residual graph. Ties on value resolve to the lexicographically
    smallest witness.
    """
    cfg = config or DEFAULT_CONFIG
    order = _ordered_edges(G)
    masks = [(1 << u) | (1 << v) for u, v in order]
    hereditary = cfg.hereditary_pruning and P in HEREDITARY_PROPERTIES

    best_size = 0
    best_witness: tuple[Edge, ...] = ()
    nodes = 0

    def consider(cand: tuple[Edge, ...]):
        nonlocal best_size, best_witness
        k = len(cand)
        key = tuple(sorted(cand))
        if k > best_size or (k == best_size and key < best_witness):
            best_size = k
            best_witness = key

    def rec(start: int, cur: tuple[Edge, ...], sat: int):
        nonlocal nodes
        avail = [i for i in range(start, len(order)) if not masks[i] & sat]
        if cfg.remaining_edge_bound and len(cur) + len(avail) < best_size:
            return
        if (
            cfg.residual_matching_bound
            and len(avail) >= cfg.residual_bound_min_edges
            and len(cur) + _residual_matching_bound(G, [order[i] for i in avail]) < best_size
        ):
            return
        for pos, i in enumerate(avail):
            nodes += 1
            if cfg.node_budget is not None and nodes > cfg.node_budget:
                raise BudgetExceededError(f"beta_{P.value}", nodes)
            cand = cur + (order[i],)
            ok = property_holds(G, P, tuple(sorted(cand)))
            if ok:
                consider(cand)
            elif hereditary:
                continue
            if cfg.remaining_edge_bound and len(cand) + (len(avail) - pos - 1) < best_size:
                continue
            rec(i + 1, cand, sat | masks[i])

    rec(0, (), 0)
    return ParameterResult(
        PROPERTY_MAX_PARAM[P], best_size, best_witness, "search", nodes
    )


def compute_beta_minus_p(
    G: Graph, P: PropertyId, config: EngineConfig | None = None
) -> ParameterResult:
    """Smallest nonempty matching with property P admitting no one-edge
    extension that keeps P. Value None when no nonempty P-matching exists.

    Enumeration over matchings with size pruning; extension checks are
    memoized per search since sibling candidates revisit the same extended
    matching.
    """
    cfg = config or DEFAULT_CONFIG
    order = _ordered_edges(G)
    masks = [(1 << u) | (1 << v) for u, v in order]
    all_edges = G.edges
    hereditary = cfg.hereditary_pruning and P in HEREDITARY_PROPERTIES

    best_size: int | None = None
    best_witness: tuple[Edge, ...] | None = None
    nodes = 0
    memo: dict[tuple[Edge, ...], bool] = {}

    def holds(edges_sorted: tuple[Edge, ...]) -> bool:
        got = memo.get(edges_sorted)
        if got is None:
            got = property_holds(G, P, edges_sorted)
            memo[edges_sorted] = got
        return got

    def is_max_wrt(cur_sorted: tuple[Edge, ...], sat: int) -> bool:
        for u, v in all_edges:
            if sat & ((1 << u) | (1 << v)):
                continue
            if holds(tuple(sorted(cur_sorted + ((u, v),)))):
                return False
        return True

    def consider(cand: tuple[Edge, ...], sat: int):
        nonlocal best_size, best_witness
        k = len(cand)
        if best_size is not None and k > best_size:
            return
        if not is_max_wrt(cand, sat):
            return
        if best_size is None or k < best_size or (k == best_size and cand < best_witness):
            best_size = k
            best_witness = cand

    def rec(start: int, cur: tuple[Edge, ...], sat: int):
        nonlocal nodes
        if best_size is not None and len(cur) + 1 > best_size:
            return
        for i in range(start, len(order)):
            if masks[i] & sat:
                continue
            nodes += 1
            if cfg.node_budget is not None and nodes > cfg.node_budget:
                raise BudgetExceededError(f"beta_{P.value}_minus", nodes)
            cand = tuple(sorted(cur + (order[i],)))
            ok = holds(cand)
            if not ok and hereditary:
                continue
            if ok:
                consider(cand, sat | masks[i])
            rec(i + 1, cand, sat | masks[i])

    rec(0, (), 0)
    return ParameterResult(
        PROPERTY_MIN_PARAM[P], best_size, best_witness, "search", nodes
    )


# -- classical parameters -----------------------------------------------------


def max_matching(G: Graph) -> ParameterResult:
    """Matching number via the blossom algorithm; the witness is the
    lexicographically smallest maximum matching."""
    witness = lexmin_maximum_matching(G)
    return ParameterResult(ParameterId.BETA1, len(witness), witness, "fast-path")


def min_maximal_matching(G: Graph, config: EngineConfig | None = None) -> ParameterResult:
    """Lower matching number: smallest maximal matching, by pruned
    enumeration (maximal-with-respect-to-plain is plain maximality)."""
    res = compute_beta_minus_p(G, PropertyId.PLAIN, config)
    return ParameterResult(
        ParameterId.BETA1_MINUS, res.value, res.witness, "search", res.nodes_explored
    )


def perfect_matching_exists(G: Graph) -> tuple[bool, tuple[Edge, ...] | None]:
    witness = lexmin_maximum_matching(G)
    if G.n % 2 == 0 and 2 * len(witness) == G.n:
        return True, witness
    return False, None


def independence_number(G: Graph, config: EngineConfig | None = None) -> ParameterResult:
    """Largest independent set by branch and bound on the highest-degree
    undecided vertex."""
    cfg = config or DEFAULT_CONFIG
    adj = G.adj_masks
    full = (1 << G.n) - 1
    best_size = 0
    best_set: tuple[int, ...] = ()
    nodes = 0

    def rec(avail: int, cur: tuple[int, ...]):
        nonlocal best_size, best_set, nodes
        nodes += 1
        if cfg.node_budget is not None and nodes > cfg.node_budget:
            raise BudgetExceededError("beta0", nodes)
        k = len(cur)
        if k > best_size or (k == best_size and cur < best_set):
            best_size = k
            best_set = cur
        if not avail or k + avail.bit_count() < best_size:
            return
        # Branch on the available vertex of highest residual degree
        # (ties broken toward the lowest index).
        v = max(
            (b.bit_length() - 1 for b in _mask_bits(avail)),
            key=lambda x: ((adj[x] & avail).bit_count(), -x),
        )
        rec(avail & ~adj[v] & ~(1 << v), tuple(sorted(cur + (v,))))
        rec(avail & ~(1 << v), cur)

    rec(full, ())
    return ParameterResult(ParameterId.BETA0, best_size, best_set, "search", nodes)


def _mask_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def domination_number(G: Graph, config: EngineConfig | None = None) -> ParameterResult:
    """Smallest dominating set: branch on who dominates the first undominated
    vertex."""
    cfg = config or DEFAULT_CONFIG
    closed = G.closed_adj_masks
    full = (1 << G.n) - 1
    best_size = G.n
    best_set: tuple[int, ...] = tuple(range(G.n))
    if G.n == 0:
        return ParameterResult(ParameterId.GAMMA, 0, (), "search", 0)
    nodes = 0

    def rec(dominated: int, cur: tuple[int, ...]):
        nonlocal best_size, best_set, nodes
        nodes += 1
        if cfg.node_budget is not None and nodes > cfg.node_budget:
            raise BudgetExceededError("gamma", nodes)
        if dominated == full:
            key = tuple(sorted(cur))
            if len(cur) < best_size or (len(cur) == best_size and key < best_set):
                best_size = len(cur)
                best_set = key
            return
        if len(cur) + 1 > best_size:
            return
        first = ((~dominated & full) & -(~dominated & full)).bit_length() - 1
        for b in _mask_bits(closed[first]):
            v = b.bit_length() - 1
            rec(dominated | closed[v], cur + (v,))

    rec(0, ())
    return ParameterResult(ParameterId.GAMMA, best_size, best_set, "search", nodes)


def edge_cover_number(G: Graph) -> ParameterResult:
    """Minimum edge cover built from a maximum matching by covering each
    exposed vertex with one incident edge. Defined only without isolates."""
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise ValueError("edge cover undefined: graph has an isolated vertex")
    matching = lexmin_maximum_matching(G)
    sat = 0
    for u, v in matching:
        sat |= (1 << u) | (1 << v)
    cover = list(matching)
    for v in range(G.n):
        if not (sat >> v & 1):
            w = G.adj_lists[v][0]
            cover.append(tuple(sorted((v, w))))
    witness = tuple(sorted(set(cover)))
    return ParameterResult(ParameterId.ALPHA1, len(witness), witness, "fast-path")


def _cover_from_independent(G: Graph, beta0: ParameterResult) -> ParameterResult:
    """The vertex cover number by the complement identity: the vertices
    outside a maximum independent set form a minimum vertex cover."""
    cover = tuple(sorted(set(range(G.n)) - set(beta0.witness)))
    return ParameterResult(
        ParameterId.ALPHA0, G.n - beta0.value, cover, "fast-path", beta0.nodes_explored
    )


def classic_parameters(
    G: Graph, config: EngineConfig | None = None
) -> dict[ParameterId, ParameterResult]:
    """Vertex cover, independence, edge cover, and domination numbers.

    The cover number rides on the independence search through the complement
    identity. The edge cover number exists only without isolated vertices;
    its entry is simply absent otherwise (requesting it directly raises).
    """
    out: dict[ParameterId, ParameterResult] = {}
    beta0 = independence_number(G, config)
    out[ParameterId.BETA0] = beta0
    out[ParameterId.ALPHA0] = _cover_from_independent(G, beta0)
    out[ParameterId.GAMMA] = domination_number(G, config)
    if all(G.degree(v) > 0 for v in range(G.n)):
        out[ParameterId.ALPHA1] = edge_cover_number(G)
    return out


# -- b-matchings on forests ------------------------------------------------------


def tree_b_matching_max(T: Graph, b: BoundFunction) -> ParameterResult:
    """Maximum b-matching of a forest by the leaf-to-root greedy: walk
    vertices in reverse BFS order and take the edge to the parent whenever
    both endpoints still have capacity. Linear time."""
    b.validate_for(T)
    if not is_acyclic_graph(T):
        raise ValueError("input contains a cycle; the greedy needs a forest")
    adj = T.adj_lists
    cap = list(b.values)
    parent = [-1] * T.n
    seen = [False] * T.n
    order: list[int] = []
    for root in range(T.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    queue.append(w)
    chosen: list[Edge] = []
    for v in reversed(order):
        p = parent[v]
        if p != -1 and cap[v] > 0 and cap[p] > 0:
            cap[v] -= 1
            cap[p] -= 1
            chosen.append((v, p) if v < p else (p, v))
    witness = tuple(sorted(chosen))
    return ParameterResult(
        ParameterId.B_MATCHING_MAX, len(witness), witness, "fast-path"
    )


# -- total matchings ---------------------------------------------------------------


def total_matching_bounds(
    G: Graph, config: EngineConfig | None = None
) -> tuple[ParameterResult, ParameterResult]:
    """Exact extrema of size over maximal total matchings (mixed sets of
    vertices and edges, pairwise independent, with nothing addable).

    Enumerates the maximal independent sets of the implicit total graph by
    Bron-Kerbosch with pivoting over element compatibility masks.
    """
    cfg = config or DEFAULT_CONFIG
    n, m = G.n, G.m
    total = n + m
    # Element i < n is vertex i; element n + j is edge j.
    conflict = [0] * total
    for v in range(n):
        conflict[v] = G.adj_masks[v]
    for j, (u, v) in enumerate(G.edges):
        idx = n + j
        conflict[idx] |= (1 << u) | (1 << v)
        conflict[u] |= 1 << idx
        conflict[v] |= 1 << idx
        for k, (x, y) in enumerate(G.edges):
            if k != j and ((1 << u) | (1 << v)) & ((1 << x) | (1 << y)):
                conflict[idx] |= 1 << (n + k)
    full = (1 << total) - 1
    compat = [full & ~conflict[i] & ~(1 << i) for i in range(total)]

    best: dict[str, tuple[int, tuple] | None] = {"max": None, "min": None}
    nodes = 0

    def witness_key(mask: int):
        vs = tuple(i for i in range(n) if mask >> i & 1)
        es = tuple(G.edges[j] for j in range(m) if mask >> (n + j) & 1)
        return vs, es

    def record(mask: int):
        size = mask.bit_count()
        key = witness_key(mask)
        for side, better in (("max", lambda s, b: s > b), ("min", lambda s, b: s < b)):
            cur = best[side]
            if cur is None or better(size, cur[0]) or (size == cur[0] and key < cur[1]):
                best[side] = (size, key)

    def bk(r_mask: int, p_mask: int, x_mask: int):
        nonlocal nodes
        nodes += 1
        if cfg.node_budget is not None and nodes > cfg.node_budget:
            raise BudgetExceededError("beta_total", nodes)
        if p_mask == 0 and x_mask == 0:
            record(r_mask)
            return
        pivot_pool = p_mask | x_mask
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        pivot_best = -1
        for b in _mask_bits(pivot_pool):
            u = b.bit_length() - 1
            gain = (p_mask & compat[u]).bit_count()
            if gain > pivot_best:
                pivot_best = gain
                pivot = u
        branch = p_mask & ~compat[pivot]
        for b in _mask_bits(branch):
            v = b.bit_length() - 1
            bk(r_mask | b, p_mask & compat[v], x_mask & compat[v])
            p_mask &= ~b
            x_mask |= b

    if total == 0:
        empty = ((), ())
        res_max = ParameterResult(ParameterId.BETA_TOTAL_MAX, 0, empty, "search", 0)
        res_min = ParameterResult(ParameterId.BETA_TOTAL_MIN, 0, empty, "search", 0)
        return res_max, res_min

    bk(0, full, 0)
    mx, mn = best["max"], best["min"]
    return (
        ParameterResult(ParameterId.BETA_TOTAL_MAX, mx[0], mx[1], "search", nodes),
        ParameterResult(ParameterId.BETA_TOTAL_MIN, mn[0], mn[1], "search", nodes),
    )


# -- separating matchings -------------------------------------------------------------


def min_separating_matching(
    G: Graph, config: EngineConfig | None = None
) -> ParameterResult:
    """Smallest matching whose removal increases the component count, or
    value None when no matching is an edge cut. Iterative deepening over the
    matching size; within one size, matchings stream in lexicographic order,
    so the first hit is the smallest witness."""
    cfg = config or DEFAULT_CONFIG
    edges = G.edges
    masks = [(1 << u) | (1 << v) for u, v in edges]
    beta1 = max_matching_size(G)
    nodes = 0

    def search(k: int) -> tuple[Edge, ...] | None:
        nonlocal nodes

        def rec(start: int, cur: list[Edge], sat: int):
            nonlocal nodes
            if len(cur) == k:
                nodes += 1
                if cfg.node_budget is not None and nodes > cfg.node_budget:
                    raise BudgetExceededError("beta_sep_min", nodes)
                if is_edge_cut(G, cur):
                    return tuple(cur)
                return None
            for i in range(start, len(edges)):
                if masks[i] & sat:
                    continue
                cur.append(edges[i])
                got = rec(i + 1, cur, sat | masks[i])
                if got is not None:
                    return got
                cur.pop()
            return None

        return rec(0, [], 0)

    for k in range(1, beta1 + 1):
        got = search(k)
        if got is not None:
            return ParameterResult(ParameterId.BETA_SEP_MIN, k, got, "search", nodes)
    return ParameterResult(ParameterId.BETA_SEP_MIN, None, None, "search", nodes)


# -- block-structure fast path -----------------------------------------------------------


def block_class_fast_path(G: Graph) -> ParameterResult | None:
    """When every block is a single edge or a chordless odd cycle, the graph
    has no even cycle at all, so no matching sits on an alternating cycle and
    the uniquely restricted maximum equals the matching number. Returns None
    when the structure test fails."""
    decomp = block_decomposition(G)
    if any(b.kind == "other" for b in decomp.blocks):
        return None
    witness = lexmin_maximum_matching(G)
    return ParameterResult(ParameterId.BETA_UR, len(witness), witness, "fast-path")


# -- systems of distinct representatives ---------------------------------------------------


@dataclass(frozen=True)
class SetSystem:
    """A family of subsets of a finite ground set."""

    ground: tuple
    sets: tuple[frozenset, ...]

    def __init__(self, ground, sets):
        g = tuple(ground)
        gset = set(g)
        if len(gset) != len(g):
            raise ValueError("ground set has repeated elements")
        fam = tuple(frozenset(s) for s in sets)
        for i, s in enumerate(fam):
            if not s <= gset:
                raise ValueError(f"set {i} contains elements outside the ground set")
        object.__setattr__(self, "ground", g)
        object.__setattr__(self, "sets", fam)


@dataclass(frozen=True)
class SdrResult:
    """Either one distinct representative per set, or an index set W whose
    union is smaller than |W| (the certificate that no SDR exists)."""

    representatives: tuple | None
    violator: frozenset[int] | None


def sdr_solve(system: SetSystem) -> SdrResult:
    """Distinct representatives via maximum bipartite matching on the
    family-element incidence graph; on failure the alternating-reachability
    set of an exposed family index is the violating index set."""
    ground = system.ground
    pos = {x: i for i, x in enumerate(ground)}
    adj = [sorted(pos[x] for x in s) for s in system.sets]
    size, match_l, match_r = hopcroft_karp(len(system.sets), len(ground), adj)
    if size == len(system.sets):
        reps = tuple(ground[match_l[i]] for i in range(len(system.sets)))
        return SdrResult(reps, None)
    violator = frozenset(hall_violator(len(system.sets), adj, match_l, match_r))
    return SdrResult(None, violator)


# -- dispatcher -----------------------------------------------------------------------------


def compute_parameter(
    G: Graph,
    pid: ParameterId,
    config: EngineConfig | None = None,
    b: BoundFunction | None = None,
) -> ParameterResult:
    """Route one parameter to its solver. ``b`` feeds the b-matching maximum
    and defaults to the uniform bound min(1, d(v))."""
    if pid is ParameterId.BETA1:
        return max_matching(G)
    if pid is ParameterId.BETA1_MINUS:
        return min_maximal_matching(G, config)
    if pid is ParameterId.ALPHA0:
        return _cover_from_independent(G, independence_number(G, config))
    if pid is ParameterId.BETA0:
        return independence_number(G, config)
    if pid is ParameterId.GAMMA:
        return domination_number(G, config)
    if pid is ParameterId.ALPHA1:
        return edge_cover_number(G)
    if pid in PARAM_PROPERTY:
        prop = PARAM_PROPERTY[pid]
        if pid in MINUS_PARAMS:
            return compute_beta_minus_p(G, prop, config)
        return compute_beta_p(G, prop, config)
    if pid is ParameterId.BETA_TOTAL_MAX:
        return total_matching_bounds(G, config)[0]
    if pid is ParameterId.BETA_TOTAL_MIN:
        return total_matching_bounds(G, config)[1]
    if pid is ParameterId.BETA_SEP_MIN:
        return min_separating_matching(G, config)
    if pid is ParameterId.B_MATCHING_MAX:
        bound = b if b is not None else BoundFunction.uniform(G, 1)
        return tree_b_matching_max(G, bound)
    raise ValueError(f"no solver route for {pid}")
