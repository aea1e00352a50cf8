"""Executable verification of the classical matching theorems and the
parameter identities, plus an empirical scanner for complement-sum behavior.

Every check returns a TheoremVerdict; a failing verdict always carries the
values and witnesses needed to re-check the counterexample by hand. Checks
recompute their inputs through the brute-force oracle whenever the instance
fits its limits, so a single engine bug cannot confirm itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, asdict
from itertools import combinations

from .graph import (
    Graph,
    complement,
    components,
    from_edge_mask,
    induced_subgraph,
    is_bipartite,
    is_connected,
)
from .matching import bipartite_matching_and_cover
from .oracle import (
    OracleLimitError,
    EDGE_SUBSET_LIMIT,
    all_matchings,
    oracle_parameter,
)
from .properties import PropertyId, is_matching, is_uniquely_restricted
from .solvers import (
    COLLAPSE_CLASSES,
    BudgetExceededError,
    PROPERTY_MAX_PARAM,
    PROPERTY_MIN_PARAM,
    ParameterId,
    SetSystem,
    _variant_search,
    compute_parameter,
    sdr_solve,
)

__all__ = [
    "TheoremVerdict",
    "NordhausGaddumRecord",
    "check_gallai",
    "check_konig",
    "check_frobenius",
    "check_hall",
    "check_proposition_chains",
    "check_connected_theorem",
    "check_ur_characterization",
    "check_collapse_identity",
    "nordhaus_gaddum_scan",
    "all_graphs",
    "random_graphs",
    "random_set_system",
    "random_odd_block_graph",
    "graph_id",
    "CHECK_NAMES",
]


def graph_id(G: Graph) -> str:
    """Compact deterministic identifier: vertex count plus edge hash."""
    return f"n{G.n}-m{G.m}-{hash(G.edges) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    graph_id: str
    holds: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph": self.graph_id,
            "holds": self.holds,
            "details": _jsonable(self.details),
        }


@dataclass(frozen=True)
class NordhausGaddumRecord:
    property: str
    graph_id: str
    value_graph: int | None
    value_complement: int | None
    total: int | None
    product: int | None
    witness_graph: tuple = ()
    witness_complement: tuple = ()
    error: str | None = None

    def to_json_dict(self) -> dict:
        return _jsonable(asdict(self))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(x) for x in items]
    return obj


def _solver_or_oracle_value(G: Graph, pid: ParameterId, budget: int | None = None) -> int | None:
    """Prefer the oracle (the independent route) when the instance fits."""
    try:
        return oracle_parameter(G, pid).value
    except OracleLimitError:
        return compute_parameter(G, pid, budget).value


# -- individual theorem checks -------------------------------------------------


def check_gallai(G: Graph) -> TheoremVerdict:
    """Cover/independence and edge-cover/matching identities: each pair sums
    to the vertex count. The edge identity needs an isolate-free graph and is
    checked only there."""
    alpha0 = _solver_or_oracle_value(G, ParameterId.ALPHA0)
    beta0 = _solver_or_oracle_value(G, ParameterId.BETA0)
    details: dict = {"n": G.n, "alpha0": alpha0, "beta0": beta0}
    holds = alpha0 + beta0 == G.n
    if all(G.degree(v) > 0 for v in range(G.n)):
        alpha1 = _solver_or_oracle_value(G, ParameterId.ALPHA1)
        beta1 = _solver_or_oracle_value(G, ParameterId.BETA1)
        details["alpha1"] = alpha1
        details["beta1"] = beta1
        holds &= alpha1 + beta1 == G.n
    return TheoremVerdict("gallai", graph_id(G), bool(holds), details)


def check_konig(G: Graph) -> TheoremVerdict:
    """On a bipartite graph the constructed matching/cover pair must agree in
    size with each other and with the independently computed optima."""
    if is_bipartite(G) is None:
        raise ValueError("matching/cover duality check needs a bipartite graph")
    matching, cover = bipartite_matching_and_cover(G)
    beta1 = _solver_or_oracle_value(G, ParameterId.BETA1)
    alpha0 = _solver_or_oracle_value(G, ParameterId.ALPHA0)
    covers_all = all(u in cover or v in cover for u, v in G.edges)
    holds = (
        len(matching) == len(cover) == beta1 == alpha0
        and is_matching(G, matching)
        and covers_all
    )
    details = {
        "matching_size": len(matching),
        "cover_size": len(cover),
        "beta1": beta1,
        "alpha0": alpha0,
        "matching": sorted(matching),
        "cover": sorted(cover),
    }
    return TheoremVerdict("konig", graph_id(G), bool(holds), details)


# The subset conditions are scanned over every subset: of side A in the
# marriage check up to this many members, and of an m-set system's indices.
FROBENIUS_SCAN_LIMIT = 12
HALL_SET_LIMIT = 8


def check_frobenius(G: Graph) -> TheoremVerdict:
    """Perfect-matching biconditional for a bipartite graph with parts (A, B):
    a perfect matching exists iff |A| = |B| and every subset of A has at
    least as many neighbors. The subset side is scanned exhaustively up to
    ``FROBENIUS_SCAN_LIMIT`` members of A, and through the matching
    deficiency certificate beyond that."""
    parts = is_bipartite(G)
    if parts is None:
        raise ValueError("marriage check needs a bipartite graph")
    a_side, b_side = (sorted(parts[0]), sorted(parts[1]))
    beta1 = _solver_or_oracle_value(G, ParameterId.BETA1)
    pm_exists = G.n % 2 == 0 and 2 * beta1 == G.n

    sizes_equal = len(a_side) == len(b_side)
    violating = None
    if len(a_side) <= FROBENIUS_SCAN_LIMIT:
        for r in range(1, len(a_side) + 1):
            for xs in combinations(a_side, r):
                nbrs = set()
                for v in xs:
                    nbrs |= G.neighbors(v)
                if len(nbrs) < len(xs):
                    violating = xs
                    break
            if violating:
                break
    else:
        # Deficiency route: the SDR solver's violator is the part of A that
        # some maximum matching leaves exposed.
        if beta1 < len(a_side):
            w = sdr_solve(SetSystem(b_side, [G.neighbors(a) for a in a_side])).violator
            violating = tuple(a_side[i] for i in sorted(w))

    condition = sizes_equal and violating is None
    holds = pm_exists == condition
    details = {
        "perfect_matching_exists": pm_exists,
        "part_sizes": (len(a_side), len(b_side)),
        "violating_subset": violating,
    }
    return TheoremVerdict("frobenius", graph_id(G), bool(holds), details)


def check_hall(system: SetSystem) -> TheoremVerdict:
    """SDR existence must agree with the exhaustive subset condition: every
    index set pools at least as many elements as it has members."""
    m = len(system.sets)
    if m > HALL_SET_LIMIT:
        raise ValueError(f"exhaustive side capped at {HALL_SET_LIMIT} sets")
    result = sdr_solve(system)
    condition_holds = True
    witness_subset = None
    for r in range(1, m + 1):
        for idxs in combinations(range(m), r):
            union = set()
            for i in idxs:
                union |= system.sets[i]
            if len(union) < len(idxs):
                condition_holds = False
                witness_subset = idxs
                break
        if not condition_holds:
            break
    sdr_found = result.representatives is not None
    holds = sdr_found == condition_holds
    if sdr_found:
        reps = result.representatives
        holds &= len(set(reps)) == len(reps)
        holds &= all(reps[i] in system.sets[i] for i in range(m))
    else:
        union = set()
        for i in result.violator:
            union |= system.sets[i]
        holds &= len(union) < len(result.violator)
    details = {
        "sdr": result.representatives,
        "solver_violator": sorted(result.violator) if result.violator else None,
        "scan_violator": witness_subset,
    }
    return TheoremVerdict("hall", f"sets{m}", bool(holds), details)


_CHAINS = (
    (PropertyId.INDUCED, PropertyId.ACYCLIC, PropertyId.UNIQUELY_RESTRICTED, PropertyId.PLAIN),
    (PropertyId.INDUCED, PropertyId.DISCONNECTED, PropertyId.PLAIN),
    (PropertyId.CONNECTED, PropertyId.ISOLATE_FREE, PropertyId.PLAIN),
)


def check_proposition_chains(G: Graph, budget: int | None = None) -> TheoremVerdict:
    """The three monotone chains among the variant maxima, from the induced
    matching number up to the matching number."""
    values: dict[str, int] = {}
    # In first-seen order, so a budget error names one tag under every hash seed.
    for prop in dict.fromkeys(p for chain in _CHAINS for p in chain):
        values[prop.value] = _solver_or_oracle_value(G, PROPERTY_MAX_PARAM[prop], budget)
    holds = True
    for chain in _CHAINS:
        seq = [values[p.value] for p in chain]
        holds &= all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
    return TheoremVerdict("chains", graph_id(G), bool(holds), {"values": values})


def check_connected_theorem(G: Graph, budget: int | None = None) -> TheoremVerdict:
    """The connected and isolate-free maxima by the matching numbers ν(C)
    of the components: β_c(G) is the largest ν(C), and β_if(G) is the sum of
    the ν(C) that are at least 2, or 1 when that sum is 0 and G has an edge.
    On a connected graph both equal the matching number. Past the oracle's
    cap the maxima come from ``solvers._variant_search``, called directly:
    ``solvers.ROUTES`` answers them by this identity, and no row of it
    reaches their search."""
    parts = [G] if is_connected(G) else [
        induced_subgraph(G, comp)[0] for comp in components(G) if len(comp) > 1]
    nus = [_solver_or_oracle_value(C, ParameterId.BETA1, budget) for C in parts]
    maxima = []
    for pid, P in ((ParameterId.BETA_C, PropertyId.CONNECTED),
                   (ParameterId.BETA_IF, PropertyId.ISOLATE_FREE)):
        try:
            maxima.append(oracle_parameter(G, pid).value)
        except OracleLimitError:
            maxima.append(_variant_search(G, P, False, budget).value)
    beta_c, beta_if = maxima
    paired = sum(nu for nu in nus if nu >= 2)
    holds = beta_c == max(nus, default=0) and beta_if == (paired or min(G.m, 1))
    details = {"beta_c": beta_c, "beta_if": beta_if, "beta1": sum(nus)}
    if len(nus) > 1:
        details["component_beta1"] = nus
    return TheoremVerdict("connected", graph_id(G), bool(holds), details)


def _perfect_matching_count(adj: list[int], vertices: int, memo: dict[int, int]) -> int:
    """Perfect matchings of the subgraph induced on the vertex mask, by
    pairing its lowest vertex with each neighbor inside the mask. ``memo``
    maps vertex masks of the same graph to their counts; it must map the
    empty mask to 1."""
    stack = [vertices]
    while stack:
        mask = stack[-1]
        if mask in memo:
            stack.pop()
            continue
        low = mask & -mask
        rest = mask ^ low
        nbrs = adj[low.bit_length() - 1] & rest
        smaller = []
        while nbrs:
            b = nbrs & -nbrs
            smaller.append(rest ^ b)
            nbrs ^= b
        missing = [s for s in smaller if s not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[mask] = sum(memo[s] for s in smaller)
            stack.pop()
    return memo[vertices]


def check_ur_characterization(G: Graph) -> TheoremVerdict:
    """For every matching M: the alternating-cycle test must agree with
    counting the perfect matchings of <M> (uniquely restricted means exactly
    one, namely M itself). The count runs on vertex masks, with no cap on
    the size of <M>; the matchings are enumerated up to the oracle's edge
    cap."""
    if G.m > EDGE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"{G.m} edges exceed the {EDGE_SUBSET_LIMIT}-edge enumeration cap"
        )
    checked = 0
    memo = {0: 1}  # vertex mask -> perfect matchings of the induced subgraph
    for m in all_matchings(G):
        via_cycle = is_uniquely_restricted(G, m)
        count = _perfect_matching_count(G.adj_masks, m.sat_mask, memo)
        via_count = count == 1
        checked += 1
        if via_cycle != via_count:
            return TheoremVerdict(
                "ur_characterization",
                graph_id(G),
                False,
                {
                    "matching": list(m.edges),
                    "alternating_cycle_route": via_cycle,
                    "perfect_matching_count": count,
                },
            )
    return TheoremVerdict(
        "ur_characterization", graph_id(G), True, {"matchings_checked": checked}
    )


def check_collapse_identity(G: Graph, budget: int | None = None) -> TheoremVerdict:
    """On every class of ``COLLAPSE_CLASSES`` that G belongs to, each listed
    variant must have the extrema of plain matchings: the oracle's value and
    witness for its maximum equal those for ``beta_plain``, and for its
    minimum those for ``beta1_minus``. Past the oracle's cap the search route
    ``solvers._variant_search`` answers both sides, called directly:
    ``solvers.ROUTES`` answers the variants with the collapse route itself,
    and no row of it reaches their search on a collapsing class."""
    classes = [(name, props) for name, test, props in COLLAPSE_CLASSES if test(G)]
    if not classes:
        raise ValueError("graph is in no class of the collapse table")
    if G.m <= EDGE_SUBSET_LIMIT:
        def extrema(P):
            return (oracle_parameter(G, PROPERTY_MAX_PARAM[P]),
                    oracle_parameter(G, PROPERTY_MIN_PARAM[P]))

        plain = (oracle_parameter(G, ParameterId.BETA_PLAIN),
                 oracle_parameter(G, ParameterId.BETA1_MINUS))
    else:
        def extrema(P):
            return _variant_search(G, P, False, budget), _variant_search(G, P, True, budget)

        plain = extrema(PropertyId.PLAIN)
    mismatched = {}
    for _, props in classes:
        for P in props:
            tags = PROPERTY_MAX_PARAM[P], PROPERTY_MIN_PARAM[P]
            for pid, res, ref in zip(tags, extrema(P), plain):
                if (res.value, res.witness) != (ref.value, ref.witness):
                    mismatched[pid.value] = [res.value, res.witness]
    details = {
        "classes": [name for name, _ in classes],
        "beta_plain": [plain[0].value, plain[0].witness],
        "beta1_minus": [plain[1].value, plain[1].witness],
        "mismatched": mismatched,
    }
    return TheoremVerdict("collapse", graph_id(G), not mismatched, details)


# The checks in the order ``applicable_checks`` lists them: name, then
# whether the check applies to G, then the check itself.
_CHECKS = {
    "gallai": (lambda G: True, lambda G, budget: check_gallai(G)),
    "chains": (lambda G: True, check_proposition_chains),
    "konig": (lambda G: is_bipartite(G) is not None, lambda G, budget: check_konig(G)),
    "frobenius": (lambda G: is_bipartite(G) is not None, lambda G, budget: check_frobenius(G)),
    "connected": (lambda G: G.n > 0 and is_connected(G), check_connected_theorem),
    "ur_characterization": (
        lambda G: G.m <= EDGE_SUBSET_LIMIT,
        lambda G, budget: check_ur_characterization(G),
    ),
    "collapse": (
        lambda G: any(test(G) for _, test, _ in COLLAPSE_CLASSES),
        check_collapse_identity,
    ),
}
CHECK_NAMES = tuple(_CHECKS)


def applicable_checks(G: Graph) -> list[str]:
    return [name for name, (applies, _) in _CHECKS.items() if applies(G)]


def run_check(name: str, G: Graph, budget: int | None = None) -> TheoremVerdict:
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return _CHECKS[name][1](G, budget)


# -- complement-sum scanning -------------------------------------------------------


def nordhaus_gaddum_scan(
    graphs, prop: PropertyId, budget: int | None = None
) -> tuple[list[NordhausGaddumRecord], dict]:
    """Exact variant maximum on each graph and its complement; purely
    empirical, reporting the running extrema of sum and product with the
    graphs achieving them. Budget blowups are recorded and skipped. Each
    maximum takes ``compute_parameter``'s route, as ``compute`` does."""
    pid = PROPERTY_MAX_PARAM[prop]
    records: list[NordhausGaddumRecord] = []
    summary: dict = {
        "property": prop.value,
        "count": 0,
        "skipped": 0,
        "min_sum": None,
        "max_sum": None,
        "min_product": None,
        "max_product": None,
    }
    for G in graphs:
        gid = graph_id(G)
        try:
            res_g = compute_parameter(G, pid, budget)
            res_c = compute_parameter(complement(G), pid, budget)
        except BudgetExceededError as exc:
            records.append(
                NordhausGaddumRecord(prop.value, gid, None, None, None, None, error=str(exc))
            )
            summary["skipped"] += 1
            continue
        total = res_g.value + res_c.value
        product = res_g.value * res_c.value
        rec = NordhausGaddumRecord(
            prop.value, gid, res_g.value, res_c.value, total, product,
            res_g.witness, res_c.witness,
        )
        records.append(rec)
        summary["count"] += 1
        for key, val, better in (
            ("min_sum", total, lambda a, b: a < b),
            ("max_sum", total, lambda a, b: a > b),
            ("min_product", product, lambda a, b: a < b),
            ("max_product", product, lambda a, b: a > b),
        ):
            cur = summary[key]
            if cur is None or better(val, cur[0]):
                summary[key] = (val, gid)
    return records, summary


# -- corpora -------------------------------------------------------------------------


def all_graphs(n: int):
    """Every labeled graph on n vertices, by edge mask."""
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield from_edge_mask(n, mask)


def random_graphs(
    n: int, count: int, seed: int, p_choices=(0.2, 0.35, 0.5), p: float | None = None
):
    """Seeded random graphs with densities drawn from ``p_choices``, or all
    of density ``p`` when it is given (no draw is spent on the density)."""
    rng = random.Random(seed)
    for _ in range(count):
        density = rng.choice(p_choices) if p is None else p
        mask = 0
        for i in range(n * (n - 1) // 2):
            if rng.random() < density:
                mask |= 1 << i
        yield from_edge_mask(n, mask)


def random_set_system(rng: random.Random) -> SetSystem:
    """Up to ``HALL_SET_LIMIT`` random subsets of a ground set of up to
    eight elements."""
    m = rng.randint(1, HALL_SET_LIMIT)
    ground = list(range(1, rng.randint(1, 8) + 1))
    sets = []
    for _ in range(m):
        k = rng.randint(0, len(ground))
        sets.append(rng.sample(ground, k))
    return SetSystem(tuple(ground), tuple(sets))


def random_odd_block_graph(rng: random.Random, pieces: int) -> Graph:
    """A connected graph whose blocks are single edges and chordless odd
    cycles: start from one vertex and repeatedly glue a pendant edge or an
    odd cycle onto a random existing vertex."""
    edges: list[tuple[int, int]] = []
    n = 1
    for _ in range(pieces):
        attach = rng.randrange(n)
        if rng.random() < 0.5:
            edges.append((attach, n))
            n += 1
        else:
            length = rng.choice((3, 5, 7))
            cycle = [attach] + [n + i for i in range(length - 1)]
            n += length - 1
            for i in range(length):
                u, v = cycle[i], cycle[(i + 1) % length]
                edges.append((min(u, v), max(u, v)))
    return Graph(n, tuple(edges))
