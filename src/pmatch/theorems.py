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

from .graph import Graph, complement, from_edge_mask, is_bipartite, is_connected
from .matching import bipartite_matching_and_cover
from .oracle import (
    OracleLimitError,
    EDGE_SUBSET_LIMIT,
    all_matchings,
    oracle_parameter,
    oracle_perfect_matchings,
)
from .properties import PropertyId, is_matching, is_uniquely_restricted
from .solvers import (
    BudgetExceededError,
    EngineConfig,
    PROPERTY_MAX_PARAM,
    ParameterId,
    SetSystem,
    block_class_fast_path,
    compute_beta_p,
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
    "check_block_class_identity",
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


def _solver_or_oracle_value(G: Graph, pid: ParameterId, config=None) -> int | None:
    """Prefer the oracle (the independent route) when the instance fits."""
    try:
        return oracle_parameter(G, pid).value
    except OracleLimitError:
        return compute_parameter(G, pid, config).value


# -- individual theorem checks -------------------------------------------------


def check_gallai(G: Graph, identity: str = "auto") -> TheoremVerdict:
    """Cover/independence and edge-cover/matching identities: each pair sums
    to the vertex count. The edge identity needs an isolate-free graph;
    ``identity`` picks "i", "ii", "both", or "auto" (ii only when legal)."""
    if identity not in ("auto", "i", "ii", "both"):
        raise ValueError("identity must be one of auto, i, ii, both")
    has_isolates = any(G.degree(v) == 0 for v in range(G.n))
    if identity in ("ii", "both") and has_isolates:
        raise ValueError("edge identity requested on a graph with isolates")
    details: dict = {"n": G.n}
    holds = True
    if identity != "ii":
        alpha0 = _solver_or_oracle_value(G, ParameterId.ALPHA0)
        beta0 = _solver_or_oracle_value(G, ParameterId.BETA0)
        details["alpha0"] = alpha0
        details["beta0"] = beta0
        holds &= alpha0 + beta0 == G.n
    if identity in ("ii", "both") or (identity == "auto" and not has_isolates):
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


def check_frobenius(G: Graph, exhaustive_limit: int = 12) -> TheoremVerdict:
    """Perfect-matching biconditional for a bipartite graph with parts (A, B):
    a perfect matching exists iff |A| = |B| and every subset of A has at
    least as many neighbors. The subset side is scanned exhaustively up to
    ``exhaustive_limit`` members of A, and through the matching deficiency
    certificate beyond that."""
    parts = is_bipartite(G)
    if parts is None:
        raise ValueError("marriage check needs a bipartite graph")
    a_side, b_side = (sorted(parts[0]), sorted(parts[1]))
    beta1 = _solver_or_oracle_value(G, ParameterId.BETA1)
    pm_exists = G.n % 2 == 0 and 2 * beta1 == G.n

    sizes_equal = len(a_side) == len(b_side)
    violating = None
    if len(a_side) <= exhaustive_limit:
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
        # Deficiency route: a maximum matching exposing part of A yields the
        # violating subset by alternating reachability, as in the SDR solver.
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


def check_hall(system: SetSystem, exhaustive_limit: int = 12) -> TheoremVerdict:
    """SDR existence must agree with the exhaustive subset condition: every
    index set pools at least as many elements as it has members."""
    m = len(system.sets)
    if m > exhaustive_limit:
        raise ValueError(f"exhaustive side capped at {exhaustive_limit} sets")
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


def check_proposition_chains(G: Graph, config: EngineConfig | None = None) -> TheoremVerdict:
    """The three monotone chains among the variant maxima, from the induced
    matching number up to the matching number."""
    values: dict[str, int] = {}
    needed = {p for chain in _CHAINS for p in chain}
    for prop in needed:
        values[prop.value] = _solver_or_oracle_value(
            G, PROPERTY_MAX_PARAM[prop], config
        )
    holds = True
    for chain in _CHAINS:
        seq = [values[p.value] for p in chain]
        holds &= all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
    return TheoremVerdict("chains", graph_id(G), bool(holds), {"values": values})


def check_connected_theorem(G: Graph, config: EngineConfig | None = None) -> TheoremVerdict:
    """On a connected graph the connected and isolate-free maxima both equal
    the matching number."""
    if not is_connected(G):
        raise ValueError("connected-graph identity needs a connected graph")
    beta1 = _solver_or_oracle_value(G, ParameterId.BETA1, config)
    beta_c = _solver_or_oracle_value(G, ParameterId.BETA_C, config)
    beta_if = _solver_or_oracle_value(G, ParameterId.BETA_IF, config)
    holds = beta_c == beta_if == beta1
    return TheoremVerdict(
        "connected",
        graph_id(G),
        bool(holds),
        {"beta_c": beta_c, "beta_if": beta_if, "beta1": beta1},
    )


def check_ur_characterization(G: Graph) -> TheoremVerdict:
    """For every matching M: the alternating-cycle test must agree with
    counting the perfect matchings of <M> (uniquely restricted means exactly
    one, namely M itself)."""
    from .graph import induced_subgraph

    checked = 0
    for m in all_matchings(G):
        via_cycle = is_uniquely_restricted(G, m)
        sub, mapping = induced_subgraph(G, m.saturated)
        count, _ = oracle_perfect_matchings(sub)
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


def check_block_class_identity(G: Graph, config: EngineConfig | None = None) -> TheoremVerdict:
    """Where every block is an edge or a chordless odd cycle, the uniquely
    restricted maximum must equal the matching number (fast path versus the
    full search or oracle)."""
    fast = block_class_fast_path(G)
    if fast is None:
        raise ValueError("graph has a block that is neither an edge nor an odd cycle")
    beta_ur = _solver_or_oracle_value(G, ParameterId.BETA_UR, config)
    beta1 = _solver_or_oracle_value(G, ParameterId.BETA1, config)
    holds = fast.value == beta_ur == beta1
    return TheoremVerdict(
        "block_class",
        graph_id(G),
        bool(holds),
        {"fast_path": fast.value, "beta_ur": beta_ur, "beta1": beta1},
    )


CHECK_NAMES = (
    "gallai",
    "konig",
    "frobenius",
    "chains",
    "connected",
    "ur_characterization",
    "block_class",
)


def applicable_checks(G: Graph) -> list[str]:
    out = ["gallai", "chains"]
    if is_bipartite(G) is not None:
        out += ["konig", "frobenius"]
    if is_connected(G) and G.n > 0:
        out.append("connected")
    if G.m <= EDGE_SUBSET_LIMIT:
        out.append("ur_characterization")
    if block_class_fast_path(G) is not None:
        out.append("block_class")
    return out


def run_check(name: str, G: Graph, config: EngineConfig | None = None) -> TheoremVerdict:
    if name == "gallai":
        return check_gallai(G)
    if name == "konig":
        return check_konig(G)
    if name == "frobenius":
        return check_frobenius(G)
    if name == "chains":
        return check_proposition_chains(G, config)
    if name == "connected":
        return check_connected_theorem(G, config)
    if name == "ur_characterization":
        return check_ur_characterization(G)
    if name == "block_class":
        return check_block_class_identity(G, config)
    raise ValueError(f"unknown check {name!r}")


# -- complement-sum scanning -------------------------------------------------------


def nordhaus_gaddum_scan(
    graphs,
    prop: PropertyId,
    config: EngineConfig | None = None,
) -> tuple[list[NordhausGaddumRecord], dict]:
    """Exact variant maximum on each graph and its complement; purely
    empirical, reporting the running extrema of sum and product with the
    graphs achieving them. Budget blowups are recorded and skipped."""
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
            res_g = compute_beta_p(G, prop, config)
            res_c = compute_beta_p(complement(G), prop, config)
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


def random_graphs(n: int, count: int, seed: int, p_choices=(0.2, 0.35, 0.5)):
    """Seeded random graphs with densities drawn from ``p_choices``."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice(p_choices)
        mask = 0
        for i in range(n * (n - 1) // 2):
            if rng.random() < p:
                mask |= 1 << i
        yield from_edge_mask(n, mask)


def random_set_system(rng: random.Random, max_sets: int = 8, max_ground: int = 8) -> SetSystem:
    m = rng.randint(1, max_sets)
    ground = list(range(1, rng.randint(1, max_ground) + 1))
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
