"""Command-line surface: parameter tables, matching verification, theorem
runs, and complement-sum scans, all with machine-readable output.

Exit codes: 0 success, 1 verification failure or counterexample or a
per-parameter error, 2 usage error, 3 node budget exceeded. Output is
deterministic for fixed inputs and seeds; timings are only attached under
--timing since they vary run to run. Computation is single-threaded:
``compute --threads N`` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .graph import FIGURE_MATCHINGS, Graph, generate, parse_graph
from .properties import (
    BoundFunction,
    Matching,
    MixedSet,
    PropertyId,
    cnbr_violation,
    find_alternating_cycle,
    find_bipartite_orientation,
    find_independent_orientation,
    has_property,
    is_maximal_matching,
    is_maximal_p_matching,
    is_maximal_total_matching,
    is_perfect_matching,
    is_separating_matching,
    matching_violation,
    onbr_violation,
    total_violation,
)
from .oracle import oracle_parameter
from .solvers import (
    BudgetExceededError,
    EngineConfig,
    ParameterId,
    compute_parameter,
)
from .theorems import (
    CHECK_NAMES,
    all_graphs,
    applicable_checks,
    check_hall,
    check_block_class_identity,
    graph_id,
    nordhaus_gaddum_scan,
    random_graphs,
    random_odd_block_graph,
    random_set_system,
    run_check,
)

VERTEX_WITNESS_PARAMS = {ParameterId.ALPHA0, ParameterId.BETA0, ParameterId.GAMMA}
MIXED_WITNESS_PARAMS = {ParameterId.BETA_TOTAL_MAX, ParameterId.BETA_TOTAL_MIN}


# -- input plumbing -----------------------------------------------------------


def _add_graph_args(p: argparse.ArgumentParser, multiple: bool = False):
    if multiple:
        p.add_argument("--input", action="append", default=[], metavar="FILE",
                       help="edge-list or DIMACS file (repeatable)")
    else:
        p.add_argument("--input", metavar="FILE", help="edge-list or DIMACS file")
    p.add_argument("--family", help="named family: path, cycle, complete, "
                   "complete_bipartite, hypercube, gnp, random_tree, fig2l, fig2r, fig3, fig4")
    p.add_argument("--n", type=int, help="size parameter for --family")
    p.add_argument("--a", type=int, help="first part size (complete_bipartite)")
    p.add_argument("--b-part", type=int, dest="b_part", help="second part size (complete_bipartite)")
    p.add_argument("--p", type=float, help="edge probability (gnp)")
    p.add_argument("--seed", type=int, default=0, help="seed for random families")


def _build_graphs(args, multiple: bool = False) -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    inputs = args.input if multiple else ([args.input] if args.input else [])
    for path in inputs:
        text = Path(path).read_text()
        out.append((Path(path).name, parse_graph(text)))
    if args.family:
        G = generate(args.family, n=args.n, a=args.a, b=args.b_part,
                     p=args.p, seed=args.seed)
        desc = args.family
        if args.n is not None:
            desc += f"(n={args.n})"
        elif args.a is not None:
            desc += f"(a={args.a},b={args.b_part})"
        out.append((desc, G))
    if not out:
        raise UsageError("no graph given: use --input or --family")
    return out


class UsageError(ValueError):
    pass


def _parse_edges(spec: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for tok in spec.replace(";", ",").split(","):
        tok = tok.strip().replace("-", " ")
        if not tok:
            continue
        parts = tok.split()
        if len(parts) != 2:
            raise UsageError(f"bad edge token {tok!r}: expected 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    return tuple(edges)


def _parse_vertices(spec: str) -> tuple[int, ...]:
    return tuple(int(t) for t in spec.replace(";", ",").split(",") if t.strip())


def _parse_bounds(spec: str, G: Graph) -> BoundFunction:
    spec = spec.strip()
    if ":" not in spec:
        return BoundFunction.uniform(G, int(spec))
    values = [0] * G.n
    for tok in spec.split(","):
        v, k = tok.split(":")
        vertex = int(v)
        if not 0 <= vertex < G.n:
            raise UsageError(f"bound for vertex {vertex} outside 0..{G.n - 1}")
        values[vertex] = int(k)
    return BoundFunction(tuple(values))


def _parse_params(spec: str) -> list[ParameterId]:
    if spec.strip().lower() == "all":
        return list(ParameterId.all())
    return [ParameterId.from_string(t.strip()) for t in spec.split(",") if t.strip()]


# -- witness rendering ---------------------------------------------------------


def _edge_json(G: Graph, edges) -> list:
    return [[int(u), int(v)] for u, v in sorted(edges)]


def _witness_json(G: Graph, pid: ParameterId, witness):
    if witness is None:
        return None
    if pid in VERTEX_WITNESS_PARAMS:
        out = {"vertices": [int(v) for v in sorted(witness)]}
    elif pid in MIXED_WITNESS_PARAMS:
        vs, es = witness
        out = {"vertices": [int(v) for v in sorted(vs)], "edges": _edge_json(G, es)}
    else:
        out = {"edges": _edge_json(G, witness)}
    if G.labels is not None:
        if "edges" in out:
            out["edge_labels"] = [[G.label(u), G.label(v)] for u, v in out["edges"]]
        if "vertices" in out:
            out["vertex_labels"] = [G.label(v) for v in out["vertices"]]
    return out


# -- compute -------------------------------------------------------------------


def _compute_one(
    G: Graph, pid: ParameterId, config: EngineConfig, bounds
) -> tuple[dict, float]:
    """One table entry and the milliseconds it took, failures included."""
    started = time.perf_counter()
    try:
        res = compute_parameter(G, pid, config, b=bounds)
        entry = {
            "value": res.value if res.value is not None else "undefined",
            "witness": _witness_json(G, pid, res.witness),
            "route": res.route,
            "nodes": res.nodes_explored,
        }
    except BudgetExceededError as exc:
        entry = {"error": str(exc), "budget_exceeded": True}
    except ValueError as exc:
        entry = {"error": str(exc)}
    return entry, (time.perf_counter() - started) * 1000.0


def cmd_compute(args) -> int:
    graphs = _build_graphs(args, multiple=True)
    params = _parse_params(args.params)
    config = EngineConfig(node_budget=args.budget)
    exit_code = 0

    tables: list[dict] = []
    for label, G in graphs:
        bounds = _parse_bounds(args.b_bounds, G) if args.b_bounds else None
        table = {"graph": label, "id": graph_id(G), "n": G.n, "m": G.m, "params": {}}
        for pid in params:
            entry, ms = _compute_one(G, pid, config, bounds)
            if args.timing:
                entry["ms"] = round(ms, 3)
            if "error" in entry:
                exit_code = 3 if entry.get("budget_exceeded") else max(exit_code, 1)
            table["params"][pid.value] = entry
        tables.append(table)
    for table in tables:
        if args.format == "json":
            print(json.dumps(table, sort_keys=True, separators=(",", ":")))
        else:
            for pid in params:
                entry = table["params"][pid.value]
                if "error" in entry:
                    row = [table["graph"], pid.value, "error", entry["error"], "-", "-"]
                else:
                    witness = entry["witness"]
                    row = [
                        table["graph"],
                        pid.value,
                        str(entry["value"]),
                        _witness_tsv_from_json(pid, witness),
                        entry["route"],
                        str(entry["nodes"]),
                    ]
                print("\t".join(row))
    return exit_code


def _witness_tsv_from_json(pid: ParameterId, witness) -> str:
    if witness is None:
        return "-"
    parts = []
    if "vertices" in witness:
        parts.append(",".join(str(v) for v in witness["vertices"]) or "-")
    if "edges" in witness:
        parts.append(",".join(f"{u}-{v}" for u, v in witness["edges"]) or "-")
    return ";".join(parts) if parts else "-"


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    graphs = _build_graphs(args)
    label, G = graphs[0]
    prop_name = args.property.strip().lower().replace("-", "_")

    if args.matching is None:
        raise UsageError("--matching is required")
    if args.matching.strip().lower() == "drawn":
        fam = (args.family or "").lower()
        if fam not in FIGURE_MATCHINGS:
            raise UsageError("--matching drawn only applies to fig2l/fig2r/fig3/fig4")
        edges = FIGURE_MATCHINGS[fam]
    else:
        edges = _parse_edges(args.matching)
    vertices = _parse_vertices(args.vertices) if args.vertices else ()

    result: dict = {"graph": label, "property": prop_name}
    holds: bool
    certificate = None

    if prop_name in ("total", "maximal_total"):
        T = MixedSet(G, vertices, edges)
        if prop_name == "total":
            violation = total_violation(G, T)
            holds = violation is None
            certificate = {"violating_pair": violation} if violation else None
        else:
            holds = is_maximal_total_matching(G, T)
    elif prop_name == "matching":
        violation = matching_violation(G, edges)
        holds = violation is None
        certificate = {"violating_vertex": violation} if violation is not None else None
    else:
        m = Matching(G, edges)
        if prop_name == "maximal":
            holds = is_maximal_matching(G, m)
        elif prop_name == "perfect":
            holds = is_perfect_matching(G, m)
        elif prop_name == "separating":
            holds = is_separating_matching(G, m)
        elif prop_name.startswith("maximal_"):
            P = PropertyId.from_string(prop_name[len("maximal_"):])
            holds = is_maximal_p_matching(G, m, P)
        else:
            P = PropertyId.from_string(prop_name)
            holds = has_property(G, m, P)
            certificate = _property_certificate(G, m, P)

    result["holds"] = bool(holds)
    if certificate is not None:
        result["certificate"] = certificate
    print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    return 0 if holds else 1


def _property_certificate(G: Graph, m: Matching, P: PropertyId):
    if P is PropertyId.UNIQUELY_RESTRICTED:
        cycle = find_alternating_cycle(G, m)
        return {"alternating_cycle": cycle} if cycle else None
    if P is PropertyId.INDEPENDENT:
        o = find_independent_orientation(G, m)
        return {"orientation": list(o.as_strings(G))} if o else None
    if P is PropertyId.BIPARTITE:
        o = find_bipartite_orientation(G, m)
        return {"orientation": list(o.as_strings(G))} if o else None
    if P is PropertyId.CNBR:
        pair = cnbr_violation(G, m)
        return {"cnbr_adjacent_pair": [list(pair[0]), list(pair[1])]} if pair else None
    if P is PropertyId.ONBR:
        pair = onbr_violation(G, m)
        return {"onbr_adjacent_pair": [list(pair[0]), list(pair[1])]} if pair else None
    return None


# -- theorems ---------------------------------------------------------------------


def _corpus(args) -> list[tuple[str, Graph]]:
    out = []
    if args.all_n is not None:
        for G in all_graphs(args.all_n):
            out.append((graph_id(G), G))
    if args.random:
        if args.n is None:
            raise UsageError("--random needs --n")
        gen = (
            random_graphs(args.n, args.random, args.seed)
            if args.p is None
            else _random_fixed_p(args.n, args.random, args.p, args.seed)
        )
        for G in gen:
            out.append((graph_id(G), G))
    if args.input or args.family:
        try:
            out.extend(_build_graphs(args))
        except UsageError:
            pass
    if not out and not getattr(args, "hall_samples", 0) and not getattr(args, "block_samples", 0):
        raise UsageError("empty corpus: use --all-n, --random, --family or --input")
    return out


def _random_fixed_p(n, count, p, seed):
    rng = random.Random(seed)
    from .graph import from_edge_mask

    for _ in range(count):
        mask = 0
        for i in range(n * (n - 1) // 2):
            if rng.random() < p:
                mask |= 1 << i
        yield from_edge_mask(n, mask)


def cmd_theorems(args) -> int:
    config = EngineConfig(node_budget=args.budget)
    corpus = _corpus(args)
    any_false = False
    for label, G in corpus:
        checks = [args.check] if args.check else applicable_checks(G)
        for name in checks:
            try:
                verdict = run_check(name, G, config)
            except ValueError as exc:
                if args.check:
                    raise UsageError(str(exc)) from exc
                continue
            print(json.dumps(verdict.to_json_dict(), sort_keys=True, separators=(",", ":")))
            any_false |= not verdict.holds
    rng = random.Random(args.seed)
    for _ in range(args.hall_samples):
        verdict = check_hall(random_set_system(rng, max_sets=8, max_ground=8), exhaustive_limit=8)
        print(json.dumps(verdict.to_json_dict(), sort_keys=True, separators=(",", ":")))
        any_false |= not verdict.holds
    for _ in range(args.block_samples):
        G = random_odd_block_graph(rng, rng.randint(1, 4))
        verdict = check_block_class_identity(G, config)
        print(json.dumps(verdict.to_json_dict(), sort_keys=True, separators=(",", ":")))
        any_false |= not verdict.holds
    return 1 if any_false else 0


def cmd_scan(args) -> int:
    config = EngineConfig(node_budget=args.budget)
    prop = PropertyId.from_string(args.property)
    corpus = _corpus(args)
    records, summary = nordhaus_gaddum_scan((G for _, G in corpus), prop, config)
    for rec in records:
        print(json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":")))
    print(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")))
    return 0


# -- hidden oracle access -----------------------------------------------------------


def cmd_oracle(args) -> int:
    graphs = _build_graphs(args, multiple=True)
    params = _parse_params(args.params)
    code = 0
    for label, G in graphs:
        bounds = _parse_bounds(args.b_bounds, G) if args.b_bounds else None
        table = {"graph": label, "params": {}}
        for pid in params:
            try:
                rep = oracle_parameter(G, pid, b=bounds)
                table["params"][pid.value] = {
                    "value": rep.value if rep.value is not None else "undefined",
                    "witness_count": rep.all_witnesses_count,
                    "enumerated": rep.enumerated,
                }
            except ValueError as exc:
                table["params"][pid.value] = {"error": str(exc)}
                code = max(code, 1)
        print(json.dumps(table, sort_keys=True, separators=(",", ":")))
    return code


# -- entry point ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pmatch",
        description="Exact matching-variant parameters, verification, and theorem checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute parameter tables")
    _add_graph_args(p, multiple=True)
    p.add_argument("--params", required=True, help="comma list of parameter tags, or 'all'")
    p.add_argument("--budget", type=int, help="search node budget per parameter")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect "
                        "(computation is single-threaded)")
    p.add_argument("--b-bounds", dest="b_bounds",
                   help="bound spec for b_matching_max: uniform 'K' or 'v:k,v:k,...' "
                        "(default: uniform 1)")
    p.add_argument("--timing", action="store_true", help="attach per-parameter timings")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="verify one matching or mixed set")
    _add_graph_args(p)
    p.add_argument("--matching", required=True,
                   help="edge list 'u v,u v,...' (or 'drawn' for figure families)")
    p.add_argument("--vertices", help="vertex list 'v,v,...' for total matchings")
    p.add_argument("--property", required=True,
                   help="matching | maximal | perfect | separating | total | maximal_total | "
                        "a variant tag | maximal_<variant>")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("theorems", help="run theorem checks over a corpus")
    _add_graph_args(p)
    p.add_argument("--all-n", dest="all_n", type=int, help="all labeled graphs on this many vertices")
    p.add_argument("--random", type=int, default=0, help="count of seeded random graphs (with --n)")
    p.add_argument("--check", choices=CHECK_NAMES, help="run one named check only")
    p.add_argument("--hall-samples", dest="hall_samples", type=int, default=0,
                   help="also check this many random set systems")
    p.add_argument("--block-samples", dest="block_samples", type=int, default=0,
                   help="also check this many random edge/odd-cycle block graphs")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("scan", help="complement-sum scan for one variant")
    _add_graph_args(p)
    p.add_argument("--all-n", dest="all_n", type=int)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--property", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_scan, hall_samples=0, block_samples=0)

    p = sub.add_parser("oracle", help=argparse.SUPPRESS)
    _add_graph_args(p, multiple=True)
    p.add_argument("--params", required=True)
    p.add_argument("--b-bounds", dest="b_bounds")
    p.set_defaults(func=cmd_oracle)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
