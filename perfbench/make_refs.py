"""Record the reference answers the benchmark checks against.

    python3 perfbench/make_refs.py [desk|kernels ...]

``refs/desk.json`` holds every desk table as the current program prints it,
minus ``route`` and ``nodes``; each value is cross-checked against
``oracle_parameter`` wherever the graph fits the oracle's caps, and each
witness is re-validated with the public predicates. ``refs/kernels.json``
holds the kernel answers computed with networkx, an
implementation that shares no code with pmatch. The lexicographically
smallest maximum matchings are recorded from pmatch and confirmed by running
the same greedy forcing on networkx matching numbers.

Needs networkx for the kernel answers; the benchmark itself does not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pmatch  # noqa: E402
from pmatch import oracle, solvers  # noqa: E402

import workloads as W  # noqa: E402


def make_desk() -> dict:
    out = {}
    checked = 0
    for name, *spec in W.DESK_CORPUS:
        code, text = W.run_cli(W.desk_argv(*spec))
        table = json.loads(text)
        G = W.desk_graph(*spec[:3])
        params = {}
        for tag, got in table["params"].items():
            pid = solvers.ParameterId.from_string(tag)
            got = {k: v for k, v in got.items() if k not in ("route", "nodes")}
            params[tag] = got
            if "error" in got:
                continue
            bad = W.witness_problem(G, pid, got)
            if bad:
                raise SystemExit(f"{name} {tag}: {bad}")
            try:
                rep = oracle.oracle_parameter(G, pid)
            except oracle.OracleLimitError:
                continue
            want = "undefined" if rep.value is None else rep.value
            if want != got["value"]:
                raise SystemExit(f"{name} {tag}: program {got['value']} != oracle {want}")
            checked += 1
        out[name] = {"exit": code, "id": table["id"], "params": params}
        print(f"desk {name}: {len(params)} parameters", file=sys.stderr)
    print(f"desk: {checked} values confirmed by the oracle", file=sys.stderr)
    return out


def to_nx(G):
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


def nx_nu(H, top=None) -> int:
    """Matching number: Hopcroft-Karp when a side is given, else blossom."""
    import networkx as nx

    if top is not None:
        return len(nx.bipartite.hopcroft_karp_matching(H, top_nodes=[v for v in H if v in top])) // 2
    return len(nx.max_weight_matching(H, maxcardinality=True))


def two_coloring(H) -> set:
    import networkx as nx

    top = set()
    for comp in nx.connected_components(H):
        root = min(comp)
        depth = nx.single_source_shortest_path_length(H, root)
        top |= {v for v, d in depth.items() if d % 2 == 0}
    return top


def nx_lexmin(G, top) -> list:
    """Greedy forcing over sorted edges with networkx matching numbers."""
    H = to_nx(G)
    k = nx_nu(H, top)
    chosen, banned = [], set()
    for u, v in G.edges:
        if len(chosen) == k:
            break
        if u in banned or v in banned:
            continue
        rest = H.subgraph(set(H) - banned - {u, v})
        if len(chosen) + 1 + nx_nu(rest, top) >= k:
            chosen.append((u, v))
            banned |= {u, v}
    return chosen


def block_kind(vertices, edges) -> str:
    if len(vertices) == 2:
        return "edge"
    if len(vertices) % 2 == 1 and len(edges) == len(vertices):
        return "odd_cycle"
    return "other"


def make_kernels() -> dict:
    import networkx as nx

    x = W.kernel_graphs()
    refs = {}
    for kernel, fam, n, _ in W.KERNEL_ITEMS:
        name = W.kernel_name(kernel, fam, n)
        arg = W.kernel_argument(kernel, fam, n, x)
        if kernel in ("max_matching_size", "lexmin_maximum_matching"):
            H = to_nx(arg)
            top = two_coloring(H) if fam == "tree" else None
            nu = nx_nu(H, top)
            ref = {"nu": nu}
            if kernel == "lexmin_maximum_matching":
                got = list(pmatch.lexmin_maximum_matching(arg))
                if [list(e) for e in nx_lexmin(arg, top)] != [list(e) for e in got]:
                    raise SystemExit(f"{name}: pmatch and networkx lexmin differ")
                ref["digest"] = W.digest(got)
        elif kernel == "block_decomposition":
            H = to_nx(arg)
            blocks = []
            for es in nx.biconnected_component_edges(H):
                es = sorted((min(e), max(e)) for e in es)
                vs = {v for e in es for v in e}
                blocks.append((es, block_kind(vs, es)))
            ref = {"digest": W.digest(W.canonical_blocks(blocks, nx.articulation_points(H)))}
        elif kernel == "components":
            ref = {"digest": W.digest(W.canonical_components(nx.connected_components(to_nx(arg))))}
        elif kernel == "tree_b_matching_max":
            T, b = arg
            F = nx.DiGraph()
            top = two_coloring(to_nx(T))
            for v in range(T.n):
                if v in top:
                    F.add_edge("s", v, capacity=b.values[v])
                else:
                    F.add_edge(v, "t", capacity=b.values[v])
            for u, v in T.edges:
                a, c = (u, v) if u in top else (v, u)
                F.add_edge(a, c, capacity=1)
            ref = {"value": nx.maximum_flow_value(F, "s", "t")}
        elif kernel == "sdr_solve":
            # Max flow, not networkx's Hopcroft-Karp: that one recurses
            # along augmenting paths too and overflows on the chain.
            F = nx.DiGraph()
            for i, s in enumerate(arg.sets):
                F.add_edge("s", ("set", i), capacity=1)
                for e in s:
                    F.add_edge(("set", i), ("elt", e), capacity=1)
            for e in arg.ground:
                F.add_edge(("elt", e), "t", capacity=1)
            ref = {"exists": nx.maximum_flow_value(F, "s", "t") == len(arg.sets)}
        elif kernel == "bipartite_matching_and_cover":
            H = to_nx(arg)
            ref = {"nu": nx_nu(H, two_coloring(H))}
        else:
            ref = {}
        refs[name] = ref
        print(f"kernels {name}: {ref}", file=sys.stderr, flush=True)
    return refs


def main(argv: list[str]) -> int:
    which = argv or ["desk", "kernels"]
    W.REFS.mkdir(exist_ok=True)
    for name in which:
        data = make_desk() if name == "desk" else make_kernels()
        lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                 for k, v in sorted(data.items()))
        (W.REFS / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
