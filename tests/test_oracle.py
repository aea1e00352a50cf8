import gc
import hashlib
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given

from pmatch import oracle
from pmatch.graph import Graph, from_edge_mask, generate
from pmatch.oracle import (
    COVER_SCAN_LIMIT,
    EDGE_SUBSET_LIMIT,
    OracleLimitError,
    all_matchings,
    oracle_orientation_feasible,
    oracle_parameter,
    oracle_perfect_matchings,
)
from pmatch.properties import BoundFunction, Matching, is_matching
from pmatch.solvers import ParameterId
from pmatch.theorems import all_graphs, applicable_checks, check_gallai, check_konig, run_check

from conftest import graphs


def test_oracle_p8_values(p8):
    assert oracle_parameter(p8, ParameterId.BETA1).value == 4
    assert oracle_parameter(p8, ParameterId.BETA1).all_witnesses_count == 1
    assert oracle_parameter(p8, ParameterId.BETA1_MINUS).value == 3
    assert oracle_parameter(p8, ParameterId.BETA_STAR).value == 3


def test_oracle_c4_induced(c4):
    rep = oracle_parameter(c4, ParameterId.BETA_STAR)
    assert rep.value == 1
    assert rep.all_witnesses_count == 4
    assert rep.enumerated == len(list(all_matchings(c4)))


def test_all_matchings_enumeration(c4):
    ms = list(all_matchings(c4))
    assert len(ms) == 1 + 4 + 2  # empty, four singles, two perfect
    assert all(is_matching(c4, m.edges) for m in ms)
    assert len({m.edges for m in ms}) == len(ms)


def test_oracle_perfect_matching_counts(c4, c6):
    k2 = generate("complete", n=2)
    assert oracle_perfect_matchings(k2)[0] == 1
    assert oracle_perfect_matchings(c4)[0] == 2
    count, pms = oracle_perfect_matchings(c6)
    assert count == 2 and len(pms) == 2
    assert oracle_perfect_matchings(generate("cycle", n=5))[0] == 0
    k4 = generate("complete", n=4)
    assert oracle_perfect_matchings(k4)[0] == 3


def test_oracle_orientation_examples(k4):
    fig3 = generate("fig3")
    m = Matching(fig3, ((0, 4), (1, 5), (2, 6), (3, 7)))
    assert oracle_orientation_feasible(fig3, m, "independent")
    assert not oracle_orientation_feasible(k4, ((0, 1), (2, 3)), "independent")
    assert oracle_orientation_feasible(k4, ((0, 1),), "independent")
    assert oracle_orientation_feasible(k4, ((0, 1),), "bipartite")
    with pytest.raises(ValueError):
        oracle_orientation_feasible(k4, ((0, 1),), "sideways")


def test_oracle_limits():
    big = generate("complete", n=8)  # 28 edges
    assert big.m > EDGE_SUBSET_LIMIT
    with pytest.raises(OracleLimitError):
        oracle_parameter(big, ParameterId.BETA1)
    with pytest.raises(OracleLimitError):
        oracle_perfect_matchings(generate("complete", n=18))
    tall = Graph(40, tuple((i, i + 1) for i in range(0, 40, 2)))
    with pytest.raises(OracleLimitError):
        oracle_parameter(tall, ParameterId.BETA0)
    k7 = generate("complete", n=7)  # 21 edges, no isolates
    assert k7.m > COVER_SCAN_LIMIT
    with pytest.raises(OracleLimitError):
        oracle_parameter(k7, ParameterId.ALPHA1)


def test_oracle_b_matching_custom_bounds():
    p4 = generate("path", n=4)
    rep = oracle_parameter(p4, ParameterId.B_MATCHING_MAX, b=BoundFunction.uniform(p4, 2))
    assert rep.value == 3  # all edges fit when interior degrees may reach 2
    rep1 = oracle_parameter(p4, ParameterId.B_MATCHING_MAX)
    assert rep1.value == 2  # default uniform bound of one is plain matching


def test_oracle_alpha1_isolate_error():
    lone = Graph(3, ((0, 1),))
    with pytest.raises(ValueError):
        oracle_parameter(lone, ParameterId.ALPHA1)


@pytest.mark.parametrize(
    "G, value, count",
    [
        (generate("path", n=4), 2, 1),
        (generate("cycle", n=4), 2, 2),
        (generate("complete", n=4), 2, 3),
        (generate("complete_bipartite", a=1, b=3), 3, 1),
        (Graph(0, ()), 0, 1),
    ],
    ids=["P4", "C4", "K4", "K1,3", "empty"],
)
def test_oracle_alpha1_hand_counts(G, value, count):
    rep = oracle_parameter(G, ParameterId.ALPHA1)
    assert (rep.value, rep.all_witnesses_count) == (value, count)


def test_import_leaves_numpy_unloaded():
    code = "import sys, pmatch; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_oracle_undefined_minus(p8):
    k2 = generate("complete", n=2)
    assert oracle_parameter(k2, ParameterId.BETA_V_IR_MIN).value is None
    assert oracle_parameter(k2, ParameterId.BETA_E_IR_MIN).value is None
    edgeless = Graph(4)
    assert oracle_parameter(edgeless, ParameterId.BETA1_MINUS).value is None
    assert oracle_parameter(edgeless, ParameterId.BETA1).value == 0


@given(graphs(min_n=1, max_n=6))
def test_oracle_invariant_under_relabeling(G):
    # reverse the vertex labels; values must not move
    perm = {v: G.n - 1 - v for v in range(G.n)}
    H = Graph(G.n, tuple(tuple(sorted((perm[u], perm[v]))) for u, v in G.edges))
    for pid in (
        ParameterId.BETA1,
        ParameterId.BETA_STAR,
        ParameterId.BETA_UR_MINUS,
        ParameterId.BETA_TOTAL_MIN,
        ParameterId.GAMMA,
    ):
        assert oracle_parameter(G, pid).value == oracle_parameter(H, pid).value


def test_oracle_counts_are_positive(p8):
    for pid in (ParameterId.BETA1, ParameterId.BETA_STAR, ParameterId.BETA_AC):
        rep = oracle_parameter(p8, pid)
        assert rep.all_witnesses_count >= 1
        assert rep.enumerated >= rep.all_witnesses_count


def _subset_reference(G: Graph, pid: ParameterId):
    """Value, count and smallest witness of a vertex-subset parameter, by
    testing every subset against its definition."""
    def accepts(S):
        if pid is ParameterId.BETA0:
            return not any(u in S and v in S for u, v in G.edges)
        if pid is ParameterId.ALPHA0:
            return all(u in S or v in S for u, v in G.edges)
        return all(v in S or G.neighbors(v) & S for v in range(G.n))

    found = [S for r in range(G.n + 1) for S in combinations(range(G.n), r)
             if accepts(set(S))]
    best = (max if pid is ParameterId.BETA0 else min)(len(S) for S in found)
    optimal = [S for S in found if len(S) == best]
    return best, len(optimal), min(optimal)


def test_vertex_scan_matches_subset_reference():
    for n in range(6):
        for G in all_graphs(n):
            for pid in (ParameterId.BETA0, ParameterId.ALPHA0, ParameterId.GAMMA):
                rep = oracle_parameter(G, pid)
                assert rep.enumerated == 1 << n
                assert (rep.value, rep.all_witnesses_count, rep.witness) == _subset_reference(G, pid)


def test_vertex_scan_runs_once_per_graph():
    G = generate("hypercube", n=3)
    oracle._vertex_scan.cache_clear()
    for pid in (ParameterId.BETA0, ParameterId.ALPHA0, ParameterId.GAMMA):
        oracle_parameter(G, pid)
    assert check_gallai(G).holds and check_konig(G).holds
    assert oracle._vertex_scan.cache_info().misses == 1


def test_enumeration_order_is_depth_first_in_edge_order(c4, k4):
    assert [m.edges for m in all_matchings(c4)] == [
        (), ((0, 1),), ((0, 1), (2, 3)), ((0, 3),), ((0, 3), (1, 2)), ((1, 2),), ((2, 3),),
    ]
    assert oracle_perfect_matchings(k4)[1] == [
        ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
    ]


def test_oracle_and_checks_leave_no_cyclic_garbage():
    G = generate("gnp", n=8, p=0.5, seed=3)
    gc.collect()
    gc.disable()
    try:
        for pid in ParameterId:
            try:
                oracle_parameter(G, pid)
            except OracleLimitError:
                pass
        for name in applicable_checks(G):
            run_check(name, G)
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 over every oracle tag's (value, all_witnesses_count, enumerated,
# witness), or its error, on _digest_corpus(): a change to any answer, count
# or witness of the reference side shows here.
ORACLE_DIGEST = "b5cbdf1d5be70a6ae53bdd015ab4263c16332992aa2312430287b3581cfff20a"


def _digest_corpus():
    """Every labeled graph with n <= 5, then 200 seeded graphs with n = 7, 8
    at densities 0.2, 0.35 and 0.5."""
    for n in range(6):
        yield from all_graphs(n)
    rng = random.Random(2018)
    for i in range(200):
        n = 7 + i % 2
        p = (0.2, 0.35, 0.5)[i % 3]
        pairs = n * (n - 1) // 2
        yield from_edge_mask(n, sum(1 << j for j in range(pairs) if rng.random() < p))


def test_oracle_output_is_pinned():
    h = hashlib.sha256()
    for G in _digest_corpus():
        for pid in ParameterId:
            try:
                r = oracle_parameter(G, pid)
                row = (r.value, r.all_witnesses_count, r.enumerated, r.witness)
            except ValueError as exc:
                row = (type(exc).__name__, str(exc))
            h.update(repr((G.n, G.edges, pid.value, row)).encode())
    assert h.hexdigest() == ORACLE_DIGEST


def test_oracle_and_checks_build_no_graph(monkeypatch):
    """Counter gate: the scans decide every candidate on the input graph's
    masks and lists; no predicate, cut test or check builds a Graph."""
    G = generate("gnp", n=8, p=0.5, seed=3)
    built = []
    original = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(1) or original(self))
    for scan in (oracle._matching_scan, oracle._total_scan, oracle._vertex_scan):
        scan.cache_clear()
    for pid in ParameterId:
        oracle_parameter(G, pid)
    for name in applicable_checks(G):
        assert run_check(name, G).holds
    assert oracle._matching_scan.cache_info().misses == 1
    assert built == []
