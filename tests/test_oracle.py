import subprocess
import sys

import pytest
from hypothesis import given

from pmatch.graph import Graph, generate
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
