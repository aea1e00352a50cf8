import json
import random
from dataclasses import replace

import pytest
from hypothesis import given

from pmatch.graph import Graph, generate, induced_subgraph, is_bipartite
from pmatch.properties import PropertyId
from pmatch import solvers, theorems
from pmatch.oracle import EDGE_SUBSET_LIMIT, all_matchings, oracle_perfect_matchings
from pmatch.solvers import ParameterId, SetSystem, _variant_search, compute_parameter
from pmatch.theorems import (
    FROBENIUS_SCAN_LIMIT,
    all_graphs,
    applicable_checks,
    check_collapse_identity,
    check_connected_theorem,
    check_frobenius,
    check_gallai,
    check_hall,
    check_konig,
    check_proposition_chains,
    check_ur_characterization,
    graph_id,
    nordhaus_gaddum_scan,
    random_graphs,
    random_odd_block_graph,
    random_set_system,
    run_check,
)

from conftest import graphs


def test_gallai_examples(p8, k4):
    v = check_gallai(p8)
    assert v.holds and v.details["alpha1"] == 4 and v.details["beta1"] == 4
    v = check_gallai(k4)
    assert v.holds and v.details["alpha0"] == 3 and v.details["beta0"] == 1
    lone = Graph(3, ((0, 1),))
    assert check_gallai(lone).holds  # identity (i) only
    assert "alpha1" not in check_gallai(lone).details


def test_gallai_random_isolate_free():
    rng = random.Random(13)
    done = 0
    for G in random_graphs(7, 60, seed=99):
        if any(G.degree(v) == 0 for v in range(G.n)):
            continue
        done += 1
        assert check_gallai(G).holds
        if done >= 25:
            break
    assert done >= 10


def test_konig_examples(c4):
    assert check_konig(c4).holds
    k33 = generate("complete_bipartite", a=3, b=3)
    v = check_konig(k33)
    assert v.holds and v.details["beta1"] == 3
    with pytest.raises(ValueError):
        check_konig(generate("cycle", n=5))


def test_frobenius_examples():
    k33 = generate("complete_bipartite", a=3, b=3)
    v = check_frobenius(k33)
    assert v.holds and v.details["perfect_matching_exists"]
    k13 = generate("complete_bipartite", a=1, b=3)
    v = check_frobenius(k13)
    assert v.holds and not v.details["perfect_matching_exists"]
    p6 = generate("path", n=6)  # a 6-cycle minus one edge
    assert check_frobenius(p6).holds
    with pytest.raises(ValueError):
        check_frobenius(generate("cycle", n=5))


def test_frobenius_deficiency_route():
    # Side A has 13 vertices, past the subset scan: the violating subset is
    # the SDR solver's certificate.
    k13_1 = generate("complete_bipartite", a=13, b=1)
    assert len(is_bipartite(k13_1)[0]) == 13 > FROBENIUS_SCAN_LIMIT
    v = check_frobenius(k13_1)
    assert v.holds and not v.details["perfect_matching_exists"]
    violating = v.details["violating_subset"]
    assert len(set().union(*(k13_1.neighbors(a) for a in violating))) < len(violating)


@given(graphs(max_n=7))
def test_frobenius_random_bipartite(G):
    if is_bipartite(G) is None:
        return
    assert check_frobenius(G).holds


def test_hall_examples():
    v = check_hall(SetSystem((1,), ({1}, {1})))
    assert v.holds and v.details["sdr"] is None
    v = check_hall(SetSystem((1, 2, 3), ({1}, {2}, {3})))
    assert v.holds and v.details["sdr"] is not None
    rng = random.Random(5)
    for _ in range(150):
        assert check_hall(random_set_system(rng)).holds
    with pytest.raises(ValueError, match="capped at 8"):
        check_hall(SetSystem((1,), [{1}] * 9))


def test_chain_examples(p8, k4):
    assert check_proposition_chains(p8).holds
    assert check_proposition_chains(k4).holds


def test_connected_theorem_examples(p8, k4):
    assert check_connected_theorem(p8).holds
    assert check_connected_theorem(k4).holds
    # Disconnected: the largest component ν, and the sum of the ν >= 2 (none
    # here, so a single edge).
    verdict = check_connected_theorem(Graph(4, ((0, 1), (2, 3))))
    assert verdict.holds and (verdict.details["beta_c"], verdict.details["beta_if"]) == (1, 1)
    p4_c5_k2 = Graph(11, ((0, 1), (1, 2), (2, 3), (4, 5), (4, 8), (5, 6), (6, 7), (7, 8), (9, 10)))
    verdict = check_connected_theorem(p4_c5_k2)
    assert verdict.holds and verdict.details["component_beta1"] == [2, 2, 1]
    assert (verdict.details["beta_c"], verdict.details["beta_if"]) == (2, 4)


def test_connected_theorem_past_the_oracle_cap_reads_the_walk(monkeypatch):
    # Past the cap the check reads the first-hit walk, not the identity
    # route that compute_parameter takes.
    def no_route(*args, **kwargs):
        raise RuntimeError("the identity route ran")

    monkeypatch.setattr(solvers, "_component_maximum", no_route)
    tree = generate("random_tree", n=30, seed=3)
    assert tree.m > EDGE_SUBSET_LIMIT
    assert check_connected_theorem(tree).holds


def test_ur_characterization_examples(c4):
    assert check_ur_characterization(c4).holds
    fig2r = generate("fig2r")
    assert check_ur_characterization(fig2r).holds


def test_ur_count_matches_the_oracle_count_on_small_graphs():
    for n in range(6):
        for G in all_graphs(n):
            memo = {0: 1}
            for m in all_matchings(G):
                sub, _ = induced_subgraph(G, m.saturated)
                expected = oracle_perfect_matchings(sub)[0]
                assert theorems._perfect_matching_count(G.adj_masks, m.sat_mask, memo) == expected


def test_block_class_examples(c4, c5):
    # Graphs whose blocks are edges and chordless odd cycles have no even
    # cycle; the collapse check compares their beta_ur extrema with the
    # plain ones.
    c7p = Graph(8, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 7),))
    trees = [generate("random_tree", n=10, seed=seed) for seed in range(8)]
    for G in (c5, c7p, *trees):
        verdict = check_collapse_identity(G)
        assert verdict.holds and "no even cycle" in verdict.details["classes"]
    assert "no even cycle" not in check_collapse_identity(c4).details["classes"]


def test_collapse_examples(c4, c5):
    for G in (c4, c5, generate("hypercube", n=3), generate("random_tree", n=9, seed=1),
              generate("complete_bipartite", a=4, b=6)):
        verdict = check_collapse_identity(G)
        assert verdict.holds and verdict.details["mismatched"] == {}
    assert check_collapse_identity(c5).details["classes"] == ["triangle-free", "no even cycle"]
    with pytest.raises(ValueError, match="no class"):
        check_collapse_identity(generate("complete", n=4))


def test_collapse_check_fails_on_a_wrong_class(monkeypatch):
    # Claiming K4 bipartite collapses beta_i, but its perfect matchings are
    # not independent.
    monkeypatch.setattr(theorems, "COLLAPSE_CLASSES",
                        (("bipartite", lambda G: True, (PropertyId.INDEPENDENT,)),))
    verdict = check_collapse_identity(generate("complete", n=4))
    assert not verdict.holds
    assert verdict.details["mismatched"]["beta_i"][0] == 1


def test_collapse_check_is_independent_of_the_routed_collapse(monkeypatch):
    # Past the oracle's edge cap, compute_parameter would answer the collapsed
    # variants with the plain routes under test; the check must run the
    # searches instead. Plain routes that are off by one must not change the
    # verdict.
    def off_by_one(route):
        def shifted(*args):
            res = route(*args)
            return replace(res, value=res.value + 1)
        return shifted

    monkeypatch.setattr(solvers, "max_matching", off_by_one(solvers.max_matching))
    monkeypatch.setattr(solvers, "min_maximal_matching", off_by_one(solvers.min_maximal_matching))
    star = generate("complete_bipartite", a=1, b=EDGE_SUBSET_LIMIT + 1)
    k46 = generate("complete_bipartite", a=4, b=6)
    for G in (star, k46):
        assert G.m > EDGE_SUBSET_LIMIT
        plain = _variant_search(G, PropertyId.PLAIN, False).value
        assert compute_parameter(G, ParameterId.BETA_I).value == plain + 1  # the patch bites
        verdict = check_collapse_identity(G)
        assert verdict.holds
        assert verdict.details["beta_plain"][0] == plain
    assert check_collapse_identity(star).details["classes"] == [
        "bipartite", "triangle-free", "no even cycle", "forest"]


def test_random_odd_block_graphs_have_good_blocks():
    from pmatch.graph import block_decomposition

    rng = random.Random(31)
    for _ in range(40):
        G = random_odd_block_graph(rng, rng.randint(1, 3))
        assert all(b.kind in ("edge", "odd_cycle") for b in block_decomposition(G).blocks)
        assert check_collapse_identity(G).holds


def test_verdict_reproducible(p8):
    a = check_gallai(p8)
    b = check_gallai(p8)
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def test_applicable_checks(p8, c5):
    names = applicable_checks(p8)
    assert "gallai" in names and "konig" in names and "connected" in names
    assert "konig" not in applicable_checks(c5)
    for name in names:
        assert run_check(name, p8).holds


def test_scan_self_complementary(c5):
    records, summary = nordhaus_gaddum_scan([c5], PropertyId.PLAIN)
    assert len(records) == 1
    rec = records[0]
    beta1_c5 = _variant_search(c5, PropertyId.PLAIN, False).value
    assert rec.value_graph == rec.value_complement == beta1_c5
    assert rec.total == 2 * beta1_c5
    assert summary["count"] == 1 and summary["skipped"] == 0
    assert summary["max_sum"][0] == rec.total
    json.dumps(rec.to_json_dict())


def test_scan_takes_the_dispatcher_routes(monkeypatch):
    # A maximum in the scan takes compute_parameter's route, blossom for
    # plain, so no search runs on a tree the searches could not finish.
    def no_search(*args, **kwargs):
        raise RuntimeError("a search ran")

    monkeypatch.setattr(solvers, "_max_independent", no_search)
    monkeypatch.setattr(solvers, "_first_hit", no_search)
    tree = generate("random_tree", n=60, seed=1)
    records, _ = nordhaus_gaddum_scan([tree], PropertyId.PLAIN)
    assert (records[0].value_graph, records[0].value_complement) == (25, 30)


def test_scan_small_corpus():
    records, summary = nordhaus_gaddum_scan(all_graphs(4), PropertyId.INDUCED)
    assert summary["count"] == 64
    # verify one record independently
    for rec in records:
        assert rec.total == rec.value_graph + rec.value_complement
    # edgeless graph on 4 vertices: value 0, complement K4 has induced max 1
    assert summary["min_sum"][0] == min(r.total for r in records)
    assert summary["max_sum"][0] == max(r.total for r in records)


def test_scan_records_budget_blowups():
    k6 = generate("complete", n=6)
    records, summary = nordhaus_gaddum_scan(
        [k6], PropertyId.INDUCED, 2
    )
    assert summary["skipped"] == 1 and summary["count"] == 0
    assert records[0].error is not None


def test_graph_id_deterministic(p8):
    assert graph_id(p8) == graph_id(generate("path", n=8))
    assert graph_id(p8) != graph_id(generate("path", n=7))
