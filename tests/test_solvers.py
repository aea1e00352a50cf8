import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pmatch.graph import Graph, from_edge_mask, generate, is_acyclic_graph, is_connected, is_edge_cut
from pmatch.oracle import oracle_parameter
from pmatch.properties import (
    BoundFunction,
    Matching,
    MixedSet,
    PropertyId,
    has_property,
    is_b_matching,
    is_matching,
    is_maximal_matching,
    is_maximal_p_matching,
    is_maximal_total_matching,
)
from pmatch.solvers import (
    MINUS_PARAMS,
    PARAM_PROPERTY,
    BudgetExceededError,
    EngineConfig,
    ParameterId,
    SetSystem,
    block_class_fast_path,
    classic_parameters,
    compute_beta_minus_p,
    compute_beta_p,
    compute_parameter,
    domination_number,
    edge_cover_number,
    independence_number,
    max_matching,
    min_maximal_matching,
    min_separating_matching,
    perfect_matching_exists,
    sdr_solve,
    total_matching_bounds,
    tree_b_matching_max,
)
from pmatch.theorems import all_graphs

from conftest import graphs


NO_PRUNING = EngineConfig(
    remaining_edge_bound=False, residual_matching_bound=False, hereditary_pruning=False
)


# -- engine versus oracle ------------------------------------------------------------


def test_engine_matches_oracle_exhaustive_small():
    for n in range(0, 5):
        for G in all_graphs(n):
            for P in PropertyId:
                assert compute_beta_p(G, P).value == oracle_parameter(
                    G, ParameterId.from_string(_max_tag(P))
                ).value
                assert compute_beta_minus_p(G, P).value == oracle_parameter(
                    G, ParameterId.from_string(_min_tag(P))
                ).value


def _max_tag(P):
    from pmatch.solvers import PROPERTY_MAX_PARAM

    return PROPERTY_MAX_PARAM[P].value


def _min_tag(P):
    from pmatch.solvers import PROPERTY_MIN_PARAM

    return PROPERTY_MIN_PARAM[P].value


@given(graphs(min_n=5, max_n=7), st.sampled_from(list(PropertyId)))
@settings(max_examples=40)
def test_engine_matches_oracle_sampled(G, P):
    assert compute_beta_p(G, P).value == oracle_parameter(
        G, ParameterId.from_string(_max_tag(P))
    ).value
    assert compute_beta_minus_p(G, P).value == oracle_parameter(
        G, ParameterId.from_string(_min_tag(P))
    ).value


@given(graphs(min_n=4, max_n=7), st.sampled_from(list(PropertyId)))
@settings(max_examples=30)
def test_pruning_never_changes_results(G, P):
    a = compute_beta_p(G, P)
    b = compute_beta_p(G, P, NO_PRUNING)
    assert (a.value, a.witness) == (b.value, b.witness)
    c = compute_beta_minus_p(G, P)
    d = compute_beta_minus_p(G, P, NO_PRUNING)
    assert (c.value, c.witness) == (d.value, d.witness)


def test_budget_raises():
    k6 = generate("complete", n=6)
    with pytest.raises(BudgetExceededError):
        compute_beta_p(k6, PropertyId.INDUCED, EngineConfig(node_budget=3))
    with pytest.raises(BudgetExceededError):
        total_matching_bounds(k6, EngineConfig(node_budget=2))


def test_engine_witness_is_lexmin():
    rng = random.Random(11)
    for _ in range(25):
        G = from_edge_mask(6, rng.randrange(1 << 15))
        for P in (PropertyId.INDUCED, PropertyId.UNIQUELY_RESTRICTED, PropertyId.CONNECTED):
            res = compute_beta_p(G, P)
            # collect all optimal witnesses by brute force
            optima = []

            def rec(i, cur, sat):
                if len(cur) == res.value:
                    if has_property(G, tuple(cur), P):
                        optima.append(tuple(cur))
                    return
                if i == len(G.edges):
                    return
                rec(i + 1, cur, sat)
                u, v = G.edges[i]
                if not (sat & ((1 << u) | (1 << v))):
                    cur.append((u, v))
                    rec(i + 1, cur, sat | (1 << u) | (1 << v))
                    cur.pop()

            rec(0, [], 0)
            if optima:
                assert res.witness == min(optima)
            else:
                assert res.value == 0 and res.witness == ()


# -- classical parameters ---------------------------------------------------------------


def test_classic_parameters_frozen_values(p8, k4, c4):
    vals = classic_parameters(p8)
    assert vals[ParameterId.ALPHA0].value == 4
    assert vals[ParameterId.BETA0].value == 4
    assert vals[ParameterId.ALPHA1].value == 4
    assert vals[ParameterId.GAMMA].value == 3
    vals = classic_parameters(k4)
    assert vals[ParameterId.ALPHA0].value == 3
    assert vals[ParameterId.BETA0].value == 1
    assert vals[ParameterId.GAMMA].value == 1
    assert vals[ParameterId.ALPHA1].value == 2
    assert classic_parameters(c4)[ParameterId.GAMMA].value == 2


def test_classic_parameters_witnesses(p8):
    vals = classic_parameters(p8)
    cover = set(vals[ParameterId.ALPHA0].witness)
    assert all(u in cover or v in cover for u, v in p8.edges)
    indep = vals[ParameterId.BETA0].witness
    assert all(not p8.has_edge(u, v) for u, v in itertools.combinations(indep, 2))
    dom = set(vals[ParameterId.GAMMA].witness)
    assert all(v in dom or (p8.neighbors(v) & dom) for v in range(8))
    ec = vals[ParameterId.ALPHA1].witness
    covered = {v for e in ec for v in e}
    assert covered == set(range(8))


def test_alpha1_isolate_error():
    lone = Graph(3, ((0, 1),))
    with pytest.raises(ValueError):
        edge_cover_number(lone)
    assert ParameterId.ALPHA1 not in classic_parameters(lone)


@given(graphs(max_n=7))
def test_gallai_identity_from_searches(G):
    vals = classic_parameters(G)
    assert vals[ParameterId.ALPHA0].value + vals[ParameterId.BETA0].value == G.n


# -- matching number routes ----------------------------------------------------------------


def test_max_matching_result(p8):
    res = max_matching(p8)
    assert res.value == 4 and res.route == "fast-path"
    assert res.witness == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_min_maximal_matching_examples(p8, c4):
    res = min_maximal_matching(p8)
    assert res.value == 3
    assert is_maximal_matching(p8, res.witness)
    assert min_maximal_matching(generate("complete", n=2)).value == 1
    assert min_maximal_matching(c4).value == 2


def test_perfect_matching_exists(p8, c5):
    ok, witness = perfect_matching_exists(p8)
    assert ok and len(witness) == 4
    assert perfect_matching_exists(c5) == (False, None)
    star = generate("complete_bipartite", a=1, b=3)
    assert perfect_matching_exists(star)[0] is False


# -- tree b-matching --------------------------------------------------------------------------


def test_tree_b_matching_examples():
    p4 = generate("path", n=4)
    assert tree_b_matching_max(p4, BoundFunction.uniform(p4, 1)).value == 2
    star = generate("complete_bipartite", a=1, b=4)
    res = tree_b_matching_max(star, BoundFunction((2, 1, 1, 1, 1)))
    assert res.value == 2
    assert is_b_matching(star, res.witness, BoundFunction((2, 1, 1, 1, 1)))


def test_tree_b_matching_random_vs_oracle():
    for trial in range(60):
        rng = random.Random(500 + trial)
        n = rng.randint(1, 11)
        T = generate("random_tree", n=n, seed=900 + trial)
        b = BoundFunction(tuple(rng.randint(0, T.degree(v)) for v in range(T.n)))
        greedy = tree_b_matching_max(T, b)
        assert greedy.value == oracle_parameter(T, ParameterId.B_MATCHING_MAX, b=b).value
        assert is_b_matching(T, greedy.witness, b)


def test_tree_b_matching_rejects_cycles():
    c4 = generate("cycle", n=4)
    with pytest.raises(ValueError, match="cycle"):
        tree_b_matching_max(c4, BoundFunction.uniform(c4, 1))


def test_tree_b_matching_forest():
    F = Graph(7, ((0, 1), (1, 2), (3, 4), (5, 6)))
    assert tree_b_matching_max(F, BoundFunction.uniform(F, 1)).value == 3


# -- total matchings -----------------------------------------------------------------------------


def test_total_bounds_examples():
    k2 = generate("complete", n=2)
    mx, mn = total_matching_bounds(k2)
    assert (mx.value, mn.value) == (1, 1)
    k1 = generate("complete", n=1)
    mx, mn = total_matching_bounds(k1)
    assert (mx.value, mn.value) == (1, 1)
    p3 = generate("path", n=3)
    mx, mn = total_matching_bounds(p3)
    assert (mx.value, mn.value) == (2, 1)
    empty = Graph(0)
    mx, mn = total_matching_bounds(empty)
    assert (mx.value, mn.value) == (0, 0)


def test_total_bounds_witnesses_are_maximal(p8):
    mx, mn = total_matching_bounds(p8)
    for res in (mx, mn):
        vs, es = res.witness
        t = MixedSet(p8, vs, es)
        assert is_maximal_total_matching(p8, t)
        assert t.size == res.value
    assert (mx.value, mn.value) == (5, 3)


@given(graphs(max_n=6))
def test_total_bounds_match_oracle(G):
    mx, mn = total_matching_bounds(G)
    assert mx.value == oracle_parameter(G, ParameterId.BETA_TOTAL_MAX).value
    assert mn.value == oracle_parameter(G, ParameterId.BETA_TOTAL_MIN).value


# -- separating matchings ---------------------------------------------------------------------------


def test_separating_examples(q3, k4):
    p3 = generate("path", n=3)
    assert min_separating_matching(p3).value == 1
    assert min_separating_matching(k4).value is None
    res = min_separating_matching(q3)
    assert res.value == 4
    assert is_matching(q3, res.witness) and is_edge_cut(q3, res.witness)


@given(graphs(max_n=6))
def test_separating_matches_oracle(G):
    assert min_separating_matching(G).value == oracle_parameter(G, ParameterId.BETA_SEP_MIN).value


# -- block-structure fast path ------------------------------------------------------------------------


def test_block_fast_path_cases(c4, c5):
    for seed in range(5):
        T = generate("random_tree", n=9, seed=seed)
        res = block_class_fast_path(T)
        assert res is not None
        assert res.value == compute_beta_p(T, PropertyId.UNIQUELY_RESTRICTED).value
    res5 = block_class_fast_path(c5)
    assert res5 is not None and res5.value == 2
    assert block_class_fast_path(c4) is None
    c7p = Graph(8, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 7),))
    res = block_class_fast_path(c7p)
    assert res is not None
    assert res.value == compute_beta_p(c7p, PropertyId.UNIQUELY_RESTRICTED).value


# -- SDR ------------------------------------------------------------------------------------------------


def test_sdr_examples():
    res = sdr_solve(SetSystem((1, 2, 3), ({1, 2}, {2, 3}, {1, 3})))
    assert res.representatives is not None
    assert len(set(res.representatives)) == 3
    res = sdr_solve(SetSystem((1,), ({1}, {1})))
    assert res.representatives is None
    assert res.violator == {0, 1}


def test_sdr_random_certificates():
    rng = random.Random(77)
    for _ in range(120):
        ground = tuple(range(rng.randint(1, 6)))
        sets = tuple(
            frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            for _ in range(rng.randint(1, 6))
        )
        system = SetSystem(ground, sets)
        res = sdr_solve(system)
        if res.representatives is not None:
            reps = res.representatives
            assert len(set(reps)) == len(reps)
            assert all(reps[i] in sets[i] for i in range(len(sets)))
        else:
            union = set()
            for i in res.violator:
                union |= sets[i]
            assert len(union) < len(res.violator)


def test_set_system_validation():
    with pytest.raises(ValueError):
        SetSystem((1, 1), ({1},))
    with pytest.raises(ValueError):
        SetSystem((1, 2), ({3},))


# -- dispatcher and witness revalidation -------------------------------------------------------------------


def _validate_result(G, pid, res):
    if res.value is None:
        assert res.witness is None
        return
    w = res.witness
    if pid in (ParameterId.ALPHA0,):
        assert len(w) == res.value
        assert all(u in set(w) or v in set(w) for u, v in G.edges)
    elif pid is ParameterId.BETA0:
        assert len(w) == res.value
        assert all(not G.has_edge(u, v) for u, v in itertools.combinations(w, 2))
    elif pid is ParameterId.GAMMA:
        dom = set(w)
        assert len(w) == res.value
        assert all(v in dom or (G.neighbors(v) & dom) for v in range(G.n))
    elif pid is ParameterId.ALPHA1:
        assert len(w) == res.value
        assert {v for e in w for v in e} == set(range(G.n))
    elif pid in (ParameterId.BETA_TOTAL_MAX, ParameterId.BETA_TOTAL_MIN):
        vs, es = w
        t = MixedSet(G, vs, es)
        assert t.size == res.value
        assert is_maximal_total_matching(G, t)
    elif pid is ParameterId.BETA_SEP_MIN:
        assert len(w) == res.value
        assert is_matching(G, w) and is_edge_cut(G, w)
    elif pid is ParameterId.B_MATCHING_MAX:
        assert len(w) == res.value
        assert is_b_matching(G, w, BoundFunction.uniform(G, 1))
    elif pid is ParameterId.BETA1:
        assert len(w) == res.value and is_matching(G, w)
    elif pid is ParameterId.BETA1_MINUS:
        assert len(w) == res.value and is_maximal_matching(G, w)
    elif pid in PARAM_PROPERTY:
        P = PARAM_PROPERTY[pid]
        m = Matching(G, w)
        assert has_property(G, m, P)
        assert len(w) == res.value
        if pid in MINUS_PARAMS:
            assert is_maximal_p_matching(G, m, P)


def test_every_parameter_witness_revalidates():
    rng = random.Random(4)
    cases = [generate("random_tree", n=9, seed=2), generate("cycle", n=6),
             generate("hypercube", n=3)]
    cases += [from_edge_mask(6, rng.randrange(1 << 15)) for _ in range(8)]
    for G in cases:
        for pid in ParameterId:
            if pid is ParameterId.ALPHA1 and any(G.degree(v) == 0 for v in range(G.n)):
                continue
            if pid is ParameterId.B_MATCHING_MAX and not is_acyclic_graph(G):
                continue
            res = compute_parameter(G, pid)
            assert res.parameter is pid
            _validate_result(G, pid, res)


def test_compute_parameter_determinism():
    G = generate("gnp", n=8, p=0.4, seed=9)
    for pid in (ParameterId.BETA_STAR, ParameterId.BETA_UR_MINUS, ParameterId.BETA_TOTAL_MIN):
        a = compute_parameter(G, pid)
        b = compute_parameter(G, pid)
        assert (a.value, a.witness) == (b.value, b.witness)


def test_connected_graph_identity_samples():
    rng = random.Random(21)
    count = 0
    while count < 12:
        G = from_edge_mask(7, rng.randrange(1 << 21))
        if not is_connected(G) or G.n == 0:
            continue
        count += 1
        beta1 = max_matching(G).value
        assert compute_beta_p(G, PropertyId.CONNECTED).value == beta1
        assert compute_beta_p(G, PropertyId.ISOLATE_FREE).value == beta1


def test_empty_graph_parameters():
    empty = Graph(0)
    for pid in ParameterId:
        res = compute_parameter(empty, pid)
        if pid in MINUS_PARAMS or pid in (ParameterId.BETA1_MINUS, ParameterId.BETA_SEP_MIN):
            assert res.value is None
        else:
            assert res.value == 0


def test_sdr_chain_longer_than_recursion_limit():
    # One augmenting path runs through every set: S_i = {i, i+1}, then {0}.
    n = 5000
    sets = [{i, i + 1} for i in range(n - 1)] + [{0}]
    result = sdr_solve(SetSystem(range(n), sets))
    assert result.violator is None
    reps = result.representatives
    assert len(set(reps)) == n and all(r in s for r, s in zip(reps, sets))
