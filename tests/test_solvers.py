import inspect
import itertools
import random
import sys
from dataclasses import replace
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pmatch.graph import (
    Graph,
    from_edge_mask,
    generate,
    is_acyclic_graph,
    is_connected,
    is_edge_cut,
    is_even_cycle_free,
)
from pmatch import properties, solvers
from pmatch.oracle import all_matchings, oracle_parameter
from pmatch.properties import (
    HEREDITARY_PROPERTIES,
    BoundFunction,
    Matching,
    MixedSet,
    PropertyId,
    has_property,
    is_b_matching,
    is_independent_matching,
    is_matching,
    is_maximal_matching,
    is_maximal_p_matching,
    is_maximal_total_matching,
    property_holds,
)
from pmatch.solvers import (
    COLLAPSE_CLASSES,
    PROPERTY_MAX_PARAM,
    PROPERTY_MIN_PARAM,
    BudgetExceededError,
    ParameterId,
    SetSystem,
    compute_parameter,
    edge_cover_number,
    max_matching,
    min_maximal_matching,
    min_separating_matching,
    sdr_solve,
    tree_b_matching_max,
)
from pmatch.solvers import (
    _max_independent, _min_dominating, _pair_rows, _precedes, _stepper, _variant_search,
)
from pmatch.matching import lexmin_maximum_matching, max_matching_size
from pmatch.theorems import all_graphs, random_graphs

from conftest import graph_with_matching, graphs

# Each variant tag's property, and the variant minima.
TAG_PROPERTY = {pid: P for pids in (PROPERTY_MAX_PARAM, PROPERTY_MIN_PARAM)
                for P, pid in pids.items()}
VARIANT_MINIMA = frozenset(PROPERTY_MIN_PARAM.values())


# -- engine versus oracle ------------------------------------------------------------


def _same_answer(res, rep):
    return (res.value, res.witness) == (rep.value, rep.witness)


def test_engine_matches_oracle_exhaustive_small():
    for n in range(0, 5):
        for G in all_graphs(n):
            for P in PropertyId:
                assert _same_answer(_variant_search(G, P, False), oracle_parameter(
                    G, ParameterId.from_string(_max_tag(P))
                ))
                assert _same_answer(_variant_search(G, P, True), oracle_parameter(
                    G, ParameterId.from_string(_min_tag(P))
                ))


def _max_tag(P):
    from pmatch.solvers import PROPERTY_MAX_PARAM

    return PROPERTY_MAX_PARAM[P].value


def _min_tag(P):
    from pmatch.solvers import PROPERTY_MIN_PARAM

    return PROPERTY_MIN_PARAM[P].value


@given(graphs(min_n=5, max_n=7), st.sampled_from(list(PropertyId)))
@settings(max_examples=40)
def test_engine_matches_oracle_sampled(G, P):
    assert _same_answer(_variant_search(G, P, False), oracle_parameter(
        G, ParameterId.from_string(_max_tag(P))
    ))
    assert _same_answer(_variant_search(G, P, True), oracle_parameter(
        G, ParameterId.from_string(_min_tag(P))
    ))


def test_budget_raises():
    k6 = generate("complete", n=6)
    with pytest.raises(BudgetExceededError):
        _variant_search(k6, PropertyId.INDUCED, False, 3)
    with pytest.raises(BudgetExceededError):
        compute_parameter(k6, ParameterId.BETA_TOTAL_MAX, 2)
    # The first-hit search counts its nodes over all the sizes it tries. On
    # the Petersen graph no edge dominates, so the walk at k = 1 is empty;
    # the walk at k = 2 takes 14 nodes, and the budget runs out in the walk
    # at k = 3, which hits at its third node.
    petersen = Graph(10, _PETERSEN)
    res = _variant_search(petersen, PropertyId.UNIQUELY_RESTRICTED, True)
    assert (res.value, res.nodes_explored) == (3, 17)
    with pytest.raises(BudgetExceededError, match="^beta_ur_minus: .* after 16 nodes"):
        _variant_search(petersen, PropertyId.UNIQUELY_RESTRICTED, True, 15)
    # A first-hit maximum counts its one walk, which takes 27 nodes on Q3.
    q3 = generate("hypercube", n=3)
    with pytest.raises(BudgetExceededError, match="^beta_v_IR: .* after 14 nodes"):
        _variant_search(q3, PropertyId.VERTEX_IRREDUNDANT, False, 13)
    # The matching-cut search on a long cycle: its many two-edge cuts tie.
    c20 = generate("cycle", n=20)
    with pytest.raises(BudgetExceededError, match="^beta_sep_min: .* after 101 nodes"):
        min_separating_matching(c20, 100)
    # The connected minimum searches Q3 (21 nodes), then a three-vertex path
    # (3 nodes) under the same count: the budget runs out in the second one.
    q3_and_path = Graph(11, q3.edges + ((8, 9), (9, 10)))
    res = compute_parameter(q3_and_path, ParameterId.BETA_C_MINUS)
    assert (res.value, res.witness, res.nodes_explored) == (1, ((8, 9),), 24)
    with pytest.raises(BudgetExceededError, match="^beta_c_minus: .* after 23 nodes"):
        compute_parameter(q3_and_path, ParameterId.BETA_C_MINUS, 22)


@pytest.mark.parametrize("pid", [ParameterId.GAMMA, ParameterId.BETA0, ParameterId.ALPHA0,
                                 ParameterId.BETA_TOTAL_MAX, ParameterId.BETA_TOTAL_MIN])
def test_core_searches_keep_their_own_stack(pid):
    # Each core search dives one level per node, so on a long path its first
    # dive runs hundreds of levels deep. Under a recursion limit 100 frames
    # above this one, only a search on an explicit stack reaches its budget.
    G = generate("path", n=600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(BudgetExceededError, match=" after 501 nodes"):
            compute_parameter(G, pid, 500)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("pid", [p for p in ParameterId if p is not ParameterId.B_MATCHING_MAX])
def test_budget_error_names_the_tag(pid):
    # K4 is in no collapse class, so every variant runs its own search. The
    # error names the tag asked for, also where the search is another tag's
    # (alpha0 runs beta0's, beta1_minus beta_plain_minus's).
    k4 = generate("complete", n=4)
    if compute_parameter(k4, pid).nodes_explored == 0:
        compute_parameter(k4, pid, 0)
        return
    with pytest.raises(BudgetExceededError, match=f"^{pid.value}: "):
        compute_parameter(k4, pid, 0)


def test_engine_witness_is_lexmin():
    rng = random.Random(11)
    for _ in range(25):
        G = from_edge_mask(6, rng.randrange(1 << 15))
        for P in (PropertyId.INDUCED, PropertyId.UNIQUELY_RESTRICTED, PropertyId.CONNECTED):
            res = _variant_search(G, P, False)
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


# Symmetric graphs, where optima tie in every search. The
# oracle's mixed enumeration stops at 22 vertices plus edges: K_{4,4} and
# Petersen skip the total tags.
_PETERSEN = tuple([(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)])
TIE_HEAVY = {
    "Q3": (generate("hypercube", n=3), True),
    "C8": (generate("cycle", n=8), True),
    "prism": (Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))),
              True),
    "K44": (generate("complete_bipartite", a=4, b=4), False),
    "petersen": (Graph(10, _PETERSEN), False),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_search_witnesses_are_lexmin_under_ties(name):
    """Every search tag returns the oracle's value and lexicographically
    smallest witness on graphs full of tied optima, where a bound that cut a
    branch able to tie the best would lose the witness. The variants run
    their own searches here, past any collapse route."""
    G, with_total = TIE_HEAVY[name]
    got = {pid: compute_parameter(G, pid) for pid in (
        ParameterId.BETA0, ParameterId.GAMMA, ParameterId.BETA1_MINUS, ParameterId.BETA_SEP_MIN)}
    if with_total:
        for pid in (ParameterId.BETA_TOTAL_MAX, ParameterId.BETA_TOTAL_MIN):
            got[pid] = compute_parameter(G, pid)
    for P in PropertyId:
        got[PROPERTY_MAX_PARAM[P]] = _variant_search(G, P, False)
        got[PROPERTY_MIN_PARAM[P]] = _variant_search(G, P, True)
    wrong = [pid.value for pid, res in got.items()
             if not _same_answer(res, oracle_parameter(G, pid))]
    assert wrong == []


# -- classical parameters ---------------------------------------------------------------


def _classic_parameters(G):
    """The vertex cover, independence, domination and (without isolated
    vertices) edge cover numbers."""
    pids = [ParameterId.ALPHA0, ParameterId.BETA0, ParameterId.GAMMA]
    if all(G.degree(v) > 0 for v in range(G.n)):
        pids.append(ParameterId.ALPHA1)
    return {pid: compute_parameter(G, pid) for pid in pids}


def test_classic_parameters_frozen_values(p8, k4, c4):
    vals = _classic_parameters(p8)
    assert vals[ParameterId.ALPHA0].value == 4
    assert vals[ParameterId.BETA0].value == 4
    assert vals[ParameterId.ALPHA1].value == 4
    assert vals[ParameterId.GAMMA].value == 3
    vals = _classic_parameters(k4)
    assert vals[ParameterId.ALPHA0].value == 3
    assert vals[ParameterId.BETA0].value == 1
    assert vals[ParameterId.GAMMA].value == 1
    assert vals[ParameterId.ALPHA1].value == 2
    assert _classic_parameters(c4)[ParameterId.GAMMA].value == 2


def test_classic_parameters_witnesses(p8):
    vals = _classic_parameters(p8)
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
    with pytest.raises(ValueError, match="isolated"):
        compute_parameter(lone, ParameterId.ALPHA1)


@given(graphs(max_n=7))
def test_gallai_identity_from_searches(G):
    vals = _classic_parameters(G)
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


def _total_bounds(G):
    return (compute_parameter(G, ParameterId.BETA_TOTAL_MAX),
            compute_parameter(G, ParameterId.BETA_TOTAL_MIN))


def test_total_bounds_examples():
    k2 = generate("complete", n=2)
    mx, mn = _total_bounds(k2)
    assert (mx.value, mn.value) == (1, 1)
    k1 = generate("complete", n=1)
    mx, mn = _total_bounds(k1)
    assert (mx.value, mn.value) == (1, 1)
    p3 = generate("path", n=3)
    mx, mn = _total_bounds(p3)
    assert (mx.value, mn.value) == (2, 1)
    empty = Graph(0)
    mx, mn = _total_bounds(empty)
    assert (mx.value, mn.value) == (0, 0)


def test_total_bounds_witnesses_are_maximal(p8):
    mx, mn = _total_bounds(p8)
    for res in (mx, mn):
        vs, es = res.witness
        t = MixedSet(p8, vs, es)
        assert is_maximal_total_matching(p8, t)
        assert t.size == res.value
    assert (mx.value, mn.value) == (5, 3)


@given(graphs(max_n=6))
def test_total_bounds_match_oracle(G):
    mx, mn = _total_bounds(G)
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
    assert _same_answer(min_separating_matching(G), oracle_parameter(G, ParameterId.BETA_SEP_MIN))


def test_separating_hypercubes_past_the_oracle():
    # The dimension cuts; forcing settles the hypercubes in a few nodes.
    for d, value in ((5, 16), (6, 32)):
        res = min_separating_matching(generate("hypercube", n=d), 1000)
        assert res.value == value
        assert res.witness == tuple((v, v + 1) for v in range(0, 2 ** d, 2))


def test_separating_searches_every_component(q3):
    k3 = generate("complete", n=3)
    k4 = generate("complete", n=4)
    # K4 has no matching cut, so the answer comes from the second component.
    shifted = tuple((u + 4, v + 4) for u, v in q3.edges)
    G = Graph(12, k4.edges + shifted)
    res = min_separating_matching(G)
    assert (res.value, res.witness) == (4, ((4, 5), (6, 7), (8, 9), (10, 11)))
    k3_k4 = Graph(7, k3.edges + tuple((u + 3, v + 3) for u, v in k4.edges))
    assert min_separating_matching(k3_k4).value is None


@pytest.mark.parametrize("family, kw, value, nodes", [
    ("path", {"n": 200}, 1, 793),
    ("random_tree", {"n": 100, "seed": 1}, 1, 761),
    ("cycle", {"n": 30}, 2, 811),
])
def test_separating_node_counts_on_sparse_graphs(family, kw, value, nodes):
    # Exact counts. A cut as large as the best one admits no further cut
    # edge: it floods the rest of its component within one node, or is
    # dropped at once when it is not lexicographically smaller. Without
    # both rules a path takes quadratically many nodes.
    res = min_separating_matching(generate(family, **kw))
    assert (res.value, res.nodes_explored) == (value, nodes)


def test_bridges_settle_the_separating_minimum():
    """Seeded graphs with n = 6-12: two random parts joined by one edge, a
    bridge. ``compute_parameter`` answers 1 with the smallest bridge and no
    search, as the oracle and the matching-cut search answer."""
    rng = random.Random(27)
    for _ in range(80):
        n = rng.randint(6, 12)
        cut = rng.randint(2, n - 2)
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if (u < cut) == (v < cut)]
        edges = set(rng.sample(pairs, min(len(pairs), rng.randint(n - 2, 19))))
        edges.add((rng.randrange(cut), rng.randrange(cut, n)))
        G = Graph(n, tuple(sorted(edges)))
        res = compute_parameter(G, ParameterId.BETA_SEP_MIN)
        assert (res.route, res.nodes_explored, res.value) == ("fast-path", 0, 1), G.edges
        assert _same_answer(res, oracle_parameter(G, ParameterId.BETA_SEP_MIN)), G.edges
        searched = min_separating_matching(G)
        assert (searched.value, searched.witness) == (res.value, res.witness), G.edges


# -- block-structure fast path ------------------------------------------------------------------------


def test_block_fast_path_cases(c4, c5):
    # Every block an edge or a chordless odd cycle: no even cycle, so beta_ur
    # takes the blossom route with the search's answer.
    c7p = Graph(8, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 7),))
    for G in [generate("random_tree", n=9, seed=seed) for seed in range(5)] + [c5, c7p]:
        res = compute_parameter(G, ParameterId.BETA_UR)
        assert res.route == "fast-path"
        assert res.value == _variant_search(G, PropertyId.UNIQUELY_RESTRICTED, False).value
    assert compute_parameter(c5, ParameterId.BETA_UR).value == 2
    assert compute_parameter(c4, ParameterId.BETA_UR).route == "search"


def test_theorem_routes_keep_the_search_answers(c4, c5, q3):
    trees = [generate("random_tree", n=9, seed=seed) for seed in range(5)]
    for G in trees + [c4, c5, q3, generate("fig3")]:
        ur = compute_parameter(G, ParameterId.BETA_UR)
        search = _variant_search(G, PropertyId.UNIQUELY_RESTRICTED, False)
        assert (ur.value, ur.witness) == (search.value, search.witness)
        assert ur.route == ("fast-path" if is_even_cycle_free(G) else "search")
        plain = compute_parameter(G, ParameterId.BETA_PLAIN)
        assert plain.parameter is ParameterId.BETA_PLAIN and plain.route == "fast-path"
        search = _variant_search(G, PropertyId.PLAIN, False)
        assert (plain.value, plain.witness) == (search.value, search.witness)


# A graph in the class of each row of the collapse table.
COLLAPSE_CASES = {
    "bipartite": lambda: generate("hypercube", n=3),
    "triangle-free": lambda: generate("cycle", n=5),
    "no even cycle": lambda: Graph(8, tuple((i, (i + 1) % 7) for i in range(7)) + ((0, 7),)),
    "forest": lambda: generate("random_tree", n=9, seed=2),
}


@pytest.mark.parametrize("row", COLLAPSE_CLASSES, ids=lambda row: row[0])
def test_collapsed_tags_take_the_plain_routes(row):
    name, test, props = row
    G = COLLAPSE_CASES[name]()
    assert test(G)
    for P in props:
        for pid, plain in ((PROPERTY_MAX_PARAM[P], max_matching(G)),
                           (PROPERTY_MIN_PARAM[P], min_maximal_matching(G))):
            assert compute_parameter(G, pid) == replace(plain, parameter=pid)


def test_collapse_needs_the_class():
    # K4 has triangles and an even cycle, and C4 is bipartite with an even
    # cycle: those variants take their searches.
    k4, c4 = generate("complete", n=4), generate("cycle", n=4)
    for G, pid in ((k4, ParameterId.BETA_ON), (k4, ParameterId.BETA_CN_MINUS),
                   (k4, ParameterId.BETA_I), (k4, ParameterId.BETA_AC_MINUS),
                   (c4, ParameterId.BETA_UR_MINUS), (c4, ParameterId.BETA_AC)):
        P = TAG_PROPERTY[pid]
        search = _variant_search(G, P, pid in VARIANT_MINIMA)
        assert compute_parameter(G, pid) == search


def test_collapsed_minima_explore_as_many_nodes_as_beta1_minus():
    """Counter gate: on a 40-vertex tree each collapsed minimum runs exactly
    the lower matching number's search, where its own predicate search runs
    for seconds."""
    T = generate("random_tree", n=40, seed=1)
    nodes = compute_parameter(T, ParameterId.BETA1_MINUS).nodes_explored
    for pid in (ParameterId.BETA_UR_MINUS, ParameterId.BETA_AC_MINUS,
                ParameterId.BETA_I_MINUS, ParameterId.BETA_B_MINUS):
        assert compute_parameter(T, pid).nodes_explored == nodes


def test_connected_minima_search_maximal_matchings():
    """Counter gate: on a 40-vertex tree the connected and isolate-free
    minima filter the maximal matchings of the dominating search, where the
    first-hit search walked over 3M smaller matchings."""
    T = generate("random_tree", n=40, seed=1)
    got = {pid: compute_parameter(T, pid).nodes_explored
           for pid in (ParameterId.BETA_C_MINUS, ParameterId.BETA_IF_MINUS)}
    assert got == {ParameterId.BETA_C_MINUS: 19203, ParameterId.BETA_IF_MINUS: 6703}


@pytest.mark.parametrize("family, kw, pid, nodes", [
    # The maximum search's clique partition.
    ("hypercube", dict(n=4), ParameterId.BETA_TOTAL_MAX, 5885),
    # The dominating search's packing: millions of nodes without it.
    ("random_tree", dict(n=40, seed=1), ParameterId.GAMMA, 6384),
    ("random_tree", dict(n=60, seed=2), ParameterId.BETA1_MINUS, 331),
    # The first-hit search's matching-room test, and the maximum's one walk
    # whose hits raise the target.
    ("hypercube", dict(n=4), ParameterId.BETA_E_IR_MAX, 1758),
    ("hypercube", dict(n=4), ParameterId.BETA_V_IR_MAX, 5780),
    # The maximum search's branching on the elements that its clique
    # partition leaves: a take/drop branch on one element took over 3M nodes
    # on each.
    ("random_tree", dict(n=40, seed=1), ParameterId.BETA_TOTAL_MAX, 50416),
    ("path", dict(n=200), ParameterId.BETA0, 15051),
    # The dominating search's children that exclude their older siblings'
    # candidates, and its tie cut: past 30 s without them.
    ("path", dict(n=200), ParameterId.GAMMA, 13466),
    # The same tie cut in the (vertices, edges) order of total matchings:
    # 1,927,537 and 473,228 nodes when it cut under the plain order only.
    ("path", dict(n=40), ParameterId.BETA_TOTAL_MIN, 52981),
    ("random_tree", dict(n=40, seed=1), ParameterId.BETA_TOTAL_MIN, 45046),
])
def test_search_bounds_cut(family, kw, pid, nodes):
    """Counter gate: each search's bound, where it bites."""
    assert compute_parameter(generate(family, **kw), pid).nodes_explored == nodes


@pytest.mark.parametrize("kw, pid, nodes", [
    (dict(n=40, seed=1), ParameterId.BETA_C, 6755),
    (dict(n=40, seed=1), ParameterId.BETA_IF, 1971),
    (dict(n=60, seed=2), ParameterId.BETA_C, 82679),
])
def test_connected_maxima_walk_at_the_matching_number(kw, pid, nodes):
    """Counter gate: on a tree the connected and isolate-free maxima make one
    walk at k = ν, where a walk from k = 1 takes up to 100 times the nodes
    (5.9M on the 60-vertex tree)."""
    assert compute_parameter(generate("random_tree", **kw), pid).nodes_explored == nodes


def test_component_maxima_share_one_budget():
    # P4 + C5 + K2: both maxima walk P4 and C5 at k = 2 each and skip K2
    # (ν = 1). The isolate-free one keeps both hits, the connected one P4's.
    G = Graph(11, ((0, 1), (1, 2), (2, 3), (4, 5), (4, 8), (5, 6), (6, 7), (7, 8), (9, 10)))
    res = compute_parameter(G, ParameterId.BETA_IF)
    assert (res.value, res.witness) == (4, ((0, 1), (2, 3), (4, 5), (6, 7)))
    assert compute_parameter(G, ParameterId.BETA_C).witness == ((0, 1), (2, 3))
    budget = res.nodes_explored - 1
    with pytest.raises(BudgetExceededError, match=f"^beta_if: .* after {res.nodes_explored} nodes"):
        compute_parameter(G, ParameterId.BETA_IF, budget)
    # No component with ν >= 2: a single edge is isolate-free by fiat.
    two_k2 = Graph(4, ((0, 1), (2, 3)))
    assert compute_parameter(two_k2, ParameterId.BETA_IF).witness == ((0, 1),)


def test_component_routes_match_the_oracle_on_interleaved_unions():
    # The connected and isolate-free maxima walk each component relabeled in
    # order and map the hit back; their minima root the search at each
    # component. Shuffled labels interleave the components.
    rng = random.Random(26)
    for _ in range(80):
        parts = [next(random_graphs(rng.randint(2, 5), 1, rng.randrange(10**6)))
                 for _ in range(rng.randint(2, 3))]
        n = sum(H.n for H in parts)
        perm, edges, off = rng.sample(range(n), n), [], 0
        for H in parts:
            edges += [(perm[off + u], perm[off + v]) for u, v in H.edges]
            off += H.n
        G = Graph(n, tuple(edges))
        for pid in (ParameterId.BETA_C, ParameterId.BETA_IF,
                    ParameterId.BETA_C_MINUS, ParameterId.BETA_IF_MINUS):
            assert _same_answer(compute_parameter(G, pid), oracle_parameter(G, pid)), (G, pid)


def _split_key(t):
    """The tuple key of the core's order split at t: the elements below t,
    then the rest. At t = 0 it orders sets as the plain tuples do."""
    return lambda sel: (tuple(i for i in sel if i < t), tuple(i for i in sel if i >= t))


def _brute_max_independent(conflict, key):
    """The key-smallest largest independent set, over all subsets."""
    best = None
    for mask in range(1 << len(conflict)):
        sel = tuple(i for i in range(len(conflict)) if mask >> i & 1)
        if any(conflict[i] & mask for i in sel):
            continue
        rank = (-len(sel), key(sel))
        if best is None or rank < best:
            best = rank
    return best


def test_precedes_is_the_split_tuple_order():
    """The core's mask comparison against the tuple key, on every pair of
    equally sized subsets of up to 8 elements, at every split."""
    for n in range(9):
        for t in range(n + 1):
            key, low = _split_key(t), (1 << t) - 1
            for size in range(n + 1):
                sets = {sum(1 << i for i in sel): key(sel)
                        for sel in itertools.combinations(range(n), size)}
                for a, b in itertools.product(sets, repeat=2):
                    assert _precedes(a, b, low) == (sets[a] < sets[b]), (n, t, a, b)


def test_max_independent_matches_brute_force():
    """The core's maximum search on seeded random conflict graphs of 1-14
    elements at four densities, in plain order and split at a random t, the
    total matchings' order (elements below t, then the rest), against a brute
    force that ranks sets by that tuple key."""
    rng = random.Random(22)
    for n in range(1, 15):
        for p in (0.1, 0.3, 0.5, 0.8):
            conflict = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    conflict[i] |= 1 << j
                    conflict[j] |= 1 << i
            t = rng.randint(0, n)
            for split in (0, t):
                key = _split_key(split)
                chosen, _ = _max_independent(conflict, None, "test", split)
                assert (-len(chosen), key(chosen)) == _brute_max_independent(conflict, key), \
                    (conflict, split)
    # The budget, in both orders: a search of more nodes raises after
    # budget + 1 of them.
    for split in (0, t):
        nodes = _max_independent(conflict, None, "test", split)[1]
        assert nodes > 3
        with pytest.raises(BudgetExceededError, match="^test: .* after 4 nodes"):
            _max_independent(conflict, 3, "test", split)


def _dominating_sets(masks, independent, root):
    """Every set that the dominating search may end at from ``root``: it
    covers what the root leaves, and with ``independent`` it is an
    independent set among the elements that the root leaves."""
    n = len(masks)
    closed = [c | 1 << i for i, c in enumerate(masks)]
    full = (1 << n) - 1
    cover, clash = [root] + [0] * full, [False] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        cover[mask] = cover[mask ^ low] | closed[i]
        clash[mask] = clash[mask ^ low] or bool(masks[i] & mask)
    return [mask for mask in range(1 << n) if cover[mask] == full
            and not (independent and (clash[mask] or mask & root))]


def _first_cover_replay(masks, independent, root, sel):
    """The set that the search reaches by following ``sel``: the lowest
    element of ``sel`` that covers the first uncovered element, in turn."""
    closed = [c | 1 << i for i, c in enumerate(masks)]
    full, dominated, cur = (1 << len(masks)) - 1, root, ()
    while dominated != full:
        free = full & ~dominated
        first = (free & -free).bit_length() - 1
        allowed = closed[first] & (free if independent else full)
        took = [i for i in sel if allowed >> i & 1]
        if not took:
            return None
        cur += (took[0],)
        dominated |= closed[took[0]]
    return tuple(sorted(cur))


def test_min_dominating_matches_brute_force():
    """The core's dominating search on seeded random masks of 1-14 elements
    at four densities, in both modes, in plain order and split at a random t
    (the total matchings' order), with an ``accept`` filter on the
    independent sets and two roots, against a brute force that ranks sets by
    the tuple key. With a filter that takes nothing no bound cuts, and the
    filter sees each set the search ends at: each exactly once."""
    rng = random.Random(23)
    bits = [tuple(i for i in range(14) if mask >> i & 1) for mask in range(1 << 14)]
    split_nodes = 0
    for n in range(1, 15):
        for p in (0.1, 0.3, 0.5, 0.8):
            masks = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
            t = rng.randint(0, n)
            odd = lambda sel: sum(sel) % 3 != 1
            two_roots = (rng.getrandbits(n), rng.getrandbits(n))
            for independent in (True, False):
                ends = {root: [bits[mask] for mask in _dominating_sets(masks, independent, root)]
                        for root in (0,) + two_roots}
                # A filter sees only the sets the search ends at, and those
                # are all the covering sets only when they are independent.
                takes = odd if independent else None
                for split, accept, roots in ((0, None, (0,)), (t, None, (0,)),
                                             (0, takes, (0,)), (t, takes, (0,)),
                                             (0, None, two_roots), (t, takes, two_roots)):
                    key = _split_key(split)
                    chosen, nodes = _min_dominating(masks, independent, None, "test",
                                                    split, accept, roots)
                    split_nodes += nodes if split else 0
                    sets = [sel for root in roots for sel in ends[root]
                            if accept is None or accept(sel)]
                    # With no set taken the search returns the empty set.
                    size = min(map(len, sets), default=0)
                    small = [sel for sel in sets if len(sel) == size] or [()]
                    want = size, min(map(key, small))
                    assert (len(chosen), key(chosen)) == want, (masks, independent, t, roots)
                seen = []
                _min_dominating(masks, independent, None, "test",
                                accept=lambda sel: seen.append(sel) and False,
                                roots=two_roots)
                once = [sel for root in two_roots for sel in ends[root]
                        if _first_cover_replay(masks, independent, root, sel) == sel]
                assert sorted(seen) == sorted(once), (masks, independent, two_roots)
    # Counter gate on the tie cut in split order (7,327 nodes with no tie cut
    # there): a cut that keeps nodes it could cut keeps every answer.
    assert split_nodes == 5164
    # The budget, in both orders: a search of more nodes raises after
    # budget + 1 of them.
    for split in (0, t):
        nodes = _min_dominating(masks, True, None, "test", split)[1]
        assert nodes > 3
        with pytest.raises(BudgetExceededError, match="^test: .* after 4 nodes"):
            _min_dominating(masks, True, 3, "test", split)


# Exact search node counts of the independent-set core, the first-hit search
# and the theorem routes; a change here is a change in the search, not noise.
PINNED_GRAPHS = {
    "hypercube-3": lambda: generate("hypercube", n=3),
    "hypercube-4": lambda: generate("hypercube", n=4),
    "gnp-12": lambda: generate("gnp", n=12, p=0.4, seed=1),
}
PINNED_NODES = {
    "hypercube-3": {
        "beta0": 19, "alpha0": 19, "gamma": 17, "beta_plain": 0, "beta_ur": 38,
        "beta_star": 19, "beta_on": 0, "beta_cn": 0, "beta1_minus": 21,
        "beta_plain_minus": 21, "beta_star_minus": 13, "beta_on_minus": 21,
        "beta_cn_minus": 21, "beta_total_max": 127, "beta_total_min": 96,
        "beta_ur_minus": 3, "beta_c": 4, "beta_c_minus": 21, "beta_if": 4,
        "beta_if_minus": 21, "beta_dc": 43, "beta_dc_minus": 8, "beta_ac": 38,
        "beta_ac_minus": 3, "beta_i": 0, "beta_i_minus": 21, "beta_b": 0,
        "beta_b_minus": 21, "beta_v_IR": 23, "beta_v_ir": 14, "beta_e_IR": 45,
        "beta_e_ir": 8, "beta_sep_min": 7,
    },
    "hypercube-4": {
        "beta0": 59, "alpha0": 59, "gamma": 62, "beta_plain": 0, "beta_ur": 4632,
        "beta_star": 67, "beta_on": 0, "beta_cn": 0, "beta1_minus": 642,
        "beta_plain_minus": 642, "beta_star_minus": 33, "beta_on_minus": 642,
        "beta_cn_minus": 642, "beta_total_max": 5885, "beta_total_min": 7565,
        "beta_ur_minus": 936, "beta_c": 8, "beta_c_minus": 642, "beta_if": 8,
        "beta_if_minus": 642, "beta_dc": 4196, "beta_dc_minus": 2349, "beta_ac": 3213,
        "beta_ac_minus": 152, "beta_i": 0, "beta_i_minus": 642, "beta_b": 0,
        "beta_b_minus": 642, "beta_v_IR": 5780, "beta_v_ir": 26, "beta_e_IR": 1758,
        "beta_e_ir": 3414, "beta_sep_min": 9,
    },
    "gnp-12": {
        "beta0": 30, "alpha0": 30, "gamma": 42, "beta_plain": 0, "beta_ur": 130,
        "beta_star": 43, "beta_on": 156, "beta_cn": 161, "beta1_minus": 162,
        "beta_plain_minus": 162, "beta_star_minus": 26, "beta_on_minus": 195,
        "beta_cn_minus": 30, "beta_total_max": 417, "beta_total_min": 755,
        "beta_ur_minus": 9, "beta_c": 8, "beta_c_minus": 162, "beta_if": 8,
        "beta_if_minus": 162, "beta_dc": 553, "beta_dc_minus": 1, "beta_ac": 84,
        "beta_ac_minus": 10, "beta_i": 204, "beta_i_minus": 418, "beta_b": 157,
        "beta_b_minus": 202, "beta_v_IR": 131, "beta_v_ir": 4, "beta_e_IR": 363,
        "beta_e_ir": 215, "beta_sep_min": 3,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_NODES))
def test_pinned_node_counts(name):
    G = PINNED_GRAPHS[name]()
    got = {tag: compute_parameter(G, ParameterId.from_string(tag)).nodes_explored
           for tag in PINNED_NODES[name]}
    assert got == PINNED_NODES[name]


# The variants that the first-hit search answers: all nine for their maxima,
# all but connected and isolate-free for their minima.
FIRST_HIT = (
    PropertyId.UNIQUELY_RESTRICTED, PropertyId.CONNECTED, PropertyId.ISOLATE_FREE,
    PropertyId.DISCONNECTED, PropertyId.ACYCLIC, PropertyId.INDEPENDENT,
    PropertyId.BIPARTITE, PropertyId.VERTEX_IRREDUNDANT, PropertyId.EDGE_IRREDUNDANT,
)
FIRST_HIT_MINIMA = tuple(P for P in FIRST_HIT
                         if P not in (PropertyId.CONNECTED, PropertyId.ISOLATE_FREE))


def _step_disagreements(G, m, P):
    """The edges e disjoint from V(M) on which the first-hit step from M's
    state and ``has_property(G, M + e, P)`` disagree. M is stepped in edge
    by edge; a hereditary P must hold on M."""
    start, step = _stepper(G, P)
    pos = {e: j for j, e in enumerate(G.edges)}
    state = start
    for e in m.edges:
        _, state = step(state, pos[e])
    return [e for e in G.edges
            if not m.sat_mask & (1 << e[0] | 1 << e[1])
            and step(state, pos[e])[0] != has_property(G, m.edges + (e,), P)]


@pytest.mark.parametrize("P", FIRST_HIT, ids=lambda P: P.value)
def test_first_hit_steps_match_the_predicates_exhaustive(P):
    """Every labeled graph with n <= 5, every matching M (with P when P is
    hereditary), every edge disjoint from V(M)."""
    for n in range(2, 6):
        for G in all_graphs(n):
            for m in all_matchings(G):
                if P in HEREDITARY_PROPERTIES and not has_property(G, m, P):
                    continue
                assert _step_disagreements(G, m, P) == [], (G.edges, m.edges)


@given(graph_with_matching(min_n=6, max_n=8))
def test_first_hit_steps_match_the_predicates_sampled_larger(gm):
    G, m = gm
    for P in FIRST_HIT:
        if P in HEREDITARY_PROPERTIES and not has_property(G, m, P):
            continue
        assert _step_disagreements(G, m, P) == [], P


HEREDITARY_FIRST_HIT = tuple(P for P in FIRST_HIT if P in HEREDITARY_PROPERTIES)


def _pair_row_faults(G, P):
    """The edges i whose failing-pair row from ``_pair_rows`` is not the set
    of edges j > i that share no end with edge i and for which
    ``has_property(G, (e_i, e_j), P)`` is False, and the rows left unset."""
    rows, fill = _pair_rows(G, P)
    faults = []
    for i, (a, b) in enumerate(G.edges):
        want = sum(1 << j for j in range(i + 1, len(G.edges))
                   if not {a, b} & set(G.edges[j])
                   and not has_property(G, (G.edges[i], G.edges[j]), P))
        if fill(i) != want or rows[i] != want:
            faults.append(i)
    return faults


@pytest.mark.parametrize("P", HEREDITARY_FIRST_HIT, ids=lambda P: P.value)
def test_pair_rows_match_the_predicates_exhaustive(P):
    """Every labeled graph with n <= 5: each row of failing pairs."""
    for n in range(2, 6):
        for G in all_graphs(n):
            assert _pair_row_faults(G, P) == [], G.edges


@given(graphs(min_n=6, max_n=8))
def test_pair_rows_match_the_predicates_sampled_larger(G):
    for P in HEREDITARY_FIRST_HIT:
        assert _pair_row_faults(G, P) == [], P


def _far_edges(G, sat, rule):
    """The edges uv disjoint from V(M) = ``sat`` that the first-hit minima's
    extension rule ``rule`` says extend a P-matching M with P: (a) u or v
    sees no vertex of V(M); (b) no end lies in N[V(M)], and for e_IR uv is
    not a component of G; (c) no end lies within distance 2 of V(M), and a
    third vertex is adjacent to exactly one of u and v."""
    adj, ring = G.adj_masks, sat
    for _ in range(1 if rule in ("a", "b", "b_e") else 2):
        ring |= reduce(or_, (adj[x] for x in range(G.n) if ring >> x & 1), 0)
    out = []
    for u, v in G.edges:
        uv = 1 << u | 1 << v
        if sat & uv:
            continue
        if rule == "a":
            far = not adj[u] & sat or not adj[v] & sat
        else:
            far = not ring & uv
        if rule == "b_e":
            far = far and adj[u] | adj[v] != uv
        if rule == "c":
            far = far and bool((adj[u] ^ adj[v]) & ~uv)
        if far:
            out.append((u, v))
    return out


EXTENSION_RULES = (
    ("a", PropertyId.UNIQUELY_RESTRICTED), ("a", PropertyId.INDEPENDENT),
    ("b", PropertyId.ACYCLIC), ("b", PropertyId.BIPARTITE), ("b", PropertyId.DISCONNECTED),
    ("b_e", PropertyId.EDGE_IRREDUNDANT), ("c", PropertyId.VERTEX_IRREDUNDANT),
)


def _extension_faults(G, rule, P):
    """The pairs (M, e) with M a P-matching of G and e an edge that ``rule``
    says extends M, for which ``property_holds`` denies M + e its P."""
    return [(m.edges, e) for m in all_matchings(G) if has_property(G, m, P)
            for e in _far_edges(G, m.sat_mask, rule)
            if not property_holds(G, P, tuple(sorted(m.edges + (e,))))]


@pytest.mark.parametrize("rule, P", EXTENSION_RULES, ids=lambda x: getattr(x, "value", x))
def test_maximality_rules_extend_exhaustive(rule, P):
    """Every labeled graph with n <= 5: each edge that a first-hit minimum's
    maximality cut counts on extends every P-matching it is far from. So a
    P-maximal M reaches every such edge, which is what the cut asks of a
    hit."""
    for n in range(2, 6):
        for G in all_graphs(n):
            assert _extension_faults(G, rule, P) == [], G.edges


@given(graphs(min_n=6, max_n=8))
@settings(max_examples=25)
def test_maximality_rules_extend_sampled_larger(G):
    for rule, P in EXTENSION_RULES:
        assert _extension_faults(G, rule, P) == [], P


def test_maximality_rules_need_their_variants():
    """Rule (a) fails for acyclic matchings (the edges into V(M) can close a
    cycle), rule (b) without its K2 exception for e_IR, and rule (c) without
    its third vertex for v_IR; each has a counterexample with n <= 5."""
    for rule, P in (("a", PropertyId.ACYCLIC), ("b", PropertyId.EDGE_IRREDUNDANT),
                    ("b", PropertyId.VERTEX_IRREDUNDANT)):
        assert any(_extension_faults(G, rule, P) for n in range(2, 6) for G in all_graphs(n)), P


def test_first_hit_minima_match_the_oracle_on_sparse_graphs():
    """The seven first-hit minima on seeded random forests and sparse graphs
    with two to four components, n = 8-14 and at most 22 edges, labels
    shuffled: value and witness are the oracle's. Far edges abound there, so
    the maximality cut bites hardest."""
    rng = random.Random(29)
    for i in range(60):
        n = rng.randint(8, 14)
        perm, edges = rng.sample(range(n), n), set()
        if i % 2:
            for v in range(1, n):
                if rng.random() < 0.85:
                    edges.add(tuple(sorted((perm[v], perm[rng.randrange(v)]))))
        else:
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
            for a, b in zip([0] + cuts, cuts + [n]):
                pairs = [(perm[u], perm[v]) for u, v in itertools.combinations(range(a, b), 2)]
                edges |= {tuple(sorted(e)) for e in rng.sample(pairs, min(len(pairs), 6))}
        G = Graph(n, tuple(sorted(edges)[:22]))
        for P in FIRST_HIT_MINIMA:
            pid = PROPERTY_MIN_PARAM[P]
            assert _same_answer(_variant_search(G, P, True), oracle_parameter(G, pid)), (G.edges, P)


def test_ur_step_searches_only_when_both_ends_see_the_old_saturated_set(monkeypatch):
    """Every labeled graph with n <= 5, every uniquely restricted M, every
    edge uv disjoint from V(M): the ur step looks for an alternating cycle
    exactly when u and v each have a neighbor in V(M), since such a cycle
    leaves both on unmatched edges into it."""
    calls = []
    search = solvers._alternating_cycle
    monkeypatch.setattr(solvers, "_alternating_cycle",
                        lambda *args: calls.append(args) or search(*args))
    P = PropertyId.UNIQUELY_RESTRICTED
    for n in range(2, 6):
        for G in all_graphs(n):
            adj, pos = G.adj_masks, {e: j for j, e in enumerate(G.edges)}
            for m in all_matchings(G):
                if not has_property(G, m, P):
                    continue
                start, step = _stepper(G, P)
                state = start
                for e in m.edges:
                    state = step(state, pos[e])[1]
                for u, v in G.edges:
                    if not m.sat_mask & (1 << u | 1 << v):
                        calls.clear()
                        step(state, pos[(u, v)])
                        sees = bool(adj[u] & m.sat_mask and adj[v] & m.sat_mask)
                        assert bool(calls) == sees, (G.edges, m.edges, (u, v))


def _independent_state_faults(G, order):
    """Step M's edges in ``order`` with the independent step, and after each
    step and each one-edge extension by an edge disjoint from V(M) return
    the faults: ``holds`` differing from ``is_independent_matching``, or,
    where it holds, carried tails that are not one end of each matched edge,
    inside V(M) and independent in G."""
    start, step = _stepper(G, PropertyId.INDEPENDENT)
    pos = {e: j for j, e in enumerate(G.edges)}
    adj, faults = G.adj_masks, []

    def check(edges, holds, state):
        if holds != is_independent_matching(G, edges):
            faults.append(("holds", edges))
        elif holds:
            sat, tails = state
            one_end = all((tails >> u & 1) + (tails >> v & 1) == 1 for u, v in edges)
            if (sat != Matching(G, edges).sat_mask or tails & ~sat or not one_end
                    or any(adj[x] & tails for x in range(G.n) if tails >> x & 1)):
                faults.append(("tails", edges))

    state, done = start, ()
    for e in order:
        holds, state = step(state, pos[e])
        done += (e,)
        check(done, holds, state)
    for e in G.edges:
        if not Matching(G, done).sat_mask & (1 << e[0] | 1 << e[1]):
            check(done + (e,), *step(state, pos[e]))
    return faults


def test_independent_step_carries_an_orientation_exhaustive():
    """Every labeled graph with n <= 5 and every independent matching M,
    stepped edge by edge in sorted order and extended by each edge disjoint
    from it: the step agrees with the predicate, and its tails are those of
    an orientation of M with independent tails."""
    for n in range(2, 6):
        for G in all_graphs(n):
            for m in all_matchings(G):
                if is_independent_matching(G, m):
                    assert _independent_state_faults(G, m.edges) == [], (G.edges, m.edges)


@given(graphs(min_n=6, max_n=8), st.randoms(use_true_random=False))
def test_independent_step_carries_an_orientation_sampled_larger(G, rnd):
    """As above on sampled graphs with n = 6-8, each independent matching
    stepped in a random order. Three matched edges or more can leave one
    that the propagation does not reach, which keeps its old tail."""
    for m in all_matchings(G):
        if is_independent_matching(G, m):
            order = rnd.sample(m.edges, len(m.edges))
            assert _independent_state_faults(G, order) == [], (G.edges, order)


def test_first_hit_maxima_match_the_oracle_at_its_cap():
    """The nine first-hit maxima on seeded graphs with n = 10-12 and 14-22
    edges, up to the oracle's cap: value and witness are the oracle's. The
    walk cuts its early prefixes against a low target, which shows most where
    the matching number is well above the answer (in 91 of these 360 cases
    by two or more)."""
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(10, 12)
        pairs = list(itertools.combinations(range(n), 2))
        G = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(14, 22)))))
        for P in FIRST_HIT:
            assert _same_answer(_variant_search(G, P, False), oracle_parameter(
                G, PROPERTY_MAX_PARAM[P]
            )), (G.edges, P)


def test_first_hit_variant_cuts_match_the_oracle():
    """The disconnected and vertex-irredundant maxima and minima on seeded
    graphs with n = 8-12, 10-22 edges and one to three components: value and
    witness are the oracle's. Cutting a prefix whose <M> has two components
    (not one) with no far edge gives 18 wrong maxima and 3 wrong minima here;
    cutting a tight private count (3k + seen = n) gives 3 wrong v_IR maxima,
    each on a connected graph with n = 3k."""
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(8, 12)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3) - 1))
        pairs = [(u, v) for a, b in zip([0] + cuts, cuts + [n])
                 for u, v in itertools.combinations(range(a, b), 2)]
        G = Graph(n, tuple(sorted(rng.sample(pairs, min(len(pairs), rng.randint(10, 22))))))
        for P in (PropertyId.DISCONNECTED, PropertyId.VERTEX_IRREDUNDANT):
            for minimum in (False, True):
                pid = (PROPERTY_MIN_PARAM if minimum else PROPERTY_MAX_PARAM)[P]
                assert _same_answer(_variant_search(G, P, minimum),
                                    oracle_parameter(G, pid)), (G.edges, pid)


def test_first_hit_search_calls_no_predicate(monkeypatch):
    """Counter gate: the first-hit maxima and minima settle every candidate
    with their steps, never through ``properties``' predicates."""
    calls = []
    counted = {P: (lambda P, f: lambda G, m: calls.append(P) or f(G, m))(P, f)
               for P, f in properties._DISPATCH.items()}
    monkeypatch.setattr(properties, "_DISPATCH", counted)
    has_property(PINNED_GRAPHS["hypercube-3"](), ((0, 1),), PropertyId.ACYCLIC)
    assert calls == [PropertyId.ACYCLIC]  # the patch sees predicate calls
    calls.clear()
    for name in sorted(PINNED_GRAPHS):
        G = PINNED_GRAPHS[name]()
        for P in FIRST_HIT:
            _variant_search(G, P, False)
        for P in FIRST_HIT_MINIMA:
            _variant_search(G, P, True)
    assert calls == []


def test_kernels_build_no_graph(monkeypatch):
    """Counter gate: the matching kernels, the first-hit search and the
    separating-matching search work on adjacency lists and masks of the
    input and construct no Graph at all."""
    G = generate("gnp", n=12, p=0.4, seed=1)
    q3 = generate("hypercube", n=3)
    built = []
    post_init = Graph.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    Graph(2, ((0, 1),))
    assert built == [2]  # the patch sees constructions
    built.clear()

    max_matching_size(G)
    lexmin_maximum_matching(G)
    _variant_search(G, PropertyId.ACYCLIC, False)
    min_separating_matching(q3)
    min_separating_matching(G)
    assert built == []


def test_separating_witness_is_a_matching_cut_exhaustive():
    for n in range(0, 6):
        for G in all_graphs(n):
            res = min_separating_matching(G)
            if res.value is None:
                assert res.witness is None
            else:
                assert len(res.witness) == res.value
                assert is_matching(G, res.witness) and is_edge_cut(G, res.witness)


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


def test_compute_parameter_refuses_a_non_tag(p8):
    # A string is no tag, even a tag's value: ValueError, never KeyError.
    with pytest.raises(ValueError, match="^no solver route for beta1$"):
        compute_parameter(p8, "beta1")


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
    elif pid in TAG_PROPERTY:
        P = TAG_PROPERTY[pid]
        m = Matching(G, w)
        assert has_property(G, m, P)
        assert len(w) == res.value
        if pid in VARIANT_MINIMA:
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
        assert _variant_search(G, PropertyId.CONNECTED, False).value == beta1
        assert _variant_search(G, PropertyId.ISOLATE_FREE, False).value == beta1


def test_empty_graph_parameters():
    empty = Graph(0)
    for pid in ParameterId:
        res = compute_parameter(empty, pid)
        if pid in VARIANT_MINIMA or pid in (ParameterId.BETA1_MINUS, ParameterId.BETA_SEP_MIN):
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
