import itertools

import pytest
from hypothesis import given

from pmatch.graph import FIGURE_MATCHINGS, Graph, generate, induced_subgraph
from pmatch.oracle import all_matchings, oracle_orientation_feasible, oracle_perfect_matchings
from pmatch.properties import (
    HEREDITARY_PROPERTIES,
    BoundFunction,
    Matching,
    MixedSet,
    PropertyId,
    are_cnbr_adjacent,
    are_onbr_adjacent,
    as_matching,
    find_alternating_cycle,
    find_bipartite_orientation,
    find_independent_orientation,
    has_property,
    is_acyclic_matching,
    is_b_matching,
    is_bipartite_matching,
    is_cnbr_matching,
    is_connected_matching,
    is_disconnected_matching,
    is_edge_irredundant_matching,
    is_independent_matching,
    is_induced_matching,
    is_isolate_free_matching,
    is_matching,
    is_maximal_matching,
    is_maximal_p_matching,
    is_maximal_total_matching,
    is_onbr_matching,
    is_perfect_matching,
    is_separating_matching,
    is_total_matching,
    is_uniquely_restricted,
    is_vertex_irredundant_matching,
    matching_violation,
    pairwise_conflict_masks,
    total_violation,
)
from pmatch.theorems import all_graphs, random_graphs

from conftest import graph_with_matching


P8_PERFECT = ((0, 1), (2, 3), (4, 5), (6, 7))
P8_SMALL_MAXIMAL = ((1, 2), (3, 4), (5, 6))


# -- matching basics --------------------------------------------------------------


def test_is_matching_examples(p8):
    assert is_matching(p8, P8_PERFECT)
    assert not is_matching(p8, ((0, 1), (1, 2)))
    assert matching_violation(p8, ((0, 1), (1, 2))) == 1
    assert is_matching(p8, ())
    with pytest.raises(ValueError):
        is_matching(p8, ((0, 7),))


def test_matching_type_invariants(p8):
    m = Matching(p8, P8_PERFECT)
    assert m.size == 4
    assert m.saturated == set(range(8))
    assert len(m.saturated) == 2 * m.size
    with pytest.raises(ValueError):
        Matching(p8, ((0, 1), (1, 2)))
    for edges in (((0.0, 1.0),), ((False, True),)):
        with pytest.raises(ValueError, match="is not an edge"):
            Matching(p8, edges)
    for vertex in (0.0, True, 8):
        with pytest.raises(ValueError, match="is not an integer in 0..7"):
            MixedSet(p8, (vertex,))


def test_maximal_matching_examples(p8):
    assert is_maximal_matching(p8, P8_SMALL_MAXIMAL)
    assert not is_maximal_matching(p8, ((0, 1),))
    assert is_maximal_matching(p8, P8_PERFECT)


def test_perfect_examples(p8, c5):
    assert is_perfect_matching(p8, P8_PERFECT)
    assert not is_perfect_matching(c5, ((0, 1), (2, 3)))
    assert is_perfect_matching(Graph(0), ())


def test_has_property_dispatch(p8, c4):
    assert has_property(p8, P8_PERFECT, PropertyId.PLAIN)
    for P in PropertyId:
        assert has_property(c4, (), P)
    assert not has_property(c4, ((0, 1), (2, 3)), PropertyId.INDUCED)


# -- induced -----------------------------------------------------------------------


def test_induced_examples(p8, c4):
    assert is_induced_matching(p8, ((0, 1), (3, 4), (6, 7)))
    assert not is_induced_matching(c4, ((0, 1), (2, 3)))
    assert is_induced_matching(p8, ((2, 3),))


# -- uniquely restricted -------------------------------------------------------------


def test_ur_figures():
    fig2l = generate("fig2l")
    assert is_uniquely_restricted(fig2l, FIGURE_MATCHINGS["fig2l"])
    fig2r = generate("fig2r")
    assert not is_uniquely_restricted(fig2r, FIGURE_MATCHINGS["fig2r"])
    assert is_uniquely_restricted(fig2l, ((0, 4),))


def test_alternating_cycle_certificate():
    fig2r = generate("fig2r")
    m = Matching(fig2r, FIGURE_MATCHINGS["fig2r"])
    cycle = find_alternating_cycle(fig2r, m)
    assert cycle is not None and len(cycle) % 2 == 0 and len(cycle) >= 4
    # consecutive pairs alternate matched / unmatched edges of <M>
    partner = m.partner
    for i in range(len(cycle)):
        u, v = cycle[i], cycle[(i + 1) % len(cycle)]
        assert fig2r.has_edge(u, v)
        assert (partner[u] == v) == (i % 2 == 0)
    assert len(set(cycle)) == len(cycle)


@given(graph_with_matching(max_n=7))
def test_ur_agrees_with_perfect_matching_count(gm):
    G, m = gm
    sub, _ = induced_subgraph(G, m.saturated)
    count, _ = oracle_perfect_matchings(sub)
    assert is_uniquely_restricted(G, m) == (count == 1)


@given(graph_with_matching(max_n=7))
def test_implication_chain(gm):
    G, m = gm
    if is_induced_matching(G, m):
        assert is_acyclic_matching(G, m)
    if is_acyclic_matching(G, m):
        assert is_uniquely_restricted(G, m)


# -- connectivity-flavored properties ---------------------------------------------------


def test_connected_examples(k4, p8):
    assert is_connected_matching(k4, ((0, 1), (2, 3)))
    assert not is_connected_matching(p8, ((0, 1), (6, 7)))
    assert is_connected_matching(p8, ((3, 4),))


def test_isolate_free_examples(p8, c4):
    assert is_isolate_free_matching(p8, ((3, 4),))
    assert not is_isolate_free_matching(p8, ((0, 1), (3, 4)))
    assert is_isolate_free_matching(c4, ((0, 1), (2, 3)))


def test_disconnected_examples(p8, k4):
    assert is_disconnected_matching(p8, ((0, 1),))
    assert is_disconnected_matching(p8, ((0, 1), (6, 7)))
    assert not is_disconnected_matching(k4, ((0, 1), (2, 3)))


def test_acyclic_examples(p8, c4, c6):
    assert is_acyclic_matching(p8, ((0, 1), (3, 4)))
    assert not is_acyclic_matching(c4, ((0, 1), (2, 3)))
    assert is_acyclic_matching(c6, ((0, 1), (3, 4)))


# -- orientations ---------------------------------------------------------------------


def test_independent_orientation_figures():
    fig3 = generate("fig3")
    m = Matching(fig3, FIGURE_MATCHINGS["fig3"])
    o = find_independent_orientation(fig3, m)
    assert o is not None
    adj = fig3.adj_masks
    tails = sorted(o.tails)
    assert all(not (adj[u] >> v & 1) for i, u in enumerate(tails) for v in tails[i + 1 :])
    assert o.tails | o.heads == m.saturated and not (o.tails & o.heads)
    # the lowest open vertex is tried as a tail first, which gives the drawn
    # tail set {1, 2, 3', 4}
    assert o.tails == {0, 1, 6, 3}


def test_independent_orientation_simple_cases(k4):
    single = Matching(k4, ((0, 1),))
    assert find_independent_orientation(k4, single) is not None
    assert find_independent_orientation(k4, ((0, 1), (2, 3))) is None
    assert not is_independent_matching(k4, ((0, 1), (2, 3)))


def test_bipartite_orientation_cases(k4, c4):
    fig4 = generate("fig4")
    m = Matching(fig4, FIGURE_MATCHINGS["fig4"])
    o = find_bipartite_orientation(fig4, m)
    assert o is not None
    adj = fig4.adj_masks
    for side in (sorted(o.tails), sorted(o.heads)):
        assert all(not (adj[u] >> v & 1) for i, u in enumerate(side) for v in side[i + 1 :])
    assert find_bipartite_orientation(k4, ((0, 1), (2, 3))) is None
    assert find_bipartite_orientation(c4, ((0, 1), (2, 3))) is not None


@given(graph_with_matching(max_n=7))
def test_orientation_solvers_match_exhaustive(gm):
    G, m = gm
    assert is_independent_matching(G, m) == oracle_orientation_feasible(G, m, "independent")
    assert is_bipartite_matching(G, m) == oracle_orientation_feasible(G, m, "bipartite")


def test_orientation_certificates_exhaustive():
    # Every matching of every graph with n <= 5: an orientation comes back
    # exactly when exhaustive search finds one, it orients each matched edge
    # once, and its tails (for bipartite, its heads too) are independent. An
    # alternating cycle comes back exactly when <M> has another perfect
    # matching, and it is one.
    def independent(adj, side):
        return not any(adj[v] >> w & 1 for v in side for w in side)

    for n in range(6):
        for G in all_graphs(n):
            adj = G.adj_masks
            for m in all_matchings(G):
                cycle = find_alternating_cycle(G, m)
                count, _ = oracle_perfect_matchings(induced_subgraph(G, m.saturated)[0])
                assert (cycle is not None) == (count > 1)
                if cycle is not None:
                    assert len(cycle) % 2 == 0 and len(cycle) >= 4
                    assert len(set(cycle)) == len(cycle)
                    for i, u in enumerate(cycle):
                        w = cycle[(i + 1) % len(cycle)]
                        assert G.has_edge(u, w)
                        assert (m.partner.get(u) == w) == (i % 2 == 0)
                for mode, find, holds in (
                    ("independent", find_independent_orientation, is_independent_matching),
                    ("bipartite", find_bipartite_orientation, is_bipartite_matching),
                ):
                    o = find(G, m)
                    assert (o is not None) == oracle_orientation_feasible(G, m, mode)
                    assert holds(G, m) == (o is not None)
                    if o is None:
                        continue
                    assert tuple(sorted(tuple(sorted(p)) for p in o.pairs)) == m.edges
                    assert independent(adj, o.tails)
                    if mode == "bipartite":
                        assert independent(adj, o.heads)


def test_orientation_serialization():
    fig4 = generate("fig4")
    o = find_bipartite_orientation(fig4, Matching(fig4, FIGURE_MATCHINGS["fig4"]))
    strings = o.as_strings(fig4)
    assert all(">" in s for s in strings)


# -- neighborhood adjacency -------------------------------------------------------------


def test_cnbr_configuration():
    # center v=0 adjacent to 1,2,3; the far edge joins 2 and 3
    G = Graph(4, ((0, 1), (0, 2), (0, 3), (2, 3)))
    assert are_cnbr_adjacent(G, (0, 1), (2, 3))
    assert not are_onbr_adjacent(G, (0, 1), (2, 3))


def test_onbr_configuration():
    # center 0 adjacent to all four endpoints of two disjoint edges
    G = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)))
    assert are_onbr_adjacent(G, (1, 2), (3, 4))
    assert are_cnbr_adjacent(G, (1, 2), (3, 4))


def test_cnbr_matching_examples(c6):
    assert is_cnbr_matching(c6, ((0, 1), (3, 4)))
    p4 = generate("path", n=4)
    assert are_cnbr_adjacent(p4, (0, 1), (1, 2))  # shared vertex


def test_onbr_matching_examples():
    p4 = generate("path", n=4)
    assert is_onbr_matching(p4, ((0, 1), (2, 3)))
    k5 = generate("complete", n=5)
    assert are_onbr_adjacent(k5, (0, 1), (2, 3))
    assert not is_onbr_matching(k5, ((0, 1), (2, 3)))


@given(graph_with_matching(max_n=7))
def test_shared_vertex_edges_are_cnbr_adjacent(gm):
    G, _ = gm
    for u, v in G.edges:
        for w in G.neighbors(v):
            if w != u:
                assert are_cnbr_adjacent(G, (u, v), (v, w))


def test_onbr_adjacent_implies_cnbr_adjacent():
    for n in range(2, 6):
        for G in all_graphs(n):
            for e, f in itertools.combinations(G.edges, 2):
                if are_onbr_adjacent(G, e, f):
                    assert are_cnbr_adjacent(G, e, f)


# -- irredundance ------------------------------------------------------------------------


def test_vertex_irredundant_examples(p8):
    p4 = generate("path", n=4)
    assert is_vertex_irredundant_matching(p4, ((1, 2),))
    k2 = generate("complete", n=2)
    assert not is_vertex_irredundant_matching(k2, ((0, 1),))
    assert not is_vertex_irredundant_matching(p8, ((1, 2), (3, 4), (5, 6)))


def test_edge_irredundant_examples(p8):
    p4 = generate("path", n=4)
    assert is_edge_irredundant_matching(p4, ((1, 2),))
    assert not is_edge_irredundant_matching(p4, ((0, 1), (2, 3)))
    p6 = generate("path", n=6)
    assert is_edge_irredundant_matching(p6, ((0, 1), (4, 5)))
    k2 = generate("complete", n=2)
    assert not is_edge_irredundant_matching(k2, ((0, 1),))


# -- separating --------------------------------------------------------------------------


def test_separating_examples(q3, k4):
    assert is_separating_matching(q3, ((0, 1), (2, 3), (4, 5), (6, 7)))
    assert not is_separating_matching(k4, ((0, 1), (2, 3)))
    p2 = generate("path", n=2)
    assert is_separating_matching(p2, ((0, 1),))


# -- total matchings ----------------------------------------------------------------------


def test_total_matching_walkthrough():
    p3 = generate("path", n=3)
    t = MixedSet(p3, (2,), ((0, 1),))
    assert is_total_matching(p3, t)  # vertex 2 is not an endpoint of 0-1
    assert is_maximal_total_matching(p3, t)
    k2 = generate("complete", n=2)
    assert not is_total_matching(k2, MixedSet(k2, (0, 1), ()))
    assert total_violation(k2, MixedSet(k2, (0, 1), ())) == (0, 1)


def test_total_matching_perfect_matching_is_maximal(q3):
    dim0 = ((0, 1), (2, 3), (4, 5), (6, 7))
    t = MixedSet(q3, (), dim0)
    assert is_total_matching(q3, t)
    assert is_maximal_total_matching(q3, t)


def test_total_predicates_match_the_violation_exhaustive():
    # Every mixed set of every labeled graph with n <= 4: the mask-level
    # predicate agrees with the first-violation search, and a maximal set is
    # one that no single vertex or edge extends.
    for n in range(5):
        for G in all_graphs(n):
            elements = [(v,) for v in range(G.n)] + list(G.edges)
            for sub in range(1 << len(elements)):
                chosen = [x for i, x in enumerate(elements) if sub >> i & 1]
                T = MixedSet(G, [x[0] for x in chosen if len(x) == 1],
                             [x for x in chosen if len(x) == 2])
                ok = total_violation(G, T) is None
                assert is_total_matching(G, T) == ok
                grown = [
                    MixedSet(G, T.vertices | {x[0]}, T.edges) if len(x) == 1
                    else MixedSet(G, T.vertices, T.edges + (x,))
                    for x in elements if x not in chosen
                ]
                maximal = ok and all(total_violation(G, U) is not None for U in grown)
                assert is_maximal_total_matching(G, T) == maximal


def test_total_violation_kinds():
    p4 = generate("path", n=4)
    assert total_violation(p4, MixedSet(p4, (), ((0, 1), (1, 2)))) == ((0, 1), (1, 2))
    assert total_violation(p4, MixedSet(p4, (1,), ((1, 2),))) == (1, (1, 2))
    assert total_violation(p4, MixedSet(p4, (0, 3), ((1, 2),))) is None


# -- b-matchings -----------------------------------------------------------------------------


def test_b_matching_examples(p8):
    m = Matching(p8, P8_PERFECT)
    assert is_b_matching(p8, m.edges, BoundFunction.uniform(p8, 1))
    star = generate("complete_bipartite", a=1, b=3)
    b = BoundFunction((2, 1, 1, 1))
    assert not is_b_matching(star, star.edges, b)
    p4 = generate("path", n=4)
    assert is_b_matching(p4, ((0, 1), (1, 2)), BoundFunction.uniform(p4, 2))


def test_b_matching_bound_validation(p8):
    with pytest.raises(ValueError):
        is_b_matching(p8, (), BoundFunction((9,) * 8))
    with pytest.raises(ValueError):
        is_b_matching(p8, (), BoundFunction((-1,) + (1,) * 7))
    with pytest.raises(ValueError):
        BoundFunction((1,)).validate_for(p8)


# -- maximality with respect to a property ------------------------------------------------------


def test_maximal_p_examples(p8):
    assert is_maximal_p_matching(p8, P8_SMALL_MAXIMAL, PropertyId.PLAIN)
    assert is_maximal_p_matching(p8, P8_PERFECT, PropertyId.PLAIN)
    assert not is_maximal_p_matching(p8, ((3, 4),), PropertyId.INDUCED)
    with pytest.raises(ValueError):
        c4 = generate("cycle", n=4)
        is_maximal_p_matching(c4, ((0, 1), (2, 3)), PropertyId.INDUCED)


@given(graph_with_matching(max_n=7))
def test_maximal_plain_equals_maximal_matching(gm):
    G, m = gm
    assert is_maximal_p_matching(G, m, PropertyId.PLAIN) == is_maximal_matching(G, m)


# -- heredity ------------------------------------------------------------------------------------


def _violates_heredity(G, m, P):
    if not has_property(G, m, P):
        return False
    for r in range(1, m.size):
        for sub in itertools.combinations(m.edges, r):
            if not has_property(G, sub, P):
                return True
    return False


def test_hereditary_properties_exhaustive_small():
    for n in range(2, 6):
        for G in all_graphs(n):
            for m in all_matchings(G):
                if m.size < 2:
                    continue
                for P in HEREDITARY_PROPERTIES:
                    assert not _violates_heredity(G, m, P), (G.edges, m.edges, P)


def test_non_hereditary_counterexamples():
    p6 = generate("path", n=6)
    full = Matching(p6, ((0, 1), (2, 3), (4, 5)))
    assert _violates_heredity(p6, full, PropertyId.CONNECTED)
    assert _violates_heredity(p6, full, PropertyId.ISOLATE_FREE)
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (4, 5)))
    m = Matching(g, ((0, 1), (2, 3), (4, 5)))
    assert _violates_heredity(g, m, PropertyId.DISCONNECTED)
    assert PropertyId.CONNECTED not in HEREDITARY_PROPERTIES
    assert PropertyId.ISOLATE_FREE not in HEREDITARY_PROPERTIES
    assert PropertyId.DISCONNECTED not in HEREDITARY_PROPERTIES


PAIRWISE = (PropertyId.PLAIN, PropertyId.INDUCED, PropertyId.ONBR, PropertyId.CNBR)


def test_pairwise_conflict_masks_encode_the_predicates():
    # The search engine answers these variants from the masks alone, so a
    # matching must be independent in them exactly when the predicate holds.
    for n in range(0, 6):
        for G in all_graphs(n):
            pos = {e: i for i, e in enumerate(G.edges)}
            masks = {P: pairwise_conflict_masks(G, P) for P in PAIRWISE}
            for m in all_matchings(G):
                idx = [pos[e] for e in m.edges]
                for P in PAIRWISE:
                    independent = not any(masks[P][i] >> j & 1 for i in idx for j in idx)
                    assert independent == has_property(G, m, P), (G.edges, m.edges, P)
    # Past n = 5, pair by pair on seeded graphs dense enough for onbr and
    # cnbr clashes: bit j of row i is set exactly when edges i and j share
    # an end or the two-edge matching lacks P, and the diagonal is clear.
    for n in range(6, 13):
        for G in random_graphs(n, 8, n, p_choices=(0.3, 0.5, 0.7)):
            masks = {P: pairwise_conflict_masks(G, P) for P in PAIRWISE}
            for i, e in enumerate(G.edges):
                for j, f in enumerate(G.edges):
                    for P in PAIRWISE:
                        clash = i != j and bool(set(e) & set(f) or not has_property(G, (e, f), P))
                        assert masks[P][i] >> j & 1 == clash, (G.edges, e, f, P)


def test_pairwise_conflict_masks_only_for_pairwise_variants(q3):
    for P in PropertyId:
        masks = pairwise_conflict_masks(q3, P)
        assert (masks is None) == (P not in PAIRWISE)


@given(graph_with_matching(min_n=6, max_n=8))
def test_hereditary_properties_sampled_larger(gm):
    G, m = gm
    if m.size < 2:
        return
    for P in HEREDITARY_PROPERTIES:
        assert not _violates_heredity(G, m, P)


# -- coercion --------------------------------------------------------------------------------------


def test_as_matching_coercion(p8):
    m = as_matching(p8, [(2, 3), (0, 1)])
    assert m.edges == ((0, 1), (2, 3))
    assert as_matching(p8, m) is m
