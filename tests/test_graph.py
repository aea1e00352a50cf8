import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from pmatch import graph
from pmatch.graph import (
    FIGURE_MATCHINGS,
    Graph,
    ParseError,
    block_decomposition,
    complement,
    components,
    closed_neighborhood,
    edge_mask_of,
    from_edge_mask,
    generate,
    induced_subgraph,
    is_acyclic_graph,
    is_bipartite,
    is_connected,
    is_edge_cut,
    parse_graph,
    serialize_graph,
)

from conftest import graphs


# -- parsing ------------------------------------------------------------------


def test_parse_simple_edge_list():
    G = parse_graph("0 1\n1 2")
    assert (G.n, G.m) == (3, 2)
    assert G.edges == ((0, 1), (1, 2))


def test_parse_header_and_comments():
    G = parse_graph("# a path\n8 7\n" + "\n".join(f"{i} {i+1}" for i in range(7)))
    assert (G.n, G.m) == (8, 7)


def test_parse_header_declares_extra_vertices():
    G = parse_graph("5 1\n0 1")
    assert (G.n, G.m) == (5, 1)


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("0 0")


def test_parse_duplicate_edge_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("0 1\n1 0")


def test_parse_endpoint_beyond_header():
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 5")


def test_parse_malformed_line():
    with pytest.raises(ParseError):
        parse_graph("0 1\n1 two")
    with pytest.raises(ParseError):
        parse_graph("0 1 2")
    # Tokens that look numeric to a header test but that int() rejects, and
    # a negative header count.
    for text in ("0 --3", "0 \u00b2", "-3 0"):
        with pytest.raises(ParseError, match="^line 1: "):
            parse_graph(text)


def test_parse_empty_text_is_empty_graph():
    G = parse_graph("")
    assert (G.n, G.m) == (0, 0)


def test_parse_dimacs():
    G = parse_graph("c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4")
    assert (G.n, G.m) == (4, 3)
    assert G.edges == ((0, 1), (1, 2), (2, 3))


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_graph("p edge 3 1\ne 1 1")
    with pytest.raises(ParseError):
        parse_graph("p edge 3 2\ne 1 2")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("p edge 3 1\ne 1 4")
    for header in ("p edge 3 x", "p edge 1.5 0", "p edge -3 0", "p edge 3 -1"):
        with pytest.raises(ParseError, match="^line 1: "):
            parse_graph(header)


def test_serialize_round_trip_examples(p8):
    for G in (p8, Graph(0), Graph(3), generate("complete", n=4)):
        assert parse_graph(serialize_graph(G)).edges == G.edges
        assert parse_graph(serialize_graph(G)).n == G.n


@given(graphs(max_n=7))
def test_serialize_round_trip(G):
    H = parse_graph(serialize_graph(G))
    assert (H.n, H.edges) == (G.n, G.edges)


_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["p", "edge", "e", "c", "#", "x", "-", "--3", "+2", "1.5", "0x1", "1_0", "²"]),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join)


@given(_LINES)
def test_parse_token_soup_is_parse_error_or_round_trips(text):
    # Edge-list and DIMACS-like lines of any shape: a ParseError, or a graph
    # that survives serialization unchanged.
    try:
        G = parse_graph(text)
    except ParseError:
        return
    H = parse_graph(serialize_graph(G))
    assert (H.n, H.edges) == (G.n, G.edges)


def test_parse_reversed_and_unsorted_lines_round_trip():
    G = parse_graph("4 3\n3 2\n1 0\n2 0\n")
    assert G.edges == ((0, 1), (0, 2), (2, 3))
    assert parse_graph(serialize_graph(G)).edges == G.edges


@pytest.mark.parametrize(
    "text, message",
    [
        # The first bad line in the file is the one reported, whether it is a
        # duplicate or a line that fails on its own.
        ("0 1\n1 0\n2 x", "line 2: duplicate edge 1 0"),
        ("0 1\n2 x\n1 0", "line 2: expected two integers, got ['2', 'x']"),
        ("0 1\n1 0\n-1 2", "line 2: duplicate edge 1 0"),
        ("0 1\n3 3\n1 0", "line 2: self-loop at vertex 3"),
        ("0 1\n2 -1\n0 1", "line 2: negative vertex index"),
        ("2 2\n0 1\n1 0", "line 3: duplicate edge 1 0"),
        ("2 2\n0 1\n0 5", "endpoint 5 exceeds declared vertex count 2"),
        ("2 2\n0 5\n5 0", "line 3: duplicate edge 5 0"),
        ("p edge 3 2\ne 2 1\ne 1 2", "line 3: duplicate edge"),
    ],
)
def test_parse_error_messages_and_precedence(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


# -- construction invariants ------------------------------------------------------


def test_graph_rejects_self_loop_and_bad_endpoint():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, ((0.0, 1.0),)),  # canonical in shape: the one-pass check's input
        (3, ((0.5, 1.5),)),
        (2, ((False, True),)),
        (3, ((0, 1), (1, 2.0))),
        (2, [(0.0, 1.0)]),  # a list: the normalizing loop's input
        (3, ((1.0, 0),)),
        (3, ((None, 1),)),
    ],
)
def test_graph_rejects_non_integer_endpoints(n, edges):
    with pytest.raises(ValueError, match="non-integer endpoint"):
        Graph(n, edges)


def _normalized_reference(n, edges):
    """The edge normalization spelled out: every pair checked in input order,
    then canonical, deduplicated and sorted. Returns the edges or the error
    message."""
    seen = set()
    for e in edges:
        u, v = e
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {e} has an endpoint outside 0..{n - 1}"
        seen.add((min(u, v), max(u, v)))
    return tuple(sorted(seen))


def _constructed(n, edges):
    try:
        return Graph(n, edges).edges
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, ((0, 1), (1, 2), (2, 3))),
        (4, ((1, 2), (0, 1))),  # unsorted
        (4, ((1, 0), (2, 1))),  # reversed pairs
        (4, ((0, 1), (0, 1))),  # duplicate
        (4, ((0, 1), (1, 0))),  # duplicate, one reversed
        (4, ((0, 2), (0, 1), (0, 1))),
        (4, [(0, 1), (1, 2)]),  # list input
        (4, ([0, 1], [1, 2])),  # list pairs
        (4, ((-1, 2),)),
        (4, ((0, 1), (-1, 2))),
        (4, ((0, 4),)),
        (4, ((0, 1), (2, 7))),
        (4, ((4, 5),)),
        (4, ((2, 2),)),
        (4, ((0, 1), (3, 3))),
        (0, ()),
        (0, ((0, 1),)),
        (2, ()),
    ],
)
def test_graph_keeps_canonical_edges_and_normalizes_the_rest(n, edges):
    expected = _normalized_reference(n, edges)
    assert _constructed(n, edges) == expected
    if isinstance(expected, tuple):
        assert all(type(e) is tuple for e in Graph(n, edges).edges)


@given(st.integers(0, 6), st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=8))
def test_graph_construction_matches_the_reference(n, pairs):
    for edges in (tuple(pairs), tuple(sorted(pairs)), tuple(sorted(set(pairs)))):
        assert _constructed(n, edges) == _normalized_reference(n, edges)


@given(graphs(max_n=8))
def test_adjacency_lists_are_sorted(G):
    for v, nbrs in enumerate(G.adj_lists):
        assert list(nbrs) == sorted({u for e in G.edges if v in e for u in e if u != v})


@given(graphs(max_n=7))
def test_degree_sum_is_twice_edge_count(G):
    assert sum(G.degree(v) for v in range(G.n)) == 2 * G.m
    for v in range(G.n):
        assert len(G.neighbors(v)) == G.degree(v)


# -- generators ---------------------------------------------------------------------


def test_generate_families():
    assert generate("path", n=8).m == 7
    assert generate("path", n=1).m == 0
    assert generate("cycle", n=5).m == 5
    assert generate("complete", n=5).m == 10
    kab = generate("complete_bipartite", a=2, b=3)
    assert (kab.n, kab.m) == (5, 6)
    q3 = generate("hypercube", n=3)
    assert (q3.n, q3.m) == (8, 12)
    parts = is_bipartite(q3)
    assert parts is not None and sorted(len(s) for s in parts) == [4, 4]


def test_generate_random_tree_properties():
    T = generate("random_tree", n=12, seed=5)
    assert T.m == 11
    assert is_connected(T)
    assert is_acyclic_graph(T)
    assert T.edges == generate("random_tree", n=12, seed=5).edges
    assert T.edges != generate("random_tree", n=12, seed=6).edges


def test_generate_gnp_deterministic():
    a = generate("gnp", n=10, p=0.4, seed=3)
    b = generate("gnp", n=10, p=0.4, seed=3)
    assert a.edges == b.edges


def test_generate_errors():
    with pytest.raises(ValueError):
        generate("mystery")
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("gnp", n=5, p=1.5)
    with pytest.raises(ValueError):
        generate("complete_bipartite", a=0, b=2)


def test_generate_builds_families_up_to_the_limit(monkeypatch):
    # Past 64 dimensions not even the hypercube's vertex count is built.
    with pytest.raises(ValueError, match=r"2\^1000000000 vertices, past the limit"):
        generate("hypercube", n=10**9)
    monkeypatch.setattr(graph, "FAMILY_LIMIT", 12)
    for family, kw in (("path", dict(n=12)), ("cycle", dict(n=12)), ("complete", dict(n=5)),
                       ("complete_bipartite", dict(a=4, b=3)), ("hypercube", dict(n=3)),
                       ("gnp", dict(n=12, p=0.1, seed=1)), ("random_tree", dict(n=12))):
        generate(family, **kw)
    for family, kw in (("path", dict(n=13)), ("cycle", dict(n=13)), ("complete", dict(n=6)),
                       ("complete_bipartite", dict(a=5, b=3)), ("hypercube", dict(n=4)),
                       ("gnp", dict(n=12, p=0.25)), ("random_tree", dict(n=13))):
        with pytest.raises(ValueError, match="past the limit of 12 of each"):
            generate(family, **kw)


def test_figure_fixtures_transcription():
    fig2l = generate("fig2l")
    assert fig2l.edges == ((0, 4), (0, 5), (0, 6), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))
    fig2r = generate("fig2r")
    assert fig2r.edges == ((0, 4), (0, 7), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7))
    # fig2r is one 8-cycle: all degrees 2, connected
    assert all(fig2r.degree(v) == 2 for v in range(8)) and is_connected(fig2r)
    fig3 = generate("fig3")
    assert fig3.edges == ((0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5))
    assert fig3.labels == ("1", "2", "3", "4", "1'", "2'", "3'", "4'")
    fig4 = generate("fig4")
    assert fig4.edges == ((0, 1), (0, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7))
    for name, G in (("fig2l", fig2l), ("fig2r", fig2r), ("fig3", fig3), ("fig4", fig4)):
        drawn = FIGURE_MATCHINGS[name]
        assert len(drawn) == 4
        assert all(e in G.edge_set for e in drawn)


def test_edge_mask_round_trip():
    for n in range(5):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert edge_mask_of(from_edge_mask(n, mask)) == mask


# -- neighborhoods, induced subgraph, complement -----------------------------------------


def test_neighborhoods():
    p3 = generate("path", n=3)
    assert p3.neighbors(1) == {0, 2}
    assert closed_neighborhood(p3, 1) == {0, 1, 2}
    k4 = generate("complete", n=4)
    assert k4.neighbors(0) == {1, 2, 3}
    iso = Graph(2, ((0, 1),))
    lone = Graph(3, ((0, 1),))
    assert lone.neighbors(2) == set()
    assert closed_neighborhood(lone, 2) == {2}
    with pytest.raises(ValueError):
        iso.neighbors(9)


def test_incidence_masks_mark_the_edges_at_each_vertex():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            G = from_edge_mask(n, mask)
            assert G.incidence_masks == tuple(
                sum(1 << j for j, e in enumerate(G.edges) if v in e) for v in range(G.n)
            )


def test_closed_incidence_masks_mark_the_edges_meeting_each_closed_neighborhood():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            G = from_edge_mask(n, mask)
            closed = [{v} | set(G.neighbors(v)) for v in range(G.n)]
            assert G.closed_incidence_masks == tuple(
                sum(1 << j for j, e in enumerate(G.edges) if closed[v] & set(e))
                for v in range(G.n)
            )


def test_induced_subgraph_cases(c4, p8):
    sub, back = induced_subgraph(c4, {0, 1})
    assert (sub.n, sub.m) == (2, 1) and back == (0, 1)
    sub, _ = induced_subgraph(c4, {0, 2})
    assert (sub.n, sub.m) == (2, 0)
    sub, _ = induced_subgraph(p8, {0, 1, 4, 5})
    assert sub.m == 2 and all(sub.degree(v) == 1 for v in range(4))
    with pytest.raises(ValueError):
        induced_subgraph(c4, {0, 9})


@given(graphs(max_n=7), st.data())
def test_induced_subgraph_full_and_monotone(G, data):
    full, back = induced_subgraph(G, range(G.n))
    assert full.edges == G.edges and back == tuple(range(G.n))
    S = set(data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n))) if G.n else set()
    T = S | (set(data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n))) if G.n else set())
    sub_s, back_s = induced_subgraph(G, S)
    sub_t, back_t = induced_subgraph(G, T)
    # The relabel keeps order: mapped back, the edges are G's edges inside S,
    # in G's order.
    assert [(back_s[u], back_s[v]) for u, v in sub_s.edges] == [e for e in G.edges if set(e) <= S]
    edges_s = {tuple(sorted((back_s[u], back_s[v]))) for u, v in sub_s.edges}
    edges_t = {tuple(sorted((back_t[u], back_t[v]))) for u, v in sub_t.edges}
    assert edges_s <= edges_t


def test_complement_examples(k4, c5):
    assert complement(k4).m == 0
    cc5 = complement(c5)
    assert cc5.m == 5 and all(cc5.degree(v) == 2 for v in range(5)) and is_connected(cc5)


@given(graphs(max_n=7))
def test_complement_involution(G):
    assert complement(complement(G)).edges == G.edges


# -- components, bipartiteness, acyclicity ------------------------------------------------


def test_components_examples(p8):
    assert len(components(p8)) == 1 and is_connected(p8)
    two_k2 = Graph(4, ((0, 1), (2, 3)))
    assert len(components(two_k2)) == 2
    assert len(components(Graph(3))) == 3
    assert components(Graph(0)) == [] and is_connected(Graph(0))


def _two_colorable_brute(G):
    for colors in itertools.product((0, 1), repeat=G.n):
        if all(colors[u] != colors[v] for u, v in G.edges):
            return True
    return G.n == 0


def test_bipartite_examples(c4, c5, q3):
    parts = is_bipartite(c4)
    assert parts is not None and sorted(len(s) for s in parts) == [2, 2]
    assert is_bipartite(c5) is None
    assert is_bipartite(q3) is not None


@given(graphs(max_n=8))
def test_bipartite_matches_exhaustive_two_coloring(G):
    parts = is_bipartite(G)
    if parts is None:
        assert not _two_colorable_brute(G)
    else:
        a, b = parts
        assert a | b == set(range(G.n)) and not (a & b)
        assert all((u in a) != (v in a) for u, v in G.edges)


def test_acyclic_examples(p8, c4):
    assert is_acyclic_graph(p8)
    assert not is_acyclic_graph(c4)
    # the fig3 fixture transcribes to a tree: 8 vertices, 7 edges, connected
    fig3 = generate("fig3")
    assert is_connected(fig3) and fig3.m == fig3.n - 1
    assert is_acyclic_graph(fig3)


# -- blocks -------------------------------------------------------------------------------


def test_block_examples(c4, c5):
    p4 = generate("path", n=4)
    bd = block_decomposition(p4)
    assert [b.kind for b in bd.blocks] == ["edge", "edge", "edge"]
    assert bd.cut_vertices == {1, 2}
    bd5 = block_decomposition(c5)
    assert len(bd5.blocks) == 1 and bd5.blocks[0].kind == "odd_cycle"
    bd4 = block_decomposition(c4)
    assert [b.kind for b in bd4.blocks] == ["other"]
    bow = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    bdb = block_decomposition(bow)
    assert sorted(b.kind for b in bdb.blocks) == ["odd_cycle", "odd_cycle"]
    assert bdb.cut_vertices == {2}


@given(graphs(max_n=7))
def test_blocks_partition_edges(G):
    bd = block_decomposition(G)
    seen = []
    for b in bd.blocks:
        seen.extend(b.edges)
        assert set().union(*map(set, b.edges)) == set(b.vertices)
    assert sorted(seen) == sorted(G.edges)
    non_isolated = {v for e in G.edges for v in e}
    assert set().union(*(b.vertices for b in bd.blocks), set()) == non_isolated


def _component_ids(G, removed=None):
    """Union-find component labels of G, or of G minus one vertex."""
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in G.edges:
        if removed not in (u, v):
            parent[find(u)] = find(v)
    return [find(v) for v in range(G.n)]


def _check_blocks_against_definition(G):
    bd = block_decomposition(G)
    block_of = {e: i for i, b in enumerate(bd.blocks) for e in b.edges}
    assert sorted(block_of) == list(G.edges)
    count = len(set(_component_ids(G)))
    cuts = set()
    apart = set()
    for x in range(G.n):
        comp = _component_ids(G, x)  # x stays behind as a singleton
        if len(set(comp)) - 1 > count:
            cuts.add(x)
        for e, f in itertools.combinations(G.edges, 2):
            ends = {comp[y] for y in e + f if y != x}
            if len(ends) > 1:
                apart.add((e, f))
    # Two edges share a block iff no single vertex's removal separates them.
    for e, f in itertools.combinations(G.edges, 2):
        assert (block_of[e] == block_of[f]) == ((e, f) not in apart), (e, f)
    assert bd.cut_vertices == cuts
    for b in bd.blocks:
        assert set(b.vertices) == {y for e in b.edges for y in e}
        if len(b.vertices) == 2:
            kind = "edge"
        elif len(b.edges) == len(b.vertices) and len(b.vertices) % 2:
            kind = "odd_cycle"
        else:
            kind = "other"
        assert b.kind == kind
    # Blocks come in the order of their edge tuples.
    assert [b.edges for b in bd.blocks] == sorted(b.edges for b in bd.blocks)


def test_blocks_match_their_definition_exhaustive():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            _check_blocks_against_definition(from_edge_mask(n, mask))


@given(graphs(max_n=8))
def test_blocks_match_their_definition(G):
    _check_blocks_against_definition(G)


def test_block_tie_order():
    # Every block of a star holds vertex 0; they come in edge order.
    star = Graph(5, ((0, 3), (0, 1), (0, 4), (0, 2)))
    bd = block_decomposition(star)
    assert [b.edges for b in bd.blocks] == [((0, 1),), ((0, 2),), ((0, 3),), ((0, 4),)]
    assert bd.cut_vertices == {0}
    # The path 0-3-2-4: the search from 0 finishes the block (2, 4) before
    # (2, 3), yet the two tie on vertex 2 and come in edge order.
    path = Graph(5, ((0, 3), (2, 3), (2, 4)))
    bd = block_decomposition(path)
    assert [b.edges for b in bd.blocks] == [((0, 3),), ((2, 3),), ((2, 4),)]
    assert bd.cut_vertices == {2, 3}


# -- edge cuts -----------------------------------------------------------------------------


def _components_after_removal_brute(G, removed):
    removed = {tuple(sorted(e)) for e in removed}
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in G.edges:
        if tuple(sorted(e)) in removed:
            continue
        a, b = find(e[0]), find(e[1])
        if a != b:
            parent[a] = b
    return len({find(v) for v in range(G.n)})


def test_edge_cut_examples(q3, k4):
    dim0 = [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert is_edge_cut(q3, dim0)
    assert not is_edge_cut(k4, [(0, 1)])
    p2 = generate("path", n=2)
    assert is_edge_cut(p2, [(0, 1)])
    with pytest.raises(ValueError):
        is_edge_cut(k4, [(0, 9)])
    assert not is_edge_cut(k4, [])


def _cut_by_component_count(G, F) -> bool:
    """The definition: G - F has more components than G."""
    kept = tuple(e for e in G.edges if e not in set(F))
    return len(components(Graph(G.n, kept))) > len(components(G))


def test_edge_cut_matches_component_count_exhaustive():
    # Every edge subset of every labeled graph with n <= 5.
    for n in range(6):
        pairs = n * (n - 1) // 2
        for mask in range(1 << pairs):
            G = from_edge_mask(n, mask)
            for sub in range(1 << G.m):
                F = [e for i, e in enumerate(G.edges) if sub >> i & 1]
                assert is_edge_cut(G, F) == _cut_by_component_count(G, F), (G, F)


def test_edge_cut_rejects_a_non_edge(k4):
    p4 = generate("path", n=4)
    for G, F in ((p4, [(0, 2)]), (p4, [(0, 1), (1, 3)]), (k4, [(0, 4)]), (p4, [(2, 2)]),
                 (p4, [(0.0, 1.0)]), (p4, [(False, True)])):
        with pytest.raises(ValueError, match="is not an edge"):
            is_edge_cut(G, F)


def test_edge_cut_builds_no_graph(monkeypatch, q3):
    """Counter gate: the cut test labels components on the adjacency lists
    of its input, on a 10^5-vertex path too, and constructs no Graph."""
    n = 100_000
    path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    built = []
    original = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda self: built.append(1) or original(self))
    assert is_edge_cut(path, [(n // 2, n // 2 + 1)])
    assert is_edge_cut(path, [(0, 1), (n - 2, n - 1)])
    assert not is_edge_cut(q3, [(0, 1)])
    assert is_edge_cut(q3, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert built == []


@given(graphs(min_n=1, max_n=8), st.data())
def test_edge_cut_agrees_with_union_find(G, data):
    if not G.edges:
        return
    F = data.draw(st.sets(st.sampled_from(G.edges), max_size=G.m))
    expected = _components_after_removal_brute(G, F) > len(components(G))
    assert expected == _cut_by_component_count(G, F)
    assert is_edge_cut(G, F) == expected
    # Either orientation of an edge names it.
    assert is_edge_cut(G, [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in F]) == expected
