import random
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from pmatch.graph import Graph, generate, is_bipartite
from pmatch.matching import (
    _Search,
    bipartite_matching_and_cover,
    lexmin_maximum_matching,
    max_matching_size,
)
from pmatch.oracle import all_matchings
from pmatch.properties import is_matching
from pmatch.solvers import sdr_solve
from pmatch.theorems import all_graphs, random_graphs, random_set_system

from conftest import brute_force_max_matching, graphs


def test_blossom_exhaustive_small():
    for n in range(0, 7):
        for G in all_graphs(n):
            got = lexmin_maximum_matching(G)
            assert is_matching(G, got)
            assert len(got) == brute_force_max_matching(G)


@given(graphs(max_n=8))
def test_blossom_matches_brute_force(G):
    got = lexmin_maximum_matching(G)
    assert is_matching(G, got)
    assert len(got) == brute_force_max_matching(G)


def test_blossom_known_values():
    assert max_matching_size(generate("cycle", n=5)) == 2
    assert max_matching_size(generate("cycle", n=7)) == 3
    assert max_matching_size(generate("complete", n=4)) == 2
    assert max_matching_size(generate("hypercube", n=3)) == 4
    # the Petersen graph has a perfect matching
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = Graph(10, tuple(outer + inner + spokes))
    assert max_matching_size(petersen) == 5
    # odd-cycle chains force blossom contractions
    bowtie = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    assert max_matching_size(bowtie) == 2


def test_lexmin_maximum_matching(p8):
    assert lexmin_maximum_matching(p8) == ((0, 1), (2, 3), (4, 5), (6, 7))


def brute_force_lexmin(G: Graph) -> tuple:
    """Test-side reference: every maximum matching, enumerated by plain
    recursion; the smallest as a sorted edge tuple."""
    best = brute_force_max_matching(G)
    edges = G.edges
    optima = []

    def rec(i, cur, sat):
        if len(cur) == best:
            optima.append(tuple(cur))
            return
        if i == len(edges):
            return
        rec(i + 1, cur, sat)
        u, v = edges[i]
        if not (sat & ((1 << u) | (1 << v))):
            cur.append(edges[i])
            rec(i + 1, cur, sat | (1 << u) | (1 << v))
            cur.pop()

    rec(0, [], 0)
    return min(optima)


def test_lexmin_is_smallest_optimum():
    for n in range(0, 7):
        for G in all_graphs(n):
            assert lexmin_maximum_matching(G) == brute_force_lexmin(G)


def _relabel(G: Graph, rng: random.Random) -> Graph:
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph(G.n, tuple((perm[u], perm[v]) for u, v in G.edges))


def _flowers(stems: int, cycle: int) -> Graph:
    """Odd cycles ("blossoms"), each on a stem path of two edges whose far
    end is a shared hub, plus one pendant per stem: the greedy pass leaves
    stems exposed whose searches must contract a blossom, and roots whose
    trees turn out Hungarian."""
    edges = []
    hub = 0
    nxt = 1
    for _ in range(stems):
        a, b, pendant = nxt, nxt + 1, nxt + 2
        ring = list(range(nxt + 3, nxt + 3 + cycle))
        nxt += 3 + cycle
        edges += [(hub, a), (a, b), (b, ring[0]), (a, pendant)]
        edges += [(ring[i], ring[(i + 1) % cycle]) for i in range(cycle)]
    return Graph(nxt, tuple(edges))


def _star_of_triangles(leaves: int) -> Graph:
    """A star whose every leaf carries a pendant triangle."""
    edges = []
    for i in range(leaves):
        leaf, a, b = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, leaf), (leaf, a), (a, b), (leaf, b)]
    return Graph(1 + 3 * leaves, tuple(edges))


@pytest.mark.parametrize(
    "G",
    [_flowers(2, 3), _flowers(2, 5), _flowers(3, 3), _star_of_triangles(4), _star_of_triangles(5)],
    ids=["flowers-2x3", "flowers-2x5", "flowers-3x3", "star-triangles-4", "star-triangles-5"],
)
def test_blossom_on_flowers_under_relabeling(G):
    """Every relabeling changes the greedy seed and the root order, and with
    them which trees are contracted and which are dropped as Hungarian."""
    best = brute_force_max_matching(G)
    lexmin = brute_force_lexmin(G)
    rng = random.Random(G.n)
    for _ in range(40):
        H = _relabel(G, rng)
        got = lexmin_maximum_matching(H)
        assert is_matching(H, got) and len(got) == best
        assert got == brute_force_lexmin(H)
    assert lexmin_maximum_matching(G) == lexmin


def test_blossom_and_lexmin_against_networkx():
    """Sizes where the brute force cannot go, against networkx's independent
    matching codes (Hopcroft-Karp on trees, the weighted blossom on gnp)."""
    nx = pytest.importorskip("networkx")
    cases = []
    for n in (1000, 3000):
        T = nx.random_labeled_tree(n, seed=n)
        cases.append(("tree", n, T, len(nx.bipartite.maximum_matching(T)) // 2))
    for n in (1000, 2000):
        R = nx.fast_gnp_random_graph(n, 3.0 / n, seed=n)
        cases.append(("gnp", n, R, len(nx.max_weight_matching(R, maxcardinality=True))))
    for family, n, R, nu in cases:
        G = Graph(n, tuple(R.edges()))
        assert max_matching_size(G) == nu, (family, n)
        lexmin = lexmin_maximum_matching(G)
        assert is_matching(G, lexmin) and len(lexmin) == nu, (family, n)
        assert list(lexmin) == sorted(lexmin)


def _missed_by_some_maximum(G, side):
    """Vertices of ``side`` that some maximum matching of G leaves exposed,
    by enumerating every matching."""
    best, missed = -1, set()
    for m in all_matchings(G):
        if len(m.edges) < best:
            continue
        exposed = set(side) - {x for e in m.edges for x in e}
        if len(m.edges) > best:
            best, missed = len(m.edges), exposed
        else:
            missed |= exposed
    return missed


def _matching_numbers(G):
    """nu of every induced subgraph, by vertex mask and memoized per graph:
    the lowest vertex of a mask stays exposed or takes a neighbor in it."""
    nbr = [0] * G.n
    for u, v in G.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo = {0: 0}

    def nu(mask):
        if mask not in memo:
            low = mask & -mask
            rest = mask ^ low
            best = nu(rest)
            m = nbr[low.bit_length() - 1] & rest
            while m:
                w = m & -m
                best = max(best, 1 + nu(rest ^ w))
                m ^= w
            memo[mask] = best
        return memo[mask]

    return nu


def _even_after_maximize(G):
    search = _Search(G.n, G.adj_lists)
    return {v for v in range(G.n) if search.even[v]}


def test_cover_and_violator_do_not_depend_on_the_matching():
    """The vertices that ``maximize`` leaves even are D, the vertices that
    some maximum matching misses (Gallai-Edmonds). On a bipartite graph the
    König cover is (A - D) | N(D & A), and the Hall violator is D's sets:
    the same for every maximum matching."""
    for n in range(7):
        for G in all_graphs(n):
            D = _missed_by_some_maximum(G, range(n))
            assert _even_after_maximize(G) == D, G
            parts = is_bipartite(G)
            if parts is None:
                continue
            a_side = parts[0]
            _, cover = bipartite_matching_and_cover(G)
            assert cover == (a_side - D).union(*(G.neighbors(v) for v in D & a_side)), G
    odd_cycles = 0
    for n in range(7, 17):
        for G in random_graphs(n, 12, seed=n):
            if is_bipartite(G) is not None:
                continue
            odd_cycles += 1
            nu = _matching_numbers(G)
            full = (1 << n) - 1
            D = {v for v in range(n) if nu(full ^ (1 << v)) == nu(full)}
            assert _even_after_maximize(G) == D, G
    assert odd_cycles >= 80
    rng = random.Random(5)
    violators = 0
    for _ in range(300):
        system = random_set_system(rng)
        k = len(system.sets)
        pos = {x: k + i for i, x in enumerate(system.ground)}
        incidence = Graph(
            k + len(system.ground),
            tuple((i, pos[x]) for i in range(k) for x in system.sets[i]),
        )
        D = _missed_by_some_maximum(incidence, range(k))
        result = sdr_solve(system)
        if result.violator is None:
            assert not D and result.representatives is not None
        else:
            violators += 1
            assert result.violator == D, system
    assert violators >= 100


def _random_bipartite(data):
    a = data.draw(st.integers(1, 5))
    b = data.draw(st.integers(1, 5))
    mask = data.draw(st.integers(0, (1 << (a * b)) - 1))
    edges = []
    for i in range(a):
        for j in range(b):
            if mask >> (i * b + j) & 1:
                edges.append((i, a + j))
    return Graph(a + b, tuple(edges))


@given(st.data())
def test_bipartite_cover_certifies_duality(data):
    G = _random_bipartite(data)
    matching, cover = bipartite_matching_and_cover(G)
    assert is_matching(G, matching)
    assert len(matching) == len(cover) == brute_force_max_matching(G)
    assert all(u in cover or v in cover for u, v in G.edges)


def test_cover_requires_bipartite():
    with pytest.raises(ValueError):
        bipartite_matching_and_cover(generate("cycle", n=5))


@given(graphs(max_n=8))
def test_blossom_agrees_with_bipartite_route_when_bipartite(G):
    if is_bipartite(G) is None:
        return
    matching, _ = bipartite_matching_and_cover(G)
    assert len(matching) == max_matching_size(G)


def _check_repair(G, nu, S, allowance):
    n, full = G.n, (1 << G.n) - 1
    left = nu(full & ~sum(1 << s for s in S))
    search = _Search(n, G.adj_lists)
    search.revive()
    before = list(search.match)
    ok = search.repair(S, allowance)
    assert ok == (left >= nu(full) - allowance), (G, S, allowance)
    match, dead = search.match, search.dead
    if ok:
        assert dead == [v in S for v in range(n)]
        live = [(v, w) for v, w in enumerate(match) if not dead[v]]
        assert all(w == -1 or not dead[w] and match[w] == v for v, w in live)
        pairs = [(v, w) for v, w in live if w > v]
        assert is_matching(G, pairs) and len(pairs) == left, (G, S, allowance)
    else:
        assert match == before and not any(search.dead), (G, S, allowance)
    assert search.parent == [-1] * n and not any(search.even)
    assert search.base == list(range(n))


def test_repair_step_against_its_definition():
    """``repair`` from the revived state of ``maximize``, on every graph with
    n <= 5 and on seeded ones with n = 6-8, for every S with |S| <= 3 and
    every allowance 0..|S|: True exactly when nu(G - S) >= nu(G) -
    allowance, and then ``match`` is a maximum matching of G - S; after
    False, ``match`` and ``dead`` are as before. Either way the labels are
    clear again."""
    cases = [G for n in range(6) for G in all_graphs(n)]
    cases += [G for n in (6, 7, 8) for G in random_graphs(n, 30, seed=n)]
    for G in cases:
        nu = _matching_numbers(G)
        for k in range(min(G.n, 3) + 1):
            for S in combinations(range(G.n), k):
                for allowance in range(k + 1):
                    _check_repair(G, nu, S, allowance)
