"""Maximum-cardinality matching algorithms.

General graphs get an Edmonds blossom search (BFS alternating forest with
base contraction, O(V^3)); bipartite graphs additionally get Hopcroft-Karp
together with the standard minimum vertex cover read off the final layering,
which certifies the matching/cover duality constructively.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph, is_bipartite

__all__ = [
    "maximum_matching",
    "max_matching_size",
    "lexmin_maximum_matching",
    "hopcroft_karp",
    "bipartite_matching_and_cover",
    "hall_violator",
]

Edge = tuple[int, int]


def _blossom_match(n: int, adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """Edmonds blossom algorithm; returns the mate array (-1 for exposed)."""
    match = [-1] * n

    # Greedy seed matching cuts the number of augmentation phases.
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break

    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        end = find_augmenting(v)
        while end != -1:
            pv = p[end]
            ppv = match[pv]
            match[end] = pv
            match[pv] = end
            end = ppv

    return match


def maximum_matching(G: Graph) -> frozenset[Edge]:
    """A maximum matching of G (deterministic for a fixed graph)."""
    match = _blossom_match(G.n, G.adj_lists)
    return frozenset((v, match[v]) for v in range(G.n) if match[v] > v)


def max_matching_size(G: Graph) -> int:
    return len(maximum_matching(G))


def lexmin_maximum_matching(G: Graph) -> tuple[Edge, ...]:
    """The lexicographically smallest maximum matching (edges as sorted
    pairs, sets compared as sorted tuples). Greedy forcing: take each edge in
    order whenever a maximum matching through the forced prefix survives."""
    k = max_matching_size(G)
    chosen: list[Edge] = []
    banned = 0
    for u, v in G.edges:
        if len(chosen) == k:
            break
        if banned & ((1 << u) | (1 << v)):
            continue
        nb = banned | (1 << u) | (1 << v)
        rest = Graph(
            G.n,
            tuple(e for e in G.edges if not (nb & ((1 << e[0]) | (1 << e[1])))),
        )
        if len(chosen) + 1 + max_matching_size(rest) >= k:
            chosen.append((u, v))
            banned = nb
    return tuple(chosen)


def hopcroft_karp(
    n_left: int, n_right: int, adj: list[list[int]] | tuple
) -> tuple[int, list[int], list[int]]:
    """Maximum matching in a bipartite incidence structure.

    ``adj[i]`` lists the right-side neighbors of left vertex i. Returns the
    matching size and both mate arrays (-1 for exposed).
    """
    INF = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for w in adj[u]:
                nxt = match_r[w]
                if nxt == -1:
                    found = True
                elif dist[nxt] == INF:
                    dist[nxt] = dist[u] + 1
                    q.append(nxt)
        return found

    def augment(root: int) -> bool:
        """Layered depth-first search for an augmenting path from ``root``,
        on an explicit stack of (left vertex, neighbor iterator) pairs so that
        path length is not bounded by recursion depth."""
        stack = [(root, iter(adj[root]))]
        while stack:
            u, neighbors = stack[-1]
            for w in neighbors:
                nxt = match_r[w]
                if nxt == -1:
                    # Flip the path, deepest vertex first: each left vertex
                    # takes the right vertex after it, and its old mate (the
                    # right vertex it was reached through) goes to the one
                    # before it.
                    for x, _ in reversed(stack):
                        prev = match_l[x]
                        match_l[x] = w
                        match_r[w] = x
                        w = prev
                    return True
                if dist[nxt] == dist[u] + 1:
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                # Dead end: no augmenting path continues through u this phase.
                dist[u] = INF
                stack.pop()
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and augment(u):
                size += 1
    return size, match_l, match_r


def _alternating_reachable(
    n_left: int, adj, match_l: list[int], match_r: list[int]
) -> tuple[set[int], set[int]]:
    """Left/right vertices reachable from exposed left vertices along
    alternating (unmatched, matched, ...) paths."""
    seen_l = {u for u in range(n_left) if match_l[u] == -1}
    seen_r: set[int] = set()
    q = deque(seen_l)
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w in seen_r or match_l[u] == w:
                continue
            seen_r.add(w)
            nxt = match_r[w]
            if nxt != -1 and nxt not in seen_l:
                seen_l.add(nxt)
                q.append(nxt)
    return seen_l, seen_r


def hall_violator(n_left: int, adj, match_l: list[int], match_r: list[int]) -> set[int]:
    """Given a non-saturating maximum matching of the left side, a left index
    set W with |N(W)| = |W| - (number of exposed members) < |W|."""
    seen_l, _ = _alternating_reachable(n_left, adj, match_l, match_r)
    return seen_l


def bipartite_matching_and_cover(
    G: Graph,
) -> tuple[frozenset[Edge], frozenset[int]]:
    """A maximum matching and a vertex cover of the same size.

    The cover is (A minus reachable) union (B intersect reachable), where
    reachability follows alternating paths from the exposed part of A. Raises
    on non-bipartite input.
    """
    parts = is_bipartite(G)
    if parts is None:
        raise ValueError("graph is not bipartite")
    a_side, b_side = sorted(parts[0]), sorted(parts[1])
    a_index = {v: i for i, v in enumerate(a_side)}
    b_index = {v: i for i, v in enumerate(b_side)}
    adj = [[] for _ in a_side]
    for u, v in G.edges:
        if u in a_index:
            adj[a_index[u]].append(b_index[v])
        else:
            adj[a_index[v]].append(b_index[u])
    for row in adj:
        row.sort()
    _, match_l, match_r = hopcroft_karp(len(a_side), len(b_side), adj)
    seen_l, seen_r = _alternating_reachable(len(a_side), adj, match_l, match_r)
    cover = {a_side[i] for i in range(len(a_side)) if i not in seen_l}
    cover |= {b_side[j] for j in seen_r}
    matching = frozenset(
        tuple(sorted((a_side[i], b_side[match_l[i]])))
        for i in range(len(a_side))
        if match_l[i] != -1
    )
    return matching, frozenset(cover)
