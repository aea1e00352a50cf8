"""Maximum-cardinality matching algorithms.

General graphs get Edmonds' blossom search, one breadth-first alternating
tree per exposed root, on a search state shared by all roots of a graph. A
search resets only the vertices of its own tree; a blossom contracts by
walking the member lists of the bases it merges; and a root whose search
fails heads a Hungarian tree, which is dropped for good (Edmonds, "Paths,
trees, and flowers", 1965). The total cost is the sum of the tree sizes:
close to linear on trees, and on sparse random graphs growing with the length
of the augmenting paths. Nothing recurses. The lexicographically
smallest maximum matching keeps one maximum matching on that state and tests
each edge with at most two augmenting searches.

Bipartite graphs run on the same search. One alternating walk from the
exposed vertices of one side then reads off the minimum vertex cover, which
certifies the matching/cover duality, and the Hall violator of a set system.
"""

from __future__ import annotations

from .graph import Graph, is_bipartite

__all__ = [
    "maximum_mates",
    "maximum_matching",
    "max_matching_size",
    "lexmin_maximum_matching",
    "alternating_reach",
    "bipartite_matching_and_cover",
]

Edge = tuple[int, int]


class _Search:
    """Edmonds' alternating-tree search, kept between roots on one graph.

    ``match`` is the mate array (-1 for exposed). A vertex marked ``dead`` is
    invisible to every search; the matched edges of live vertices must join
    live vertices. Between searches ``parent`` is -1, ``base`` the identity
    and ``even`` false everywhere: a search restores only the vertices of its
    own tree, so it costs the size of that tree, not n.
    """

    __slots__ = ("adj", "match", "dead", "parent", "base", "even")

    def __init__(self, n: int, adj):
        self.adj = adj
        self.match = [-1] * n
        self.dead = [False] * n
        self.parent = [-1] * n
        self.base = list(range(n))
        self.even = [False] * n

    def maximize(self):
        """Turn the empty matching of a new state into a maximum one: a greedy
        pass, then one search per exposed vertex. A root whose search fails
        heads a Hungarian tree, and no later augmenting path passes through
        one, so the tree is marked dead for the rest of the pass."""
        match, dead, adj = self.match, self.dead, self.adj
        for v in range(len(match)):
            if match[v] == -1:
                for w in adj[v]:
                    if match[w] == -1:
                        match[v] = w
                        match[w] = v
                        break
        for v in range(len(match)):
            if match[v] == -1:
                for x in self.augment(v) or ():
                    dead[x] = True

    def augment(self, root: int) -> list[int] | None:
        """Search from the exposed vertex ``root``. On reaching another exposed
        vertex, flip the path and return None; otherwise return the vertices
        of the Hungarian tree."""
        tree: list[int] = []
        end = self._grow(root, tree)
        found = end != -1
        match, parent, base, even = self.match, self.parent, self.base, self.even
        while end != -1:
            pv = parent[end]
            ppv = match[pv]
            match[end] = pv
            match[pv] = end
            end = ppv
        for x in tree:
            parent[x] = -1
            base[x] = x
            even[x] = False
        return None if found else tree

    def _grow(self, root: int, tree: list[int]) -> int:
        """Breadth-first alternating tree from ``root``, recording every vertex
        it enters in ``tree``; returns the exposed vertex an augmenting path
        ends at, or -1. ``parent`` links each odd vertex to the even vertex
        that reached it; ``base`` maps each vertex to the base of its
        outermost blossom; ``members`` lists the vertices of each blossom by
        base, so a contraction walks only the blossoms it merges."""
        adj, match, dead = self.adj, self.match, self.dead
        parent, base, even = self.parent, self.base, self.even
        members: dict[int, list[int]] = {}
        even[root] = True
        tree.append(root)
        queue = [root]
        for v in queue:
            mate = match[v]
            for to in adj[v]:
                if to == mate or dead[to] or base[v] == base[to]:
                    continue
                if even[to]:
                    cur = self._lca(base[v], base[to])
                    marked: dict[int, None] = {}
                    self._mark_path(v, cur, to, marked)
                    self._mark_path(to, cur, v, marked)
                    into = members.setdefault(cur, [cur])
                    for b in marked:
                        group = members.pop(b, None) or [b]
                        for i in group:
                            base[i] = cur
                            if not even[i]:
                                even[i] = True
                                queue.append(i)
                        into.extend(group)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    w = match[to]
                    if w == -1:
                        return to
                    even[w] = True
                    tree.append(w)
                    queue.append(w)
        return -1

    def _lca(self, a: int, b: int) -> int:
        """The base where the tree paths from bases ``a`` and ``b`` meet. The
        two walks step in turn, so the cost is the length of the shorter
        detour, not the depth of the tree."""
        base, match, parent = self.base, self.match, self.parent
        seen: set[int] = set()
        while True:
            if a != -1:
                a = base[a]
                if a in seen:
                    return a
                seen.add(a)
                mate = match[a]
                a = -1 if mate == -1 else parent[mate]
            a, b = b, a

    def _mark_path(self, v: int, b: int, child: int, marked: dict[int, None]):
        """Record the blossom bases on the path from ``v`` up to base ``b``
        and point each even vertex on it to the vertex that closed the cycle,
        so that an augmenting path can later pass through the blossom."""
        base, match, parent = self.base, self.match, self.parent
        while base[v] != b:
            mate = match[v]
            marked[base[v]] = None
            marked[base[mate]] = None
            parent[v] = child
            child = mate
            v = parent[mate]


def maximum_mates(n: int, adj) -> list[int]:
    """Mate array (-1 for exposed) of a maximum matching of the graph with
    neighbor lists ``adj`` on 0..n-1. Each root is searched once, and a
    search costs the size of its tree, not n."""
    search = _Search(n, adj)
    search.maximize()
    return search.match


def _mated_edges(match: list[int]) -> frozenset[Edge]:
    return frozenset((v, w) for v, w in enumerate(match) if w > v)


def maximum_matching(G: Graph) -> frozenset[Edge]:
    """A maximum matching of G (deterministic for a fixed graph)."""
    return _mated_edges(maximum_mates(G.n, G.adj_lists))


def max_matching_size(G: Graph) -> int:
    return (G.n - maximum_mates(G.n, G.adj_lists).count(-1)) // 2


def lexmin_maximum_matching(G: Graph) -> tuple[Edge, ...]:
    """The lexicographically smallest maximum matching (edges as sorted
    pairs, sets compared as sorted tuples).

    Greedy forcing: take each edge in order whenever a maximum matching
    through the forced prefix survives. A maximum matching M of the graph
    minus the forced vertices is kept throughout. To test (u, v), u and v are
    removed and their mates freed; every augmenting path of what is left
    then starts at a freed mate, so the test needs at most two searches, and
    when it fails the two matched edges go back.
    """
    search = _Search(G.n, G.adj_lists)
    search.maximize()
    match = search.match
    dead = search.dead = [False] * G.n
    chosen: list[Edge] = []
    for u, v in G.edges:
        if dead[u] or dead[v]:
            continue
        mu, mv = match[u], match[v]
        dead[u] = dead[v] = True
        for x in (u, v, mu, mv):
            if x != -1:
                match[x] = -1
        # With (u, v) in M, or u or v exposed, what is left of M is one edge
        # short of M and so maximum without u and v. Otherwise it is two
        # short and must regain an edge along a path from a freed mate.
        if (
            mu not in (v, -1)
            and mv != -1
            and search.augment(mu) is not None
            and search.augment(mv) is not None
        ):
            match[u], match[mu], match[v], match[mv] = mu, u, mv, v
            dead[u] = dead[v] = False
            continue
        chosen.append((u, v))
    return tuple(chosen)


def alternating_reach(adj, match: list[int], roots) -> tuple[set[int], set[int]]:
    """The vertices reached from the exposed ``roots`` along alternating
    paths (an unmatched edge, then a matched one, and so on), split into
    those at even and those at odd distance. On a bipartite graph with a
    maximum matching, the even vertices on the roots' side are the ones that
    some maximum matching leaves exposed, whichever maximum matching ``match``
    is (Dulmage-Mendelsohn)."""
    even = set(roots)
    odd: set[int] = set()
    queue = list(even)
    for v in queue:
        for w in adj[v]:
            # The mate of an even vertex other than a root is already odd.
            if w in odd:
                continue
            odd.add(w)
            x = match[w]
            if x != -1:
                even.add(x)
                queue.append(x)
    return even, odd


def bipartite_matching_and_cover(
    G: Graph,
) -> tuple[frozenset[Edge], frozenset[int]]:
    """A maximum matching and a vertex cover of the same size.

    With parts (A, B) and the vertices reached along alternating paths from
    the exposed vertices of A, the cover is (A minus the even ones) union the
    odd ones. It is the same for every maximum matching. Raises on
    non-bipartite input.
    """
    parts = is_bipartite(G)
    if parts is None:
        raise ValueError("graph is not bipartite")
    a_side = parts[0]
    match = maximum_mates(G.n, G.adj_lists)
    even, odd = alternating_reach(
        G.adj_lists, match, [v for v in a_side if match[v] == -1]
    )
    return _mated_edges(match), frozenset(a_side - even) | odd
