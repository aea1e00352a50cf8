"""Maximum-cardinality matching on one search state, ``_Search``.

The state holds the mate array, the dead marks and the labels of Edmonds'
alternating trees ("Paths, trees, and flowers", 1965); nothing recurses.
``augment`` grows one breadth-first tree from an exposed root and, when it
augments, resets only that tree, so a search costs the size of its tree.
``maximize``, which every new state runs, makes one search per exposed
vertex after a greedy pass and keeps each failed root's Hungarian tree
dead, labels and all, for the rest of the pass. Its even vertices are then D, the vertices that some maximum
matching leaves exposed (Gallai-Edmonds; Lovasz & Plummer, "Matching
Theory", 1986, ch. 3); on bipartite graphs D gives the König cover and the
Hall violator. ``repair`` deletes a vertex set and keeps the matching
maximum; the lexicographically smallest maximum matching calls it once per
edge.
"""

from __future__ import annotations

from .graph import Graph, is_bipartite

__all__ = [
    "max_matching_size",
    "lexmin_maximum_matching",
    "bipartite_matching_and_cover",
]

Edge = tuple[int, int]


class _Search:
    """Edmonds' alternating-tree search, kept between roots on one graph.

    ``match`` is the mate array (-1 for exposed). A vertex marked ``dead`` is
    invisible to every search; the matched edges of live vertices must join
    live vertices. Between searches ``parent`` is -1, ``base`` the identity
    and ``even`` false on every live vertex. A new state holds a maximum
    matching of the graph on ``adj``, with D marked even.
    """

    __slots__ = ("adj", "match", "dead", "parent", "base", "even", "killed")

    def __init__(self, n: int, adj):
        self.adj = adj
        self.match, self.dead, self.even = [-1] * n, [False] * n, [False] * n
        self.parent, self.base, self.killed = [-1] * n, list(range(n)), []
        self.maximize()

    def revive(self):
        """Make the vertices that ``maximize`` killed live and unlabelled
        again, keeping ``match``: they are matched among themselves or
        exposed. Only for right after ``maximize``."""
        dead, killed = self.dead, self.killed
        for x in killed:
            dead[x] = False
        self._reset(killed)
        killed.clear()

    def maximize(self):
        """Turn the empty matching of a new state into a maximum one. No later
        augmenting path passes through the Hungarian tree of a failed root, so
        the tree is marked dead, labels and all, and listed in ``killed``;
        ``even`` then marks D."""
        match, dead, adj, killed = self.match, self.dead, self.adj, self.killed
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
                    killed.append(x)

    def augment(self, root: int, journal: list | None = None) -> list[int] | None:
        """Search from the exposed vertex ``root``. On reaching another exposed
        vertex, flip the path, appending each changed vertex and its old mate
        to ``journal`` if one is given, reset the tree and return None.
        Otherwise return the vertices of the Hungarian tree, still labelled:
        the caller kills it or resets it."""
        tree: list[int] = []
        end = self._grow(root, tree)
        if end == -1:
            return tree
        match, parent = self.match, self.parent
        while end != -1:
            pv = parent[end]
            ppv = match[pv]
            if journal is not None:
                journal += (end, match[end]), (pv, ppv)
            match[end] = pv
            match[pv] = end
            end = ppv
        self._reset(tree)
        return None

    def _reset(self, tree: list[int]):
        parent, base, even = self.parent, self.base, self.even
        for x in tree:
            parent[x] = -1
            base[x] = x
            even[x] = False

    def repair(self, S, allowance: int) -> bool:
        """Delete the live vertices ``S`` and return whether the matching
        number falls by at most ``allowance``. If it does, ``match`` on the
        live vertices is a maximum matching of what is left; if not, ``match``
        and ``dead`` are as before. A deleted vertex keeps its last mate.

        Every augmenting path left ends at a freed mate of S, so one search
        from each settles it. Pairs inside S, or else one edge inside S, are
        lost in any case: that caps what can come back, and the step stops at
        the first search that reaches the cap, or fails at once when the
        target is above it. While more than one pair may come back, the mates
        not yet searched are hidden, since a path between two of them could
        leave two exposed vertices an augmenting path. A miss replays the
        journal of path flips backwards and gives the freed mates back; flips
        that no miss can follow go unrecorded."""
        match, dead = self.match, self.dead
        freed = inside = 0  # mates freed outside S, and matched vertices in S
        for s in S:
            dead[s] = True
            m = match[s]
            if m != -1:
                if m in S:
                    inside += 1
                else:
                    freed += 1
                    match[m] = -1
        need, cap = freed + inside // 2 - allowance, freed  # pairs to win back, at most
        if not inside and freed and any(t in self.adj[s] for s in S for t in S):
            cap -= 1
        if need <= cap == 0:
            return True
        if need <= cap:
            if cap > 1:
                for s in S:
                    m = match[s]
                    if m != -1 and m not in S:
                        dead[m] = True
            gain, journal = 0, [] if need > 1 else None
            for s in S:
                m = match[s]
                if m == -1 or m in S:
                    continue
                dead[m] = False
                if gain < cap:
                    tree = self.augment(m, journal if need - gain > 1 else None)
                    if tree is None:
                        gain += 1
                    else:
                        self._reset(tree)
            if gain >= need:
                return True
            for x, old in reversed(journal or ()):
                match[x] = old
        for s in S:
            dead[s] = False
            m = match[s]
            if m != -1:
                match[m] = s
        return False

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


def max_matching_size(G: Graph) -> int:
    return (G.n - _Search(G.n, G.adj_lists).match.count(-1)) // 2


def lexmin_maximum_matching(G: Graph) -> tuple[Edge, ...]:
    """The lexicographically smallest maximum matching (edges as sorted
    pairs, sets compared as sorted tuples).

    Greedy forcing: take each edge (u, v) in order whenever a maximum
    matching through the forced prefix survives, that is, when deleting u
    and v from what is left lowers its matching number by one. One repair
    step with allowance 1 decides that and keeps the matching maximum.
    """
    search = _Search(G.n, G.adj_lists)
    search.revive()
    dead, repair = search.dead, search.repair
    chosen: list[Edge] = []
    for e in G.edges:
        u, v = e
        if not (dead[u] or dead[v]) and repair(e, 1):
            chosen.append(e)
    return tuple(chosen)


def bipartite_matching_and_cover(
    G: Graph,
) -> tuple[frozenset[Edge], frozenset[int]]:
    """A maximum matching and a vertex cover of the same size.

    With parts (A, B), the cover is (A - D) | N(D & A) for the set D that
    ``maximize`` marks even, so it is the same for every maximum matching.
    Raises on non-bipartite input.
    """
    parts = is_bipartite(G)
    if parts is None:
        raise ValueError("graph is not bipartite")
    search = _Search(G.n, G.adj_lists)
    match, even, adj, A = search.match, search.even, G.adj_lists, parts[0]
    cover = {a for a in A if not even[a]}.union(*(adj[a] for a in A if even[a]))
    return frozenset((v, w) for v, w in enumerate(match) if w > v), frozenset(cover)
