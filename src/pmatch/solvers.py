"""Exact computation of every matching parameter.

- Theorem fast paths: blossom for ``beta1`` and ``beta_plain``; the tree
  greedy for ``b_matching_max``; an edge cover grown from a maximum matching
  for ``alpha1``; the smallest bridge for ``beta_sep_min``.
- Class-collapse routes (``COLLAPSE_CLASSES``): on bipartite, triangle-free,
  even-cycle-free and acyclic graphs some variants hold for every matching,
  and their maxima and minima are those of plain matchings.
- One bitset independent-set core with two searches on explicit stacks:
  its maximum search answers ``beta0`` (and ``alpha0`` by complement),
  ``beta_star``, ``beta_on``, ``beta_cn`` and ``beta_total_max``, and its
  dominating search answers ``gamma``, as the smallest maximal independent
  set ``beta1_minus``, ``beta_plain_minus``, ``beta_star_minus``,
  ``beta_on_minus``, ``beta_cn_minus`` and ``beta_total_min``, and, filtered
  by the predicate per component, ``beta_c_minus`` and ``beta_if_minus``.
- One first-hit search over the edges (``_first_hit``), which walks the
  matchings in lexicographic order toward a target size, answers the maxima
  of the nine variants that are not pairwise and the minima of seven of
  them, and the connected and isolate-free maxima by one walk per component
  that counts (``_component_maximum``).
- A matching-cut search for ``beta_sep_min`` on a graph with no bridge
  splits each component into two sides, one vertex at a time.

``ROUTES`` is the one place where routes are chosen: it lists each tag's
routes in the order they are tried, and ``compute_parameter`` walks them. A
variant that no theorem or class settles on G takes ``_variant_search``,
which picks its search above. Each search takes a node budget, an integer
or None for none, and raises ``BudgetExceededError`` past it.

Every route is deterministic: among equally sized optima the
lexicographically smallest witness wins. Every cut is strict, so a branch
that can still tie the best is kept, unless no tie it can reach comes first.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, replace
from functools import reduce
from operator import and_, or_

from .graph import (
    Graph,
    block_decomposition,
    components,
    induced_subgraph,
    is_acyclic_graph,
    is_bipartite,
    is_even_cycle_free,
    is_triangle_free,
)
from .matching import _Search, lexmin_maximum_matching, max_matching_size
from .properties import (
    HEREDITARY_PROPERTIES,
    BoundFunction,
    PropertyId,
    _alternating_cycle,
    _assert_tail,
    _bits,
    _join_coloured,
    pairwise_conflict_masks,
    property_holds,
)

__all__ = [
    "ParameterId",
    "ParameterResult",
    "BudgetExceededError",
    "SetSystem",
    "SdrResult",
    "PROPERTY_MAX_PARAM",
    "PROPERTY_MIN_PARAM",
    "max_matching",
    "min_maximal_matching",
    "edge_cover_number",
    "tree_b_matching_max",
    "min_separating_matching",
    "COLLAPSE_CLASSES",
    "sdr_solve",
    "compute_parameter",
]

Edge = tuple[int, int]


class BudgetExceededError(RuntimeError):
    """A search ran past its node budget; results are never approximated."""

    def __init__(self, what: str, nodes: int):
        super().__init__(f"{what}: node budget exceeded after {nodes} nodes")
        self.what = what
        self.nodes = nodes


class ParameterId(enum.Enum):
    """Closed tag set; each tag maps to one solver route and one oracle route."""

    BETA1 = "beta1"
    BETA1_MINUS = "beta1_minus"
    ALPHA0 = "alpha0"
    BETA0 = "beta0"
    ALPHA1 = "alpha1"
    GAMMA = "gamma"
    BETA_PLAIN = "beta_plain"
    BETA_PLAIN_MINUS = "beta_plain_minus"
    BETA_STAR = "beta_star"
    BETA_STAR_MINUS = "beta_star_minus"
    BETA_UR = "beta_ur"
    BETA_UR_MINUS = "beta_ur_minus"
    BETA_C = "beta_c"
    BETA_C_MINUS = "beta_c_minus"
    BETA_IF = "beta_if"
    BETA_IF_MINUS = "beta_if_minus"
    BETA_DC = "beta_dc"
    BETA_DC_MINUS = "beta_dc_minus"
    BETA_AC = "beta_ac"
    BETA_AC_MINUS = "beta_ac_minus"
    BETA_I = "beta_i"
    BETA_I_MINUS = "beta_i_minus"
    BETA_B = "beta_b"
    BETA_B_MINUS = "beta_b_minus"
    BETA_ON = "beta_on"
    BETA_ON_MINUS = "beta_on_minus"
    BETA_CN = "beta_cn"
    BETA_CN_MINUS = "beta_cn_minus"
    BETA_V_IR_MAX = "beta_v_IR"
    BETA_V_IR_MIN = "beta_v_ir"
    BETA_E_IR_MAX = "beta_e_IR"
    BETA_E_IR_MIN = "beta_e_ir"
    BETA_TOTAL_MAX = "beta_total_max"
    BETA_TOTAL_MIN = "beta_total_min"
    BETA_SEP_MIN = "beta_sep_min"
    B_MATCHING_MAX = "b_matching_max"

    @classmethod
    def from_string(cls, s: str) -> "ParameterId":
        key = s.strip()
        aliases = {"beta1minus": "beta1_minus", "beta_1": "beta1", "beta_1_minus": "beta1_minus"}
        key = aliases.get(key, key)
        for p in cls:
            if p.value == key:  # case-sensitive: beta_v_IR and beta_v_ir differ
                return p
        raise ValueError(f"unknown parameter {s!r}")


_PROPERTY_PARAM_PAIRS = {
    PropertyId.PLAIN: (ParameterId.BETA_PLAIN, ParameterId.BETA_PLAIN_MINUS),
    PropertyId.INDUCED: (ParameterId.BETA_STAR, ParameterId.BETA_STAR_MINUS),
    PropertyId.UNIQUELY_RESTRICTED: (ParameterId.BETA_UR, ParameterId.BETA_UR_MINUS),
    PropertyId.CONNECTED: (ParameterId.BETA_C, ParameterId.BETA_C_MINUS),
    PropertyId.ISOLATE_FREE: (ParameterId.BETA_IF, ParameterId.BETA_IF_MINUS),
    PropertyId.DISCONNECTED: (ParameterId.BETA_DC, ParameterId.BETA_DC_MINUS),
    PropertyId.ACYCLIC: (ParameterId.BETA_AC, ParameterId.BETA_AC_MINUS),
    PropertyId.INDEPENDENT: (ParameterId.BETA_I, ParameterId.BETA_I_MINUS),
    PropertyId.BIPARTITE: (ParameterId.BETA_B, ParameterId.BETA_B_MINUS),
    PropertyId.ONBR: (ParameterId.BETA_ON, ParameterId.BETA_ON_MINUS),
    PropertyId.CNBR: (ParameterId.BETA_CN, ParameterId.BETA_CN_MINUS),
    PropertyId.VERTEX_IRREDUNDANT: (ParameterId.BETA_V_IR_MAX, ParameterId.BETA_V_IR_MIN),
    PropertyId.EDGE_IRREDUNDANT: (ParameterId.BETA_E_IR_MAX, ParameterId.BETA_E_IR_MIN),
}

PROPERTY_MAX_PARAM = {p: pair[0] for p, pair in _PROPERTY_PARAM_PAIRS.items()}
PROPERTY_MIN_PARAM = {p: pair[1] for p, pair in _PROPERTY_PARAM_PAIRS.items()}


@dataclass(frozen=True)
class ParameterResult:
    """Value plus witness plus provenance for one parameter on one graph.

    ``value`` is None when the feasible set is empty (rendered as the token
    "undefined" downstream). The witness, when present, re-validates through
    the predicates; for maxima its size equals the value.
    """

    parameter: ParameterId
    value: int | None
    witness: object = None
    route: str = "search"
    nodes_explored: int = 0


# -- the independent-set core --------------------------------------------------
#
# Elements are 0..len(masks)-1; bit j of conflict[i] means i and j cannot be
# chosen together. Sets are bitmasks; equally sized optima compare as sorted
# tuple pairs (elements below ``split``, the rest), plain tuples at split 0.


def _precedes(a: int, b: int, low: int) -> bool:
    """Whether set ``a`` comes before the equally sized set ``b``, each taken
    as the sorted tuple pair (its elements in ``low``, the rest)."""
    d = (a ^ b) & low
    if not d:  # equal first parts: the holder of the smallest difference
        d = a ^ b
        return bool(d & -d & a)
    x = d & -d  # its holder is first unless the other first part ends below x
    return b & low >= x << 1 if x & a else a & low < x << 1


def _max_independent(conflict: list[int], budget: int | None, what: str, split: int = 0):
    """Largest independent set by branch and bound (Tomita & Seki, DMTCS
    2003). A node with k chosen, while the best set has b, peels b - k - 1
    greedy cliques off its available elements; a set that ties the best takes
    one element per clique at most, so it takes one of the elements left. The
    node is cut when none is left, and otherwise its i-th child takes the
    i-th left element in index order and drops those before it. Returns the
    first largest set and the node count."""
    limit = sys.maxsize if budget is None else budget
    low = (1 << split) - 1
    best_size = best = nodes = 0
    # Depth first on an explicit stack. An entry with a nonzero ``branch``
    # holds a node's children that are still to come: the lowest one is
    # built when it is popped, and the rest go back as one entry.
    stack = [((1 << len(conflict)) - 1, 0, 0)]
    while stack:
        avail, cur, branch = stack.pop()
        if branch:
            bit = branch & -branch
            if branch ^ bit:
                stack.append((avail ^ bit, cur, branch ^ bit))
            avail, cur = avail & ~conflict[bit.bit_length() - 1] & ~bit, cur | bit
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(what, nodes)
        k = cur.bit_count()
        if k > best_size or k == best_size and _precedes(cur, best, low):
            best_size, best = k, cur
        # Each clique of the conflict graph holds one chosen element at most:
        # what is left after b - k - 1 greedy cliques is the branch set.
        rest, parts = avail, k + 1
        while rest and parts < best_size:
            clique = rest & -rest
            grow = rest & conflict[clique.bit_length() - 1]
            while grow:
                bit = grow & -grow
                clique |= bit
                grow = (grow ^ bit) & conflict[bit.bit_length() - 1]
            rest ^= clique
            parts += 1
        if rest:
            stack.append((avail, cur, rest))
    return tuple(_bits(best)), nodes


def _min_dominating(masks: list[int], independent: bool, budget: int | None, what: str,
                    split: int = 0, accept=None, roots=(0,)):
    """Smallest set covering every element, where element i covers itself
    and the set bits of ``masks[i]``, by branching on who covers the first
    uncovered element. With ``independent`` only uncovered elements are
    candidates, which gives the smallest maximal independent set. A covering
    set becomes the best one only if ``accept`` (when given) takes it, as a
    sorted index tuple. The child that takes a candidate may not take the
    candidates that its older siblings took: a set holding several candidates
    lies below the lowest of them alone, so each set is reached once. A node
    is cut when more uncovered elements that pairwise share no candidate are
    packed than it may still add. A node whose packing only ties the best set
    B is cut too when no completion can come before B, which needs (a) B's
    first part (its elements below ``split``) and an element outside B below
    every element of B it cannot hold; (b) a first-part element outside B
    below every such one of B's first part and below B's largest; or (c) a
    first part that is a proper prefix of B's. At ``split`` 0 only (a) is
    left. The search starts from each covered mask of ``roots`` in turn, with
    one bound and one node count over all of them. Returns the first
    smallest such set and the node count."""
    if not masks:
        return (), 0
    limit = sys.maxsize if budget is None else budget
    closed = [c | 1 << i for i, c in enumerate(masks)]
    # ball[i]: the elements that share a candidate with i, filled on first use.
    ball = [0] * len(closed)
    full = (1 << len(closed)) - 1
    low = (1 << split) - 1
    best_size = len(closed) + 1
    best = nodes = 0
    # Depth first on an explicit stack, the lowest candidate popped first.
    # ``out`` holds the candidates that an older sibling took.
    stack = [(root, 0, 0) for root in reversed(roots)]
    while stack:
        dominated, cur, out = stack.pop()
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(what, nodes)
        k = cur.bit_count()
        if dominated == full:
            if k < best_size or _precedes(cur, best, low):
                if accept is None or accept(tuple(_bits(cur))):
                    best_size, best = k, cur
            continue
        free = full & ~dominated
        # Uncovered elements that pairwise share no candidate each need their
        # own: pack them greedily, and cut once the best can no longer be tied.
        # Before a best exists nothing is cut: cur and free are disjoint.
        rest, need = free if best_size <= len(closed) else 0, k
        while rest and need <= best_size:
            i = (rest & -rest).bit_length() - 1
            if not ball[i]:
                ball[i] = reduce(or_, (closed[j] for j in _bits(closed[i])))
            rest &= ~ball[i]
            need += 1
        if need > best_size:
            continue
        if need == best_size:
            # A completion only ties: keep the node if it can come first by
            # (a), (b) or (c). ``lost`` is what of B it cannot hold.
            can = cur | (free if independent else full) & ~out
            lost, vb, cur_v = best & ~can, best & low, cur & low
            lost_v, t = lost & low, cur_v.bit_length()
            y = can & low & ~vb & (lost_v & -lost_v) - 1
            if not (0 < (y & -y) << 1 <= vb  # (b)
                    or not cur_v & ~vb
                    and (not lost_v and can & ~best & ~low & (lost & -lost) - 1  # (a)
                         or vb >> t and not lost_v & (1 << t) - 1)):  # (c)
                continue
        first = (free & -free).bit_length() - 1
        cands = (closed[first] & free if independent else closed[first]) & ~out
        while cands:
            v = cands.bit_length() - 1
            cands ^= 1 << v
            stack.append((dominated | closed[v], cur | 1 << v, out | cands))
    return tuple(_bits(best)), nodes


# -- the first-hit search for the variants that are not pairwise ------------


def _stepper(G: Graph, P: PropertyId):
    """The empty matching's state for P and ``step(state, j) -> (holds,
    state')``: whether the matching with state ``state`` plus edge j, which
    is disjoint from it, has P, and the state of that larger matching. A step
    does only the work that edge j can change. For hereditary P, ``state``
    must be that of a matching with P. The ur and bipartite steps call the
    predicates' own search and join, whose references are the oracle's
    perfect-matching count and orientation scan; the other predicates of
    ``properties`` are the reference."""
    adj, edges = G.adj_masks, G.edges
    # One partner array serves every frame of the search: a step's edge is
    # disjoint from every live prefix, so it never overwrites a live entry.
    partner = [0] * G.n

    if P is PropertyId.UNIQUELY_RESTRICTED:
        # The state is V(M). M has no alternating cycle, so one of M + uv
        # runs through uv. It leaves u and v on unmatched edges into the old
        # V(M), so an end that sees none of it settles the step.
        def step(sat, j):
            u, v = edges[j]
            partner[u], partner[v] = v, u
            if not adj[u] & sat or not adj[v] & sat:
                return True, sat | 1 << u | 1 << v
            sat |= 1 << u | 1 << v
            return _alternating_cycle(adj, partner, sat, u, v) is None, sat
        return 0, step

    if P is PropertyId.INDEPENDENT:
        # The state is V(M) and the tails of an orientation of M with
        # independent tails. Edge uv takes u (else v) as its tail when no
        # tail sees it. Otherwise propagate "u is a tail" (else "v") from an
        # empty assignment of ``properties._orient_masks``'s 2-SAT. Every new
        # clause holds uv's variable, and propagation settles every clause it
        # touches, so the clauses it leaves are old ones that the old tails
        # satisfy: those keep their ends (Even, Itai & Shamir, SIAM J.
        # Comput. 1976). When both literals fail, M + uv has no orientation.
        def step(state, j):
            sat, tails = state
            u, v = edges[j]
            partner[u], partner[v] = v, u
            sat |= 1 << u | 1 << v
            if not adj[u] & tails:
                return True, (sat, tails | 1 << u)
            if not adj[v] & tails:
                return True, (sat, tails | 1 << v)
            forced = (_assert_tail(adj, partner, sat, 0, 0, u)
                      or _assert_tail(adj, partner, sat, 0, 0, v))
            if forced is None:
                return False, (sat, None)
            t, h = forced
            return True, (sat, t | tails & ~(t | h))
        return (0, 0), step

    if P is PropertyId.BIPARTITE:
        # The state is a 2-colouring (a, b) of each component of <M>.
        def step(comps, j):
            comps = _join_coloured(adj, comps, *edges[j])
            return comps is not None, comps
        return (), step

    if P in (PropertyId.VERTEX_IRREDUNDANT, PropertyId.EDGE_IRREDUNDANT):
        # The state: the vertices next to exactly one saturated vertex
        # (``one``) and to more (``many``), V(M), and per matched edge the
        # vertices next to its ends. An edge is irredundant while one of
        # those lies outside V(M), for v_IR one next to no other saturated
        # vertex either: an external private neighbor of one of its ends.
        private = P is PropertyId.VERTEX_IRREDUNDANT

        def step(state, j):
            one, many, sat, nears = state
            u, v = edges[j]
            for w in (u, v):
                many |= one & adj[w]
                one = (one | adj[w]) & ~many
            sat |= 1 << u | 1 << v
            nears += (adj[u] | adj[v],)
            free = one & ~sat if private else ~sat
            state = (one, many, sat, nears)
            for near in nears:
                if not near & free:
                    return False, state
            return True, state
        return (0, 0, 0, ()), step

    # Connected, isolate-free, disconnected, acyclic: the state is the
    # components of <M> as vertex masks. Edge uv merges those its ends see;
    # a forest stays one when its ends see each of them once. Single edges
    # pass the isolate-free and disconnected tests by fiat.
    def step(comps, j):
        u, v = edges[j]
        near, merged, rest = adj[u] | adj[v], 0, []
        for c in comps:
            if c & near:
                merged |= c
            else:
                rest.append(c)
        new = (*rest, merged | 1 << u | 1 << v)
        if P is PropertyId.CONNECTED:
            return not rest, new
        if P is PropertyId.DISCONNECTED:
            return not comps or bool(rest), new
        if P is PropertyId.ISOLATE_FREE:
            return not comps or all(c.bit_count() > 2 for c in new), new
        met = len(comps) - len(rest)
        return (adj[u] & merged).bit_count() + (adj[v] & merged).bit_count() == met, new
    return (), step


def _pair_rows(G: Graph, P: PropertyId):
    """The failing pairs of a hereditary P, one row per edge, filled on
    demand: ``fill(i)`` sets ``rows[i]`` (-1 until then) to the edges j > i
    that share no end with edge i and for which {e_i, e_j} lacks P, as a
    bitmask, and returns it. It steps its own ``_stepper``, whose partner
    array leaves a walk's intact. Returns ``rows`` and ``fill``."""
    start, step = _stepper(G, P)
    at, edges = G.incidence_masks, G.edges
    every = (1 << len(edges)) - 1
    rows = [-1] * len(edges)

    def fill(i):
        u, v = edges[i]
        state = step(start, i)[1]
        row, later = 0, every & -(2 << i) & ~(at[u] | at[v])
        while later:
            bit = later & -later
            if not step(state, bit.bit_length() - 1)[0]:
                row |= bit
            later ^= bit
        rows[i] = row
        return row
    return rows, fill


def _first_hit(G: Graph, P: PropertyId, nu: int, minimum: bool, budget: int | None, what: str,
               k: int = 1, nodes: int = 0):
    """Walk the matchings of ``G.edges`` in lexicographic order toward a
    target size k, for those with P (with ``minimum``, that no edge disjoint
    from them extends with P). Edges are sorted, so the first hit of a size
    is the lexicographically smallest. A minimum walks once per k from ``k``
    to ``nu`` and returns its first hit (None if none). A maximum walks once
    from ``k``, each hit becoming the best and raising k past its size until
    k exceeds ``nu``, and returns the last hit (() if none). Each frame
    carries its prefix's state, and ``_stepper``'s step settles P for each
    candidate (the ur step searches for an alternating cycle only when both
    ends of the new edge see the old V(M)); a minimum's frame also carries
    the edges that share no vertex with its prefix, the ones its maximality
    test steps. That test tries the edge that last extended a candidate
    first, since sibling candidates often share it; the answer is the same.
    A prefix is never extended when:
    - P is hereditary and the prefix lacks it. A hereditary maximum also
      drops from a child's candidates the edges that fail P beside the
      child's new edge i alone, since no matching with both has P: row i of
      ``_pair_rows``, filled the first time edge i extends a prefix with P;
    - the compatible edges after it touch too few vertices to hold the edges
      it still lacks of k, two ends each;
    - P is disconnected and ⟨M⟩ is one component C, unless an edge after it
      has no end in N[C]: V(M) stays in one component of any extension, so
      a second one needs such an edge. The frame carries the edges with an
      end in N[V(M)], the OR of ``ring`` over the prefix;
    - P is vertex-irredundant, it lacks two edges or more, and 3k plus the
      unsaturated vertices that two saturated ones already see and no later
      edge touches exceeds n: a hit of size k has 2k ends and k private
      vertices (outside V(M), next to one saturated vertex), and such a
      vertex is neither;
    - with ``minimum``, a target of P's rule that a hit must reach is out of
      reach of every edge after it. A hit is P-maximal, so no edge that
      the rule says extends it is left:
      (a) ur and independent: the targets are the vertices with an edge,
          reached through N[V(M)]. An edge uv disjoint from V(M) with an end
          x that sees none of it extends M: for ur an alternating cycle
          through uv leaves both ends on unmatched edges into V(M), and for
          independent x becomes a tail, and tails lie in V(M);
      (b) acyclic, bipartite, disconnected and e_IR: the targets are the
          edges, reached when an end lies in N[V(M)]. An edge with no end
          there is a component of ⟨M + e⟩ of its own, and for e_IR its ends
          keep a neighbor outside V(M), unless e is a component of G, which
          is then no target;
      (c) v_IR: the targets are the edges uv with a third vertex next to
          exactly one of u and v, reached when an end lies within distance
          2 of V(M). If none does, the old private neighbors stay private
          and that third vertex is private to uv.
      A prefix one edge short of k keeps only the edges that reach every
      target left, and at k = 1 so does the root. The walk's order does not
      change, so the first hit does not either.
    Frames carry their prefix as its size and edge mask, and the witness is
    built at a hit. Also returns the node count, one node per prefix tried,
    counted on from ``nodes`` so that several walks share one budget. The
    minima take no rows: on their short walks the fill cost more time than
    the rows saved."""
    edges = G.edges
    start, step = _stepper(G, P)
    hereditary = P in HEREDITARY_PROPERTIES
    disconnected = P is PropertyId.DISCONNECTED
    private = P is PropertyId.VERTEX_IRREDUNDANT
    at, adj = G.incidence_masks, G.adj_masks
    clash = [at[u] | at[v] for u, v in edges]  # edge j and the edges sharing an end with it
    ends = [1 << u | 1 << v for u, v in edges]
    every = (1 << len(edges)) - 1
    # ring[j]: what edge j adds to a frame's ``reach``. A minimum's targets
    # (``goal``) are what a hit must reach, and cover[t] the edges that reach t.
    ring = cover = [0] * len(edges)
    goal = 0
    if disconnected or minimum:
        near, closed = G.closed_incidence_masks, G.closed_adj_masks
        # For edge j = uv, the edges with an end in N[u] or N[v].
        ring = cover = [near[u] | near[v] for u, v in edges]
    if minimum:
        if P in (PropertyId.UNIQUELY_RESTRICTED, PropertyId.INDEPENDENT):  # rule (a)
            ring, cover = [closed[u] | closed[v] for u, v in edges], near
            goal = reduce(or_, ends, 0)
        elif P is PropertyId.VERTEX_IRREDUNDANT:  # rule (c)
            ring = cover = [reduce(or_, map(near.__getitem__, _bits(closed[u] | closed[v])))
                            for u, v in edges]
            goal = sum(1 << j for j, (u, v) in enumerate(edges) if (adj[u] ^ adj[v]) & ~ends[j])
        elif P is PropertyId.EDGE_IRREDUNDANT:  # rule (b), K2 components aside
            goal = sum(1 << j for j, (u, v) in enumerate(edges) if adj[u] | adj[v] != ends[j])
        elif P in (PropertyId.ACYCLIC, PropertyId.BIPARTITE, PropertyId.DISCONNECTED):  # rule (b)
            goal = every
    pairs = hereditary and not minimum
    if pairs:
        rows, fill = _pair_rows(G, P)
    limit = sys.maxsize if budget is None else budget
    best = 0  # a maximum's last hit, as an edge mask
    killer = 0  # the edge that last showed a minimum's candidate not maximal, as a bit
    for k in range(k, nu + 1) if minimum else (k,):
        # A frame per depth: the prefix's size and edge mask, as a bitmask
        # the edges after its last edge that are still compatible with it and
        # not yet tried, the prefix's state, for a minimum the edges disjoint
        # from the prefix (0 for a maximum), and its reach, the OR of ``ring``
        # over the prefix: N[V(M)] for rule (a), else the edges it reaches.
        top = reduce(and_, map(cover.__getitem__, _bits(goal)), every) if k == 1 else every
        stack = [[0, 0, top, start, every if minimum else 0, 0]]
        while stack and k <= nu:
            frame = stack[-1]
            size, chosen, avail, state, opened, reach = frame
            if not avail or size + avail.bit_count() < k:  # too few edges left
                stack.pop()
                continue
            low = avail & -avail
            frame[2] = avail ^ low
            nodes += 1
            if nodes > limit:
                raise BudgetExceededError(what, nodes)
            i = low.bit_length() - 1
            holds, state = step(state, i)
            size += 1
            chosen |= low
            if size >= k:
                if minimum:
                    # Maximal: no edge disjoint from it extends it with P.
                    # The edge that last extended a candidate goes first.
                    if holds:
                        ext = opened & ~clash[i]
                        bit = ext & killer or ext & -ext
                        while bit:
                            if step(state, bit.bit_length() - 1)[0]:
                                killer = bit
                                break
                            ext ^= bit
                            bit = ext & -ext
                        else:
                            return tuple(edges[j] for j in _bits(chosen)), nodes
                    continue
                if holds:
                    best, k = chosen, size + 1
            if holds or not hereditary:
                rest, reach = avail & ~clash[i], reach | ring[i]
                if pairs:
                    row = rows[i]
                    rest &= ~(fill(i) if row < 0 else row)
                lack = goal & ~reach
                if lack:
                    # Each target left needs an edge of rest that reaches it,
                    # and a last edge must reach them all.
                    last = k - size == 1
                    while lack and rest:
                        t = lack & -lack
                        lack ^= t
                        hit = cover[t.bit_length() - 1] & rest
                        if last or not hit:
                            rest = hit
                    if not rest:
                        continue
                if disconnected and len(state) == 1 and not rest & ~reach:
                    continue  # a second component needs a far edge
                if k - size > 1:  # rest matches at most half the vertices it touches
                    touched, r = 0, rest
                    while r:
                        bit = r & -r
                        touched |= ends[bit.bit_length() - 1]
                        r ^= bit
                    if size + touched.bit_count() // 2 < k:
                        continue
                    # 2k ends, k private vertices, and the vertices that are
                    # neither: seen twice, unsaturated and out of reach.
                    if private and 3 * k + (state[1] & ~(state[2] | touched)).bit_count() > G.n:
                        continue
                stack.append([size, chosen, rest, state, opened & ~clash[i], reach])
    if minimum:
        return None, nodes
    return tuple(edges[j] for j in _bits(best)), nodes


def _variant_search(
    G: Graph, P: PropertyId, minimum: bool, budget: int | None = None
) -> ParameterResult:
    """The search route of variant P: its largest matching, or with
    ``minimum`` its smallest nonempty matching that no one-edge extension
    keeps in P (value None when G has no edge). ``compute_parameter`` takes
    it when no theorem settles P on G.

    Pairwise variants are an independent set in the edge conflict masks: the
    largest, or the smallest maximal one. The connected and isolate-free
    minima are the smallest maximal matching of one component that has P.
    The rest take the first-hit search: one walk for a maximum, whose hits
    raise the target up to the matching number (no hit gives 0 and an empty
    witness), and a walk per size from 1 up for a minimum. Hereditary
    variants never extend a prefix that has lost P.
    """
    pid = (PROPERTY_MIN_PARAM if minimum else PROPERTY_MAX_PARAM)[P]
    if minimum and not G.edges:
        return ParameterResult(pid, None, None, "search", 0)
    conflict = pairwise_conflict_masks(G, P)
    accept, roots = None, (0,)
    if minimum and P in (PropertyId.CONNECTED, PropertyId.ISOLATE_FREE):
        # A connected (isolate-free) M is maximal exactly when it is a maximal
        # matching of each component it meets: else a shortest path from V(M)
        # to an edge there with both ends unsaturated ends in such an edge next
        # to V(M), and adding it keeps P. A smallest M meets one component, so
        # filter each component's maximal matchings (a root covers all others).
        conflict = pairwise_conflict_masks(G, PropertyId.PLAIN)
        every, at = (1 << len(G.edges)) - 1, G.incidence_masks
        roots = [
            every & ~reduce(or_, map(at.__getitem__, comp))
            for comp in components(G) if len(comp) > 1
        ]
        accept = lambda found: property_holds(G, P, tuple(G.edges[i] for i in found))
    if conflict is not None:
        if minimum:
            chosen, nodes = _min_dominating(
                conflict, True, budget, pid.value, accept=accept, roots=roots
            )
        else:
            chosen, nodes = _max_independent(conflict, budget, pid.value)
        witness = tuple(G.edges[i] for i in chosen)
        return ParameterResult(pid, len(witness), witness, "search", nodes)
    hit, nodes = _first_hit(G, P, max_matching_size(G), minimum, budget, pid.value)
    return ParameterResult(pid, None if hit is None else len(hit), hit, "search", nodes)


def _component_maximum(G: Graph, P: PropertyId, budget: int | None) -> ParameterResult:
    """The connected or isolate-free maximum by the components' matching
    numbers ν(C). β_c(G) is the largest ν(C). β_if(G) is the sum of the
    ν(C) that are at least 2, or 1 when that sum is 0 and G has an edge.
    On a connected graph both are ν(G) (Goddard, Hedetniemi, Hedetniemi &
    Laskar, Discrete Math. 2005). Each component that counts makes one
    first-hit walk at k = ν(C) on C alone, relabeled in order, which hits
    by the identity. β_c's witness is the smallest of those hits. β_if's is
    their union: sets of equal size per component compare by the smallest
    element of their symmetric difference. With a sum of 0 it is G's first
    edge."""
    pid = PROPERTY_MAX_PARAM[P]
    mate = _Search(G.n, G.adj_lists).match
    sized = [(sum(mate[v] != -1 for v in comp) // 2, comp) for comp in components(G)]
    top = max((nu for nu, _ in sized), default=0)
    hits, nodes = [], 0
    for nu, comp in sized:
        if nu and (nu == top if P is PropertyId.CONNECTED else nu >= 2):
            sub, order = induced_subgraph(G, comp)
            hit, nodes = _first_hit(sub, P, nu, False, budget, pid.value, nu, nodes)
            hits.append(tuple((order[u], order[v]) for u, v in hit))
    if P is PropertyId.CONNECTED:
        witness = min(hits, default=())
    else:
        witness = tuple(sorted(e for hit in hits for e in hit)) or G.edges[:1]
    return ParameterResult(pid, len(witness), witness, "search", nodes)


# -- classical parameters -----------------------------------------------------


def max_matching(G: Graph) -> ParameterResult:
    """Matching number via the blossom algorithm; the witness is the
    lexicographically smallest maximum matching."""
    witness = lexmin_maximum_matching(G)
    return ParameterResult(ParameterId.BETA1, len(witness), witness, "fast-path")


def min_maximal_matching(G: Graph, budget: int | None = None) -> ParameterResult:
    """Lower matching number: smallest maximal matching, the smallest
    maximal independent set of the edges' shared-vertex conflicts."""
    res = _variant_search(G, PropertyId.PLAIN, True, budget)
    return replace(res, parameter=ParameterId.BETA1_MINUS)


def edge_cover_number(G: Graph) -> ParameterResult:
    """Minimum edge cover built from a maximum matching by covering each
    exposed vertex with one incident edge. Defined only without isolates."""
    adj = G.adj_lists
    if not all(adj):
        raise ValueError("edge cover undefined: graph has an isolated vertex")
    matching = lexmin_maximum_matching(G)
    covered = [False] * G.n
    for u, v in matching:
        covered[u] = covered[v] = True
    cover = list(matching)
    for v in range(G.n):
        if not covered[v]:
            w = adj[v][0]
            cover.append((v, w) if v < w else (w, v))
    witness = tuple(sorted(set(cover)))
    return ParameterResult(ParameterId.ALPHA1, len(witness), witness, "fast-path")


# -- b-matchings on forests ------------------------------------------------------


def tree_b_matching_max(T: Graph, b: BoundFunction) -> ParameterResult:
    """Maximum b-matching of a forest by the leaf-to-root greedy: walk each
    tree's vertices in reverse BFS order and take the edge to the parent
    whenever both endpoints still have capacity. Linear time; the BFS also
    counts the trees, which settles acyclicity."""
    b.validate_for(T)
    adj = T.adj_lists
    cap = list(b.values)
    parent = [-1] * T.n
    seen = [False] * T.n
    chosen: list[Edge] = []
    trees = 0
    for root in range(T.n):
        if seen[root]:
            continue
        trees += 1
        seen[root] = True
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    queue.append(w)
        for v in reversed(queue):
            p = parent[v]
            if p != -1 and cap[v] > 0 and cap[p] > 0:
                cap[v] -= 1
                cap[p] -= 1
                chosen.append((v, p) if v < p else (p, v))
    # A forest has exactly n - (number of trees) edges.
    if T.m != T.n - trees:
        raise ValueError("input contains a cycle; the greedy needs a forest")
    witness = tuple(sorted(chosen))
    return ParameterResult(
        ParameterId.B_MATCHING_MAX, len(witness), witness, "fast-path"
    )


# -- total matchings ---------------------------------------------------------------


def _total_matching(G: Graph, pid: ParameterId, budget: int | None, b=None) -> ParameterResult:
    """Largest or smallest maximal total matching (a mixed set of vertices
    and edges, pairwise independent, with nothing addable): an independent
    set of the total graph, by one of the core's two searches. Witnesses
    compare as (vertices, edges), so the searches' order splits at n."""
    n = G.n
    # Element i < n is vertex i; element n + j is edge j. A vertex clashes
    # with its neighbors and its edges, an edge with its ends and the edges
    # at them.
    conflict = [a | at << n for a, at in zip(G.adj_masks, G.incidence_masks)]
    plain = pairwise_conflict_masks(G, PropertyId.PLAIN)
    conflict += [1 << u | 1 << v | c << n for (u, v), c in zip(G.edges, plain)]
    if pid is ParameterId.BETA_TOTAL_MAX:
        chosen, nodes = _max_independent(conflict, budget, pid.value, n)
    else:
        chosen, nodes = _min_dominating(conflict, True, budget, pid.value, n)
    witness = (tuple(i for i in chosen if i < n), tuple(G.edges[i - n] for i in chosen if i >= n))
    return ParameterResult(pid, len(chosen), witness, "search", nodes)


# -- separating matchings -------------------------------------------------------------


def min_separating_matching(G: Graph, budget: int | None = None) -> ParameterResult:
    """Smallest matching whose removal increases the component count, or
    value None when no matching is an edge cut.

    A smallest such matching F is a matching cut E(A, B) of one component:
    the vertices that an end of F still reaches once F is removed form a side
    A whose leaving edges all lie in F, and those alone already separate. So
    each component is split into a side A, which holds its lowest vertex,
    and a side B, by branching on the lowest unassigned vertex next to the
    assigned ones, B first. Forcing settles the rest:
    - an unassigned vertex with two neighbors on one side joins that side;
    - a vertex with a neighbor across pulls its unassigned neighbors to its
      own side;
    - once the cut is as large as the best one, every vertex next to a side
      joins it.
    A vertex with two neighbors across kills the branch, and so does a cut
    larger than the best one, or as large and not lexicographically smaller.
    So the smallest (size, sorted edges) over all components wins."""
    limit = sys.maxsize if budget is None else budget
    adj = G.adj_masks
    best: tuple[Edge, ...] | None = None
    nodes = 0
    for comp in components(G):
        if len(comp) < 2:
            continue
        everything = sum(1 << v for v in comp)
        # A frame: both sides, the vertices next to them, the cut edges, and
        # the vertex to assign with its side (0 for A, 1 for B).
        stack = [(0, 0, 0, (), min(comp), 0)]
        while stack:
            side_a, side_b, near, cut, v, s = stack.pop()
            nodes += 1
            if nodes > limit:
                raise BudgetExceededError("beta_sep_min", nodes)
            sides = [side_a, side_b]
            most = len(best) if best is not None else len(comp)
            queue = [(v, s)]
            while queue:
                v, s = queue.pop()
                bit = 1 << v
                if sides[1 - s] & bit:
                    break
                if not sides[s] & bit:
                    sides[s] |= bit
                    near |= adj[v]
                    free = adj[v] & ~(sides[0] | sides[1])
                    across = adj[v] & sides[1 - s]
                    if across:
                        w = across.bit_length() - 1
                        if across != 1 << w:
                            break  # two neighbors across
                        cut += ((v, w) if v < w else (w, v),)
                        if len(cut) > most or len(cut) == most and tuple(sorted(cut)) >= best:
                            break
                        queue += [(u, s) for u in _bits(free)]
                        queue += [(u, 1 - s) for u in _bits(adj[w] & ~(sides[0] | sides[1]))]
                    else:
                        queue += [
                            (u, s) for u in _bits(free) if (adj[u] & sides[s]).bit_count() > 1
                        ]
                if not queue and len(cut) == most:
                    # No cut edge may be added: every vertex next to a side
                    # joins it, and one next to both adds a cut edge.
                    queue = [
                        (u, 0 if adj[u] & sides[0] else 1)
                        for u in _bits(near & ~(sides[0] | sides[1]))
                    ]
            else:
                assigned = sides[0] | sides[1]
                if assigned != everything:
                    nxt = near & ~assigned
                    nxt = (nxt & -nxt).bit_length() - 1
                    stack.append((sides[0], sides[1], near, cut, nxt, 0))
                    stack.append((sides[0], sides[1], near, cut, nxt, 1))
                elif cut:
                    found = tuple(sorted(cut))
                    if best is None or (len(found), found) < (len(best), best):
                        best = found
    return ParameterResult(
        ParameterId.BETA_SEP_MIN, len(best) if best is not None else None, best, "search", nodes
    )


# -- class-collapse routes -----------------------------------------------------------------
#
# On each class below, the listed variants hold for every matching, so their
# feasible sets are those of plain matchings. A variant's maximum is then the
# matching number and its minimum the lower matching number, with the same
# lexicographically smallest witnesses.
# - Bipartite: orient every matched edge from side A to side B. Tails and
#   heads lie in independent sides, so every matching is independent and
#   bipartite.
# - Triangle-free: two matched edges inside one open or closed neighborhood
#   need a vertex that sees both ends of one of them, which closes a
#   triangle. So every matching is onbr and cnbr.
# - No even cycle: <M> has no alternating cycle, since such a cycle is even,
#   so every matching is uniquely restricted (Golumbic, Hirst & Lewenstein,
#   "Uniquely restricted matchings", Algorithmica 2001).
# - Forest: every <M> is a subgraph of a forest, so acyclic.
# The class tests walk ``adj_lists`` only, so the collapsed maxima stay
# polynomial at any size.
COLLAPSE_CLASSES = (
    ("bipartite", lambda G: is_bipartite(G) is not None,
     (PropertyId.INDEPENDENT, PropertyId.BIPARTITE)),
    ("triangle-free", is_triangle_free, (PropertyId.ONBR, PropertyId.CNBR)),
    ("no even cycle", is_even_cycle_free, (PropertyId.UNIQUELY_RESTRICTED,)),
    ("forest", is_acyclic_graph, (PropertyId.ACYCLIC,)),
)


# -- systems of distinct representatives ---------------------------------------------------


@dataclass(frozen=True)
class SetSystem:
    """A family of subsets of a finite ground set."""

    ground: tuple
    sets: tuple[frozenset, ...]

    def __init__(self, ground, sets):
        g = tuple(ground)
        gset = set(g)
        if len(gset) != len(g):
            raise ValueError("ground set has repeated elements")
        fam = tuple(frozenset(s) for s in sets)
        for i, s in enumerate(fam):
            if not s <= gset:
                raise ValueError(f"set {i} contains elements outside the ground set")
        object.__setattr__(self, "ground", g)
        object.__setattr__(self, "sets", fam)


@dataclass(frozen=True)
class SdrResult:
    """Either one distinct representative per set, or an index set W whose
    union is smaller than |W| (the certificate that no SDR exists)."""

    representatives: tuple | None
    violator: frozenset[int] | None


def sdr_solve(system: SetSystem) -> SdrResult:
    """Distinct representatives from a maximum matching of the incidence
    graph, where set i is vertex i and element x is vertex k + pos(x) for k
    sets. When some set is left exposed, the violator is the sets that some
    maximum matching misses, the set D that the search marks even, so it
    does not depend on the matching found."""
    ground, k = system.ground, len(system.sets)
    pos = {x: k + i for i, x in enumerate(ground)}
    adj = [sorted(pos[x] for x in s) for s in system.sets]
    adj += [[] for _ in ground]
    for i in range(k):
        for x in adj[i]:
            adj[x].append(i)
    search = _Search(len(adj), adj)
    match, even = search.match, search.even
    if -1 not in match[:k]:
        return SdrResult(tuple(ground[match[i] - k] for i in range(k)), None)
    return SdrResult(None, frozenset(i for i in range(k) if even[i]))


# -- the route table ------------------------------------------------------------------------
#
# A route is called as ``route(G, pid, budget, b)`` and returns the answer, or
# None when it does not apply to G. Routes look their solvers up when called.


def _plain_max(G, pid, budget, b):
    return replace(max_matching(G), parameter=pid)


def _plain_min(G, pid, budget, b):
    return replace(min_maximal_matching(G, budget), parameter=pid)


def _independent(G, pid, budget, b):
    chosen, nodes = _max_independent(G.adj_masks, budget, pid.value)
    return ParameterResult(pid, len(chosen), chosen, "search", nodes)


def _vertex_cover(G, pid, budget, b):
    """The vertices outside a maximum independent set form a minimum vertex
    cover: ``beta0``'s search with its nodes, on route ``fast-path``."""
    res = _independent(G, pid, budget, b)
    cover = tuple(sorted(set(range(G.n)) - set(res.witness)))
    return ParameterResult(pid, len(cover), cover, "fast-path", res.nodes_explored)


def _dominating(G, pid, budget, b):
    chosen, nodes = _min_dominating(G.adj_masks, False, budget, pid.value)
    return ParameterResult(pid, len(chosen), chosen, "search", nodes)


def _bridge(G, pid, budget, b):
    """A bridge is a one-edge matching whose removal adds a component, and no
    empty set does: so the smallest bridge answers, when G has one."""
    bridges = [blk.edges for blk in block_decomposition(G).blocks if blk.kind == "edge"]
    return ParameterResult(pid, 1, min(bridges), "fast-path") if bridges else None


def _variant_routes(P: PropertyId, minimum: bool) -> tuple:
    """Variant P's extremum: the plain route on each class of
    ``COLLAPSE_CLASSES`` that collapses P, then the component maxima of
    ``beta_c`` and ``beta_if``, else its search."""
    plain = _plain_min if minimum else _plain_max
    routes = [lambda G, pid, budget, b, test=test: plain(G, pid, budget, b) if test(G) else None
              for _, test, props in COLLAPSE_CLASSES if P in props]
    if not minimum and P in (PropertyId.CONNECTED, PropertyId.ISOLATE_FREE):
        return (*routes, lambda G, pid, budget, b: _component_maximum(G, P, budget))
    return (*routes, lambda G, pid, budget, b: _variant_search(G, P, minimum, budget))


# Each tag's routes in the order they are tried; the last one always answers.
# The fixed rows come last, so ``beta_plain`` takes blossom, not its search.
ROUTES = {
    pid: _variant_routes(P, minimum)
    for P, pair in _PROPERTY_PARAM_PAIRS.items()
    for minimum, pid in zip((False, True), pair)
} | {
    ParameterId.BETA1: (_plain_max,),
    ParameterId.BETA_PLAIN: (_plain_max,),
    ParameterId.BETA1_MINUS: (_plain_min,),
    ParameterId.BETA0: (_independent,),
    ParameterId.ALPHA0: (_vertex_cover,),
    ParameterId.GAMMA: (_dominating,),
    ParameterId.ALPHA1: (lambda G, pid, budget, b: edge_cover_number(G),),
    ParameterId.BETA_TOTAL_MAX: (_total_matching,),
    ParameterId.BETA_TOTAL_MIN: (_total_matching,),
    ParameterId.BETA_SEP_MIN: (
        _bridge, lambda G, pid, budget, b: min_separating_matching(G, budget)),
    ParameterId.B_MATCHING_MAX: (lambda G, pid, budget, b: tree_b_matching_max(
        G, b if b is not None else BoundFunction.uniform(G, 1)),),
}


def compute_parameter(
    G: Graph,
    pid: ParameterId,
    budget: int | None = None,
    b: BoundFunction | None = None,
) -> ParameterResult:
    """Route one parameter to its solver: the routes of ``ROUTES[pid]`` are
    tried in order, and the first that applies to G answers. ``ROUTES`` is
    the one place where routes are chosen. ``budget`` caps each search's
    nodes. ``b`` feeds the b-matching maximum and defaults to the uniform
    bound min(1, d(v)). A budget error names ``pid``, also when its route is
    another tag's. A value that is no ``ParameterId`` raises ValueError."""
    try:
        for route in ROUTES.get(pid, ()):
            res = route(G, pid, budget, b)
            if res is not None:
                return res
    except BudgetExceededError as exc:
        raise BudgetExceededError(pid.value, exc.nodes) from None
    raise ValueError(f"no solver route for {pid}")
