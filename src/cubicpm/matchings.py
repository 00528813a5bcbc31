"""Exact perfect-matching counting and the matching-polytope machinery.

One DP over covered-vertex bitmasks serves every matching query.  Vertices
are taken in a frontier order (``Multigraph.frontier_order``), which keeps
few vertices half-finished at a time and so keeps the number of states
small.  Each step matches the first uncovered vertex.  Constraints (required
edges, forbidden edges, vertices deliberately left uncovered) are folded
into the initial state.  A forward pass, level by level, counts the paths
into each state, which gives the count.  A backward pass counts each
state's completions; summing the product of the two over the transitions
that use an edge gives the number of matchings through it, for every edge
at once.  The same two passes with one edge required give the matchings
through each pair of edges (``pair_counts``), from which inclusion-exclusion
gives the matchings that avoid or contain one or two edges.  A constrained
``count_matchings`` query does not read them: it runs a fresh DP.  The
unconstrained count, the per-edge and the per-pair counts are kept in the
memo of the graph object asked (``_memoized``) and die with it; constrained
counts are not kept.  The vertex caps do not bound the states
of a dense graph, so the DP also stops at ``STATE_CAP`` states per level.
Everything is exact: counts are ints, polytope arithmetic uses Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .connectivity import _least_cyclic_size, bridges, cut_sums_at_most, mask_sizes
from .errors import (
    FlowInfeasible,
    InconsistentQuery,
    NotCyclically4EC,
    NotUniquePM,
    TooLarge,
)
from .multigraph import Multigraph, _memoized, two_coloring

COUNT_CAP = 64
STATE_CAP = 1 << 20  # DP states one level may expand to, at most: bounds the DP's memory
ENUMERATE_CAP = 20
POLYTOPE_CAP = 20


class Matching(NamedTuple):
    """A set of pairwise non-adjacent edges, kept as its sorted edge-id tuple.

    The tuple is the only field, the one ``enumerate_matchings`` builds, so
    equality and hashing are those of the edge set.  ``edge_ids`` gives the
    set for membership tests, built on each read.
    """

    edges: tuple[int, ...]

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(self.edges)

    def to_json(self) -> list[int]:
        return list(self.edges)


# a weight vector assigns an exact rational to every edge id
WeightVector = dict[int, Fraction]


class CountQuery(NamedTuple):
    """Constraints for matching counts.

    ``missed_vertices`` are left uncovered on purpose: the count is over
    matchings covering exactly the other vertices.
    """

    required: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    missed_vertices: frozenset[int] = frozenset()


EMPTY_QUERY = CountQuery()


def _validate(g: Multigraph, q: CountQuery) -> None:
    for e in q.required | q.forbidden:
        if not 0 <= e < g.edge_count:
            raise InconsistentQuery(f"edge id {e} out of range")
    for v in q.missed_vertices:
        if not 0 <= v < g.vertex_count:
            raise InconsistentQuery(f"vertex id {v} out of range")
    if q.required & q.forbidden:
        raise InconsistentQuery("an edge is both required and forbidden")
    for e in q.required:
        u, v = g.endpoints(e)
        if u in q.missed_vertices or v in q.missed_vertices:
            raise InconsistentQuery(f"required edge {e} touches a missed vertex")


class _StateDag:
    """The states of the matching DP, one forward sweep level by level.

    Vertex v sits at its position in ``g.frontier_order`` and a state is the
    bitmask of covered positions.  Missed vertices and the ends of required
    edges are covered from the start.  A transition covers the first
    uncovered position and one uncovered neighbour of it through an edge
    that is not forbidden, so every matching of the query is one path from
    the start to the full mask.  That neighbour sits at a later position,
    so each edge is a move of its earlier end only.  ``levels[k]`` maps
    each state reached by k transitions to alpha, the number of paths into
    it.

    The vertex cap does not bound the states of a dense graph under it, so
    a level is expanded only while its size times the longest move list,
    the most states the next level can get, stays within ``STATE_CAP``;
    past it the DP raises ``TooLarge`` before it allocates that level.
    """

    def __init__(self, g: Multigraph, q: CountQuery, cap: int, what: str):
        if g.vertex_count > cap:
            raise TooLarge(f"{what} capped at {cap} vertices")
        _validate(g, q)
        n = g.vertex_count
        pos = [0] * n
        for p, v in enumerate(g.frontier_order):
            pos[v] = p
        bit = [1 << p for p in pos]
        self.edge_count = g.edge_count
        self.full = full = (1 << n) - 1
        # moves[p]: (edge id, position bit of its later end) for each edge whose
        # earlier end sits at position p; a move from the later end never fires,
        # since the first uncovered position is the least one
        self.moves = moves = [[] for _ in range(n)]
        forbidden = q.forbidden
        for e, (u, v) in enumerate(g.edges):
            if e not in forbidden:
                first, last = pos[u], pos[v]
                if first > last:
                    first, last = last, first
                moves[first].append((e, 1 << last))
        self.levels: list[dict[int, int]] = []
        self.start = 0
        for v in q.missed_vertices:
            self.start |= bit[v]
        for e in q.required:
            u, v = g.endpoints(e)
            ends = bit[u] | bit[v]
            if self.start & ends:
                return  # two required edges collide: no matching
            self.start |= ends
        level = {self.start: 1}
        self.levels.append(level)
        widest = max(map(len, moves), default=0)
        while level and full not in level:
            if len(level) * widest > STATE_CAP:
                raise TooLarge(f"{what} capped at {STATE_CAP} DP states")
            nxt: dict[int, int] = {}
            for s, paths in level.items():
                low = ~s & (s + 1)
                for _, b in moves[low.bit_length() - 1]:
                    if not s & b:
                        t = s | low | b
                        nxt[t] = nxt.get(t, 0) + paths
            level = nxt
            self.levels.append(level)

    @property
    def count(self) -> int:
        return self.levels[-1].get(self.full, 0) if self.levels else 0

    def outside(self) -> tuple[dict[int, int], list[int]]:
        """The backward pass: beta and the number c(e) of matchings through e.

        beta(s), the number of paths from s to the full mask, is kept only
        where it is nonzero.  The transitions through edge e lie on
        alpha(s)·beta(t) matchings each, summed into c(e).  Required edges
        are not transitions and keep c(e) = 0.
        """
        beta: dict[int, int] = {}
        through = [0] * self.edge_count
        if not self.count:
            return beta, through
        moves = self.moves
        beta[self.full] = 1
        for level in reversed(self.levels[:-1]):
            for s, paths in level.items():
                low = ~s & (s + 1)
                total = 0
                for e, b in moves[low.bit_length() - 1]:
                    if not s & b:
                        rest = beta.get(s | low | b)
                        if rest:
                            total += rest
                            through[e] += paths * rest
                if total:
                    beta[s] = total
        return beta, through


def _through_all(g: Multigraph, q: CountQuery) -> list[int]:
    """The number of the query's matchings through each edge (``_StateDag.outside``)."""
    return _StateDag(g, q, COUNT_CAP, "counting").outside()[1]


def count_matchings(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> int:
    """Exact number of matchings covering V minus the missed vertices.

    Parallel edges count as distinct matchings.  The unconstrained count is
    kept in the graph's memo.
    """
    if q != EMPTY_QUERY:
        return _StateDag(g, q, COUNT_CAP, "counting").count
    return _memoized(g, "count", lambda: _StateDag(g, q, COUNT_CAP, "counting").count)


def has_matching(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> bool:
    """Existence check: the count is positive."""
    return count_matchings(g, q) > 0


def enumerate_matchings(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> list[Matching]:
    """All matchings for the query, sorted by their sorted edge-id tuples.

    Walks only the states with a completion, so no branch is a dead end.
    """
    dag = _StateDag(g, q, ENUMERATE_CAP, "enumeration")
    beta, _ = dag.outside()
    out: list[tuple[int, ...]] = []
    chosen = sorted(q.required)

    def walk(s: int) -> None:
        if s == dag.full:
            out.append(tuple(sorted(chosen)))
            return
        low = ~s & (s + 1)
        for e, b in dag.moves[low.bit_length() - 1]:
            if not s & b and (s | low | b) in beta:
                chosen.append(e)
                walk(s | low | b)
                chosen.pop()

    if beta:
        walk(dag.start)
    out.sort()
    return [Matching(t) for t in out]


def containment_counts(g: Multigraph) -> list[int]:
    """Number c(e) of perfect matchings through each edge, by edge id.

    One forward and one backward pass over the DP states, not one count per
    edge, kept in the graph's memo.
    """
    return list(_memoized(g, "through", lambda: tuple(_through_all(g, EMPTY_QUERY))))


def pair_counts(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """P[f][e], the number of perfect matchings through both f and e.

    The diagonal holds c(f).  Row f is one forward and one backward pass
    with f required, skipped when c(f) = 0, which makes the row zero.  By
    inclusion-exclusion, N - c(e) - c(f) + P[e][f] perfect matchings avoid
    both e and f, and c(f) - P[f][e] contain f and avoid e.  Kept in the
    graph's memo.
    """

    def row(f: int, through: int) -> tuple[int, ...]:
        out = [0] * g.edge_count
        if through:
            out = _through_all(g, CountQuery(required=frozenset({f})))
        out[f] = through
        return tuple(out)

    return _memoized(g, "pairs", lambda: tuple(
        row(f, through) for f, through in enumerate(containment_counts(g))
    ))


def is_matching_covered(g: Multigraph) -> bool:
    """Does every edge lie in some perfect matching?"""
    return all(containment_counts(g))


def is_double_covered(g: Multigraph) -> bool:
    return all(c >= 2 for c in containment_counts(g))


def kotzig_bridge(g: Multigraph) -> int:
    """For a graph with a unique perfect matching, a bridge inside it.

    Kotzig: such a bridge always exists.  Returns the lowest-id one.
    """
    pms = enumerate_matchings(g)
    if len(pms) != 1:
        raise NotUniquePM(f"graph has {len(pms)} perfect matchings, need exactly 1")
    (pm,) = pms
    cut = bridges(g) & pm.edge_ids
    if not cut:
        raise AssertionError("no bridge inside the unique perfect matching")
    return min(cut)


# ---------------------------------------------------------------------------
# forbidden/required pair structure


@dataclass(frozen=True, slots=True)
class SpecialPairResult:
    """Outcome of the avoid-e/contain-f test on a cyclically 4ec cubic graph.

    When no such matching exists, ``coloring`` is a proper 2-coloring of the
    graph minus both edges with e's endpoints in one class and f's in the
    other; otherwise it is None.
    """

    pm_exists: bool
    coloring: dict[int, int] | None = field(default=None, compare=False)

    @property
    def verdict(self) -> str:
        return "PMExists" if self.pm_exists else "NoSuchPM_with_structure"


def _bipartition_with_pattern(
    g: Multigraph, e: int, f: int
) -> dict[int, int] | None:
    """2-coloring of g minus {e, f} with ends(e) color 0, ends(f) color 1.

    Two new vertices join the ends of e and the ends of f by paths of length
    two, and one edge joins an end of e to an end of f: a proper 2-coloring
    of that graph minus e and f, restricted to g, is such a coloring.
    """
    a, b = g.endpoints(e)
    c, d = g.endpoints(f)
    if {a, b} & {c, d}:
        return None  # a shared end would need both colors
    n = g.vertex_count
    aux = Multigraph(n + 2, g.edges + ((a, n), (n, b), (c, n + 1), (n + 1, d), (a, c)))
    color = two_coloring(aux, frozenset({e, f}))
    if color is None:
        return None
    return {v: color[v] ^ color[a] for v in range(n)}


def special_pair(g: Multigraph, e: int, f: int) -> SpecialPairResult:
    """Decide whether some perfect matching avoids e and contains f.

    On cyclically 4-edge-connected cubic graphs the negative case happens
    exactly when g minus both edges is bipartite with e's ends in one color
    class and f's ends in the other.  Both routes are computed, the count
    read from ``pair_counts`` and the 2-coloring, and the biconditional is
    asserted.
    """
    if e == f:
        raise InconsistentQuery("e and f must be distinct edges")
    if not g.is_cubic:
        raise NotCyclically4EC("graph is not cubic")
    if _least_cyclic_size(g, 3) is not None:
        raise NotCyclically4EC("graph is not cyclically 4-edge-connected")
    _validate(g, CountQuery(required=frozenset({f}), forbidden=frozenset({e})))
    pairs = pair_counts(g)
    exists = pairs[f][f] > pairs[f][e]  # c(f) - P[f][e] matchings contain f and avoid e
    coloring = _bipartition_with_pattern(g, e, f)
    if exists == (coloring is not None):
        raise AssertionError(
            f"avoid/contain structure mismatch on edges ({e},{f}): "
            f"pm_exists={exists}, structure={coloring is not None}"
        )
    return SpecialPairResult(pm_exists=exists, coloring=coloring)


# ---------------------------------------------------------------------------
# perfect matching polytope


def uniform_third(g: Multigraph) -> dict[int, Fraction]:
    return {e: Fraction(1, 3) for e in range(g.edge_count)}


def is_bipartite(g: Multigraph) -> bool:
    return two_coloring(g) is not None


def polytope_membership(
    g: Multigraph,
    w: Mapping[int, Fraction],
    force_odd_set_check: bool = False,
) -> bool:
    """Edmonds' characterization: nonnegative, vertex sums one, odd sets cut.

    For bipartite graphs the odd-set condition is implied by the first two
    and is skipped unless ``force_odd_set_check`` is set.  Exact rational
    arithmetic throughout.
    """
    n = g.vertex_count
    if n > POLYTOPE_CAP:
        raise TooLarge(f"odd-set enumeration capped at {POLYTOPE_CAP} vertices")
    if sorted(w) != list(range(g.edge_count)):
        raise InconsistentQuery("weight vector must assign every edge id exactly once")
    weights = {e: Fraction(w[e]) for e in w}
    if any(x < 0 for x in weights.values()):
        return False
    for v in range(n):
        if sum(weights[e] for e in g.incident(v)) != 1:
            return False
    if is_bipartite(g) and not force_odd_set_check:
        return True
    # odd sets, in integers scaled by the common denominator: no bipartition
    # with an odd side (the whole vertex set too, for odd n) may cross < den
    den = lcm(*[x.denominator for x in weights.values()])
    scaled = [int(weights[e] * den) for e in range(g.edge_count)]
    light, _ = cut_sums_at_most(g, scaled, den - 1)
    return not any(size % 2 or (n - size) % 2 for size in mask_sizes(light))


def matching_indicator(g: Multigraph, m: Matching) -> dict[int, Fraction]:
    chosen = m.edge_ids
    return {e: Fraction(1 if e in chosen else 0) for e in range(g.edge_count)}


# ---------------------------------------------------------------------------
# fractional perfect matching from a 4-unit flow


def fractional_pm_via_flow(
    h: Multigraph, u: int, u2: int, v: int, v2: int
) -> dict[int, Fraction]:
    """Fractional perfect matching certifying a bipartite contraction.

    Every edge of h (one end in the color class of u and u2, the other in
    the class of v and v2) carries a forward arc of capacity 2 and a reverse
    arc of capacity 1; a source feeds u and u2 with 2 units each and a sink
    drains v and v2.  An integral flow of value 4 is found by augmenting
    paths and the edge weights are 1/3 + forward/6 - reverse/6, which lands
    every entry in {1/6, 1/3, 1/2, 2/3} and every vertex sum at 1.
    """
    color = two_coloring(h)
    if color is None or not h.is_connected():
        raise FlowInfeasible("graph is not a connected bipartite contraction")
    if color[u] != color[u2]:
        raise FlowInfeasible("u and u2 must share a color class")
    if color[v] != color[v2] or color[v] == color[u]:
        raise FlowInfeasible("v and v2 must share the other color class")
    uside = color[u]

    n = h.vertex_count
    source, sink = n, n + 1
    # arcs: (tail, head, capacity); per edge e, arc 2e is U->V, arc 2e+1 is V->U
    arcs: list[tuple[int, int, int]] = []
    for e, (a, b) in enumerate(h.edges):
        w_u, w_v = (a, b) if color[a] == uside else (b, a)
        arcs.append((w_u, w_v, 2))
        arcs.append((w_v, w_u, 1))
    extra0 = len(arcs)
    arcs.extend([(source, u, 2), (source, u2, 2), (v, sink, 2), (v2, sink, 2)])

    flow = [0] * len(arcs)
    adj: dict[int, list[int]] = {x: [] for x in range(n + 2)}
    for i, (a, b, _) in enumerate(arcs):
        adj[a].append(i)

    def augment() -> bool:
        # BFS over residual capacities: forward residual cap - flow,
        # backward residual flow
        prev: dict[int, tuple[int, bool]] = {source: (-1, True)}
        queue = [source]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if x == sink:
                break
            for i in adj[x]:
                a, b, cap = arcs[i]
                if flow[i] < cap and b not in prev:
                    prev[b] = (i, True)
                    queue.append(b)
            for i in range(len(arcs)):
                a, b, _ = arcs[i]
                if b == x and flow[i] > 0 and a not in prev:
                    prev[a] = (i, False)
                    queue.append(a)
        if sink not in prev:
            return False
        x = sink
        while x != source:
            i, fwd = prev[x]
            if fwd:
                flow[i] += 1
                x = arcs[i][0]
            else:
                flow[i] -= 1
                x = arcs[i][1]
        return True

    value = 0
    while value < 4 and augment():
        value += 1
    if value < 4:
        raise FlowInfeasible(f"maximum flow is {value}, need 4")

    out: dict[int, Fraction] = {}
    for e in range(h.edge_count):
        out[e] = Fraction(1, 3) + Fraction(flow[2 * e], 6) - Fraction(flow[2 * e + 1], 6)
    return out


# ---------------------------------------------------------------------------
# independent-route helper for bipartite counts


def biadjacency(g: Multigraph) -> tuple[list[list[int]], list[int], list[int]] | None:
    """Biadjacency matrix with multiplicities, or None if not bipartite.

    Returns (matrix, left vertex ids, right vertex ids); entry [i][j] is the
    number of parallel edges between left i and right j.
    """
    color = two_coloring(g)
    if color is None:
        return None
    left = [x for x in range(g.vertex_count) if color[x] == 0]
    right = [x for x in range(g.vertex_count) if color[x] == 1]
    li = {x: i for i, x in enumerate(left)}
    ri = {x: i for i, x in enumerate(right)}
    mat = [[0] * len(right) for _ in left]
    for a, b in g.edges:
        x, y = (a, b) if color[a] == 0 else (b, a)
        mat[li[x]][ri[y]] += 1
    return mat, left, right
