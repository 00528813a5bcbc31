"""Exact perfect-matching counting and the matching-polytope machinery.

One DP over covered-vertex bitmasks answers every matching query, from one
table per graph that only ``_table`` builds and that the graph's memo keeps
(``_memoized``).  Vertices are taken in a frontier order
(``Multigraph.frontier_order``), which keeps few vertices half-finished at
a time and so keeps the number of states small.  Each step matches the
first uncovered vertex.  The forward pass, group by group, counts the paths
into each state, which gives the count.  The backward pass, run once on
the first query that needs it, counts each state's completions; the sum of
the two's product over the transitions through an edge is the number of
matchings through it, for every edge at once.

A constrained count (required edges, forbidden edges, vertices left
uncovered on purpose) seeds from the table and stops at table states.  Row
f of ``pair_counts`` is one backward pass over the groups before f's.
``enumerate_matchings`` walks the states with a completion in the table of
the graph a query leaves.  The table stops at ``STATE_CAP`` states in all,
the DP's only limit, which bounds its memory whatever the vertex count;
a refused table is kept as its message, so a graph is refused only once.
Everything is exact: counts are ints, polytope arithmetic uses Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .connectivity import _least_cyclic_size, bridges, cut_sums_at_most
from .errors import (
    FlowInfeasible,
    InconsistentQuery,
    NotCyclically4EC,
    NotUniquePM,
    TooLarge,
)
from .multigraph import Multigraph, _memoized, induced_subgraph, two_coloring

STATE_CAP = 1 << 20  # states the DP table may hold, at most: bounds its memory
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
    """A graph's DP table: the states of the matching DP, swept group by group.

    Vertex v sits at ``pos[v]``, its position in ``g.frontier_order``, and a
    state is the bitmask of covered positions.  A transition covers the
    first uncovered position and one uncovered neighbour of it, which sits
    later, so each edge is a move of its earlier end only and every perfect
    matching is one path from the empty mask to the full one.  ``groups[p]``
    maps each reached state whose first uncovered position is p to alpha,
    the number of paths into it; ``groups[n]`` holds the full mask, if it is
    reached.  A transition leads to a later group, so the forward pass
    expands the groups in increasing order, each once complete, and each
    state is stored once.  A group is expanded only while the states held
    plus its size times its move count, the most it can add, stay within
    ``STATE_CAP``: past it the table raises ``TooLarge`` before allocating.
    That is the table's only limit; the vertex count is never tested.
    """

    def __init__(self, g: Multigraph):
        n = g.vertex_count
        self.pos = pos = [0] * n
        for p, v in enumerate(g.frontier_order):
            pos[v] = p
        self.edge_count = g.edge_count
        self.full = (1 << n) - 1
        # moves[p]: (edge id, position bit of its later end) for each edge whose
        # earlier end sits at position p; a move from the later end never fires,
        # since the first uncovered position is the least one
        at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(g.edges):
            a, z = sorted((pos[u], pos[v]))
            at[a].append((e, 1 << z))
        self.moves = moves = [tuple(x) for x in at]  # kept with a table: no spare slots
        self.groups = groups = [{} for _ in range(n + 1)]
        self._outside: tuple[dict[int, int], list[int]] | None = None
        groups[0][0] = held = 1  # held bounds the states held from above, exact near the cap
        for p in range(n):
            group, low = groups[p], 1 << p
            held += len(group) * len(moves[p])
            if held > STATE_CAP:
                held = sum(map(len, groups)) + len(group) * len(moves[p])
                if held > STATE_CAP:
                    raise TooLarge(f"counting capped at {STATE_CAP} DP states")
            for s, paths in group.items():
                for _, b in moves[p]:
                    if not s & b:
                        t = s | low | b
                        later = groups[(~t & (t + 1)).bit_length() - 1]
                        later[t] = later.get(t, 0) + paths

    @property
    def count(self) -> int:
        return self.groups[-1].get(self.full, 0)

    def outside(self) -> tuple[dict[int, int], list[int]]:
        """The backward pass, run on the first call: beta and the number c(e)
        of matchings through each edge e.

        beta(s), the number of paths from s to the full mask, is kept only
        where it is nonzero.  The transitions through edge e lie on
        alpha(s)·beta(t) matchings each, summed into c(e).
        """
        if self._outside is None:
            through = [0] * self.edge_count
            self._outside = _backward(self, {self.full: 1}, len(self.moves), through), through
        return self._outside


def _backward(dag: _StateDag, beta: dict[int, int], top: int, through: list[int]) -> dict[int, int]:
    """Extend ``beta``, the completions of the states at and past group
    ``top`` (nonzero only), down through groups top - 1, …, 0, adding
    alpha(s)·beta(t) of each transition s → t through edge e into
    ``through[e]``."""
    for p in range(top - 1, -1, -1):
        low, at = 1 << p, dag.moves[p]
        for s, paths in dag.groups[p].items():
            total = 0
            for e, b in at:
                if not s & b:
                    rest = beta.get(s | low | b)
                    if rest:
                        total += rest
                        through[e] += paths * rest
            if total:
                beta[s] = total
    return beta


def _table(g: Multigraph) -> _StateDag:
    """The DP table of g, kept in its memo: every matching query on g reads it.

    A refusal is kept as its message, and each later call raises a fresh
    ``TooLarge`` from it: the first exception would hold the frames of
    every raise it went through.
    """

    def build():
        try:
            return _StateDag(g)
        except TooLarge as exc:
            return str(exc)

    table = _memoized(g, "dp", build)
    if isinstance(table, str):
        raise TooLarge(table)
    return table


def _seeded(dag: _StateDag, pre: int, tail: list[tuple[int, int]]) -> int:
    """Matchings that cover every position but those of ``pre`` and avoid
    the ``tail`` moves, read from the table ``dag``.

    ``pre`` holds the bits covered from the start, ``tail`` (earlier end's
    position, edge id) for each avoided edge, none earlier than the least
    bit of ``pre``, p0.  Below p0 the matching is an unconstrained path
    prefix that ends at a table state s with first uncovered position p0
    and no bit of ``pre``, so the count starts at s | pre with mass
    alpha(s).  It goes on by the DP's move, and a state of the table past
    the tail's last earlier end adds its mass times its completions, beta,
    and stops there: those depend only on the state.
    """
    beta = dag.outside()[0]
    groups, moves = dag.groups, dag.moves
    n = len(moves)
    cut: dict[int, list[tuple[int, int]]] = {}
    last = -1
    for p, e in tail:
        cut[p] = [move for move in cut.get(p, moves[p]) if move[0] != e]
        last = max(last, p)
    pending: list[dict[int, int] | None] = [None] * (n + 1)
    p = (pre & -pre).bit_length() - 1
    states, low, at = groups[p], 0, ((-1, pre),)  # the seeds: s -> s | pre
    total = 0
    while True:
        for s, mass in states.items():
            for _, b in at:
                if not s & b:
                    t = s | low | b
                    q = (~t & (t + 1)).bit_length() - 1
                    if q > last and t in groups[q]:
                        total += mass * beta.get(t, 0)
                    else:
                        got = pending[q]
                        if got is None:
                            pending[q] = {t: mass}
                        else:
                            got[t] = got.get(t, 0) + mass
        p += 1
        while p < n and pending[p] is None:
            p += 1
        if p == n:
            return total + (pending[n] or {}).get(dag.full, 0)
        states, low, at = pending[p], 1 << p, cut.get(p, moves[p])


def count_matchings(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> int:
    """Exact number of matchings covering V minus the missed vertices.

    Parallel edges count as distinct matchings.  Every count on a graph reads
    its one DP table (``_table``), and N is read from the forward pass.  A
    constrained count runs the backward pass once, if no query has, and
    seeds from the table with the missed vertices and the ends of the
    required edges covered, stopping at table states (``_seeded``), so it
    never runs a whole DP again.  The forbidden edges F, sorted by their
    earlier ends' positions, are taken out by count(R, X, avoid F) =
    count(R, X) − Σᵢ count(R ∪ {eᵢ}, X, avoid {eᵢ₊₁, …}): |F| + 1 seeded
    counts, where one required edge alone is c(e).  So a constrained count
    raises the state-cap ``TooLarge`` exactly when the unconstrained count
    does.
    """
    if q == EMPTY_QUERY:
        return _table(g).count
    _validate(g, q)
    dag = _table(g)
    pos = dag.pos

    def ends(e: int) -> int:
        u, v = g.endpoints(e)
        return 1 << pos[u] | 1 << pos[v]

    def term(required: list[int], tail: list[tuple[int, int]]) -> int:
        if not q.missed_vertices and not tail and len(required) == 1:
            return dag.outside()[1][required[0]]
        pre = sum(1 << pos[v] for v in q.missed_vertices)
        for e in required:
            if pre & ends(e):
                return 0  # two required edges collide, or one meets a missed vertex
            pre |= ends(e)
        return _seeded(dag, pre, tail) if pre else dag.count

    forbidden = sorted((min(pos[v] for v in g.endpoints(e)), e) for e in q.forbidden)
    required = list(q.required)
    total = term(required, [])
    for i, (_, e) in enumerate(forbidden):
        total -= term(required + [e], forbidden[i + 1:])
    return total


def has_matching(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> bool:
    """Existence check: the count is positive."""
    return count_matchings(g, q) > 0


def enumerate_matchings(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> list[Matching]:
    """All matchings for the query, sorted by their sorted edge-id tuples.

    A query is answered on the graph it leaves: g without the missed
    vertices, the ends of the required edges and the forbidden edges, whose
    matchings plus the required edges are the query's.  The walk reads that
    graph's table and goes only through states with a completion, so no
    branch is a dead end.
    """
    if g.vertex_count > ENUMERATE_CAP:
        raise TooLarge(f"enumeration capped at {ENUMERATE_CAP} vertices")
    _validate(g, q)
    h, ids = g, None
    if q != EMPTY_QUERY:
        covered = q.missed_vertices.union(*map(g.endpoints, q.required))
        if len(covered) < len(q.missed_vertices) + 2 * len(q.required):
            return []  # two required edges collide
        sub, _, kept = induced_subgraph(g, set(range(g.vertex_count)) - covered)
        left = [i for i, e in enumerate(kept) if e not in q.forbidden]
        h = Multigraph(sub.vertex_count, tuple(sub.edges[i] for i in left))
        ids = [kept[i] for i in left]
    dag = _table(h)
    beta = dag.outside()[0]
    moves = dag.moves if ids is None else [[(ids[e], b) for e, b in at] for at in dag.moves]
    out: list[tuple[int, ...]] = []
    chosen = sorted(q.required)

    def walk(s: int) -> None:
        if s == dag.full:
            out.append(tuple(sorted(chosen)))
            return
        low = ~s & (s + 1)
        for e, b in moves[low.bit_length() - 1]:
            if not s & b and (s | low | b) in beta:
                chosen.append(e)
                walk(s | low | b)
                chosen.pop()

    walk(0)
    out.sort()
    return [Matching(t) for t in out]


def containment_counts(g: Multigraph) -> list[int]:
    """Number c(e) of perfect matchings through each edge, by edge id.

    Read from the backward pass of the graph's one DP table (``count_matchings``),
    not one count per edge.
    """
    return list(_table(g).outside()[1])


def pair_counts(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """P[f][e], the number of perfect matchings through both f and e.

    The diagonal holds c(f).  Row f reads the graph's one DP table: with f's
    transitions leaving group p, a backward pass over the groups before p
    gives beta_f(s), the completions of s through f, and each transition
    s → t through e there adds alpha(s)·beta_f(t) to P[f][e].  P is
    symmetric, so this gives every pair whose edges' earlier ends differ;
    edges whose earlier ends coincide share a vertex.  A row with c(f) = 0
    is zero.  By inclusion-exclusion, N - c(e) - c(f) + P[e][f] perfect
    matchings avoid both e and f, and c(f) - P[f][e] contain f and avoid e.
    Kept in the graph's memo.
    """

    def build() -> tuple[tuple[int, ...], ...]:
        dag = _table(g)
        beta, through = dag.outside()
        rows = [[0] * g.edge_count for _ in through]
        for f, c in enumerate(through):
            rows[f][f] = c
            if c:
                a, z = sorted(dag.pos[v] for v in g.endpoints(f))
                low, b = 1 << a, 1 << z
                used = {s: beta[s | low | b] for s in dag.groups[a]
                        if not s & b and (s | low | b) in beta}
                # adds to P[f][e] only where e leaves a group before a, which no other row sets
                _backward(dag, used, a, rows[f])
                for e, x in enumerate(rows[f]):
                    rows[e][f] = x
        return tuple(map(tuple, rows))

    return _memoized(g, "pairs", build)


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


class SpecialPairResult:
    """Outcome of the avoid-e/contain-f test on a cyclically 4ec cubic graph.

    When no such matching exists, ``coloring`` is a proper 2-coloring of the
    graph minus both edges with e's endpoints in one class and f's in the
    other; otherwise it is None.  Frozen and slotted; equality and hashing
    read ``pm_exists`` only, not the coloring.
    """

    __slots__ = ("pm_exists", "coloring")
    pm_exists: bool
    coloring: dict[int, int] | None

    def __init__(self, pm_exists: bool, coloring: dict[int, int] | None = None):
        object.__setattr__(self, "pm_exists", pm_exists)
        object.__setattr__(self, "coloring", coloring)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pm_exists == other.pm_exists

    def __hash__(self):
        return hash((self.pm_exists,))

    def __repr__(self):
        return f"SpecialPairResult(pm_exists={self.pm_exists!r}, coloring={self.coloring!r})"

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
    return not any(size % 2 or (n - size) % 2 for size in map(int.bit_count, light))


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
