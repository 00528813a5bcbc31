"""Edge cuts, cyclic edge-connectivity, and the 4-cut surgeries.

Every exhaustive cut question is brute force over the bipartitions that keep
vertex 0 on side A, swept by ``cut_sums_at_most`` on Python ints: vertices
are placed one at a time and a prefix is dropped once the weight it cuts
exceeds the caller's bound, so a sweep costs what its bound selects, and
masks and sums are exact at any size.  A side is one encoding from the
sweep to every reader: the vertex bitmask with bit v for vertex v, bit 0
always set on side A.  It is decoded into a vertex set (``mask_side``) only
where a result holds one.  Each graph object keeps one unit-weight sweep
in its memo, and no other record of its cuts: the masks, crossing sizes
and cyclic flags of the bipartitions crossed by at most the largest bound
asked so far.  ``enumerate_cuts`` filters it for any smaller bound and
builds its ``EdgeCut`` list from it afresh on each call; a question that
only asks whether a cyclic cut of at most k edges exists, or how small the
least one is (``cyclic_edge_connectivity``), reads its sizes and flags and
builds no ``EdgeCut``.  A larger bound sweeps again and classifies only the
masks it adds.  One classifier (``_cyclic_flags``) decides whether a cut
is cyclic, for the sweep and for ``build_cut`` alike: it reads the edge
counts of the two sides, and an exact flood over neighbour bitmasks
(``_parts``) counts their parts only where those counts leave it open.  An
``EdgeCut`` is built only for a cut that is returned.  The union-find it
replaced is kept in the test oracles.  The k-almost search builds no
graph, reads only its root's sweep and keeps its sides as masks, tested
for connectivity by the same flood: contracting connected vertex sets keeps
exactly the bipartitions that split none of them, crossed by the same
edges, and in the cubic loopless graphs it reaches a cut of at most 3 edges
is cyclic iff both sides keep 2 vertices.
One low-link search (``_low_link``) finds the connected parts and bridges
of a list of endpoint pairs, for ``bridges`` and for the sampler's test of
a pairing.  Correctness beats asymptotics here: these sweeps are the
oracles everything else is checked against.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ChainViolation,
    DegreeMismatch,
    MinDegreeViolated,
    NotCyclically4EC,
    SharedEndpoint,
    TooLarge,
)
from .multigraph import Multigraph, _memoized, induced_subgraph

CUT_CAP = 24
ALMOST_CAP = 20


class EdgeCut(NamedTuple):
    """One side of a vertex bipartition plus its crossing edges."""

    side_a: frozenset[int]
    crossing_edges: frozenset[int]
    size: int
    cyclic: bool

    def flipped(self, g: Multigraph) -> "EdgeCut":
        other = frozenset(range(g.vertex_count)) - self.side_a
        return EdgeCut(other, self.crossing_edges, self.size, self.cyclic)


class CyclicConnectivity(NamedTuple):
    """Minimum cyclic edge-cut size; value None means no cyclic cut exists."""

    value: int | None

    @property
    def is_unbounded(self) -> bool:
        return self.value is None

    def at_least(self, k: int) -> bool:
        return self.value is None or self.value >= k

    def __repr__(self):
        return "CyclicConnectivity(Unbounded)" if self.value is None else (
            f"CyclicConnectivity({self.value})"
        )


def _low_link(n: int, pairs) -> tuple[int, frozenset[int]]:
    """The number of connected parts and the bridges of the loopless
    multigraph on vertices 0..n-1 whose edge e joins the ends ``pairs[e]``.

    One iterative depth-first search per part, from its lowest vertex, keeps
    each vertex's discovery time and lowpoint (Tarjan, IPL 2, 1974).  Only
    the edge that entered a vertex is skipped, so a parallel edge counts as
    a back edge and never as a bridge; a tree edge into w is a bridge iff
    no back edge from w's subtree reaches above w.  It reads plain endpoint
    pairs, so the sampler tests a pairing without building a graph.
    """
    inc: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        inc[u].append(e)
        inc[v].append(e)
    disc = [0] * n  # 0: not yet reached; times start at 1
    low = [0] * n
    reached = parts = 0
    out = []
    for root in range(n):
        if disc[root]:
            continue
        parts += 1
        reached += 1
        disc[root] = low[root] = reached
        stack = [(root, -1, iter(inc[root]))]  # vertex, the edge that entered it, its edges left
        while stack:
            v, entry, edges = stack[-1]
            for e in edges:
                if e == entry:
                    continue
                a, b = pairs[e]
                w = b if a == v else a
                if disc[w]:
                    low[v] = min(low[v], disc[w])
                    continue
                reached += 1
                disc[w] = low[w] = reached
                stack.append((w, e, iter(inc[w])))
                break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] > disc[u]:
                        out.append(entry)
                    low[u] = min(low[u], low[v])
    return parts, frozenset(out)


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose removal disconnects the graph (parallel pairs never qualify)."""
    return _low_link(g.vertex_count, g.edges)[1]


def cut_sums_at_most(
    g: Multigraph, weights: list[int], bound: int
) -> tuple[list[int], list[int]]:
    """Every bipartition with vertex 0 on side A whose crossing weight is <= bound.

    ``weights`` holds one non-negative int per edge id.  Vertices are placed
    one at a time along ``g.frontier_order``, each on side A or side B
    (vertex 0 on side A only), and a prefix is dropped as soon as the weight
    it already cuts exceeds ``bound``: no weight is negative, so that weight
    only grows as more vertices are placed.  The cost follows the prefixes
    that survive, not 2^(n-1).  Returns ``(masks, sums)``, two parallel lists
    of Python ints in ascending mask order: a mask is the vertex bitmask of
    side A, bit v for vertex v, so bit 0 is always set, and the mask with
    every bit set (side B empty) is included when it qualifies.  The weight
    a placed vertex sends to side A takes one ``int.bit_count`` per distinct
    weight among its edges to earlier vertices; an edge heavier than
    ``bound`` never crosses a survivor, so weights are clipped to bound + 1.
    """
    n = g.vertex_count
    if not n or bound < 0:
        return [], []
    place = {v: i for i, v in enumerate(g.frontier_order)}
    back: list[dict[int, int]] = [{} for _ in range(n)]  # weight to earlier-placed neighbours
    for (u, v), x in zip(g.edges, weights):
        u, v = (u, v) if place[u] < place[v] else (v, u)
        back[v][u] = back[v].get(u, 0) + min(x, bound + 1)
    masks, sums = [1], [0]  # vertex 0 is on side A in every prefix
    for v in g.frontier_order:
        by_weight: dict[int, int] = {}  # weight -> mask of the earlier neighbours it joins
        for u, x in back[v].items():
            by_weight[x] = by_weight.get(x, 0) | 1 << u
        terms = tuple(by_weight.items())
        total, bit = sum(back[v].values()), 1 << v
        placed_masks, placed_sums = [], []
        for mask, s in zip(masks, sums):
            to_a = 0
            for x, bits in terms:
                to_a += x * (mask & bits).bit_count()
            if s + total - to_a <= bound:  # v on side A: its edges to B cross
                placed_masks.append(mask | bit)
                placed_sums.append(s + total - to_a)
            if v and s + to_a <= bound:
                placed_masks.append(mask)
                placed_sums.append(s + to_a)
        masks, sums = placed_masks, placed_sums
    ascending = sorted(zip(masks, sums))
    return [mask for mask, _ in ascending], [s for _, s in ascending]


def mask_side(mask: int) -> frozenset[int]:
    """The vertex set of a bitmask side: bit v is vertex v."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _crossing_counts(g: Multigraph, max_size: int) -> tuple[list[int], list[int]]:
    """Masks and crossing sizes of the cuts of at most max_size edges, side B nonempty."""
    masks, counts = cut_sums_at_most(g, [1] * g.edge_count, max_size)
    if masks and masks[-1] == (1 << g.vertex_count) - 1:  # side B empty
        return masks[:-1], counts[:-1]
    return masks, counts


def _crossing_edges(g: Multigraph, side: frozenset[int]) -> frozenset[int]:
    """The ids of the edges with exactly one end in ``side``."""
    return frozenset(e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side))


def _edge_cut(g: Multigraph, side: frozenset[int], cyclic: bool) -> EdgeCut:
    crossing = _crossing_edges(g, side)
    return EdgeCut(side, crossing, len(crossing), cyclic)


def build_cut(g: Multigraph, side) -> EdgeCut:
    """The cut determined by one side of a bipartition, cyclicity included.

    Cyclicity is classified as the sweep classifies it, on the side's mask:
    the classifier reads both sides alike, so either side gives the flag.  A
    bipartition with an empty side is acyclic.
    """
    side = frozenset(side)
    cut = _edge_cut(g, side, False)
    if not 0 < len(side) < g.vertex_count:
        return cut
    (cyclic,) = _cyclic_flags(g, [sum(1 << v for v in side)], [cut.size])
    return cut._replace(cyclic=cyclic)


def _neighbour_masks(g: Multigraph) -> list[int]:
    """Entry v has bit w set for each neighbour w of v."""
    nbrs = [0] * g.vertex_count
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def _parts(nbrs: list[int], side: int) -> int:
    """The number of connected parts of the vertex bitmask ``side``: one
    flood over the neighbour bitmasks ``nbrs`` visits each vertex once."""
    parts = 0
    while side:
        part = frontier = side & -side
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbrs[low.bit_length() - 1] & side & ~part
            part |= new
            frontier |= new
        side &= ~part
        parts += 1
    return parts


def _has_cycle(nbrs: list[int], side: int, inner: int) -> bool:
    """Does the side S, spanning ``inner`` edges, hold a cycle?  A forest on
    |S| vertices in p parts has |S| - p edges."""
    return inner > side.bit_count() - _parts(nbrs, side)


def _cyclic_flags(g: Multigraph, masks: list[int], crossing: list[int]) -> list[bool]:
    """Cyclicity of the selected bipartitions, each given by the vertex
    bitmask of side A and its crossing size.

    A side S spans e(S) = (deg(S) - cut(S)) / 2 edges, a parallel pair
    counting twice, with deg(S) read by one ``int.bit_count`` per degree
    class.  With e(S) >= |S| it has a cycle (a forest has fewer edges than
    vertices); with e(S) <= 1 it has none (a loopless cycle needs two
    edges).  Only where neither count decides does the flood of ``_parts``
    count the parts of both sides; the neighbour bitmasks are built then.
    """
    n, m, deg = g.vertex_count, g.edge_count, g.degrees
    by_degree: dict[int, int] = {}  # degree -> mask of the vertices that have it
    for v in range(n):
        by_degree[deg[v]] = by_degree.get(deg[v], 0) | 1 << v
    classes, whole, nbrs = tuple(by_degree.items()), (1 << n) - 1, None
    flags = []
    for side, cut in zip(masks, crossing):
        size_a = side.bit_count()
        deg_a = sum(d * (side & bits).bit_count() for d, bits in classes)
        inner_a, inner_b = (deg_a - cut) // 2, (2 * m - deg_a - cut) // 2
        if inner_a >= size_a and inner_b >= n - size_a:
            flags.append(True)
        elif inner_a <= 1 or inner_b <= 1:
            flags.append(False)
        else:
            nbrs = nbrs or _neighbour_masks(g)
            flags.append(
                _has_cycle(nbrs, side, inner_a) and _has_cycle(nbrs, whole ^ side, inner_b)
            )
    return flags


class _Sweep(NamedTuple):
    """A graph's unit-weight sweep: each bipartition, side B nonempty, crossed
    by at most ``bound`` edges, as parallel lists in ascending mask order."""

    bound: int
    masks: list[int]
    sizes: list[int]
    cyclic: list[bool]

    def cuts(self, g: Multigraph, max_size: int, cyclic_only: bool) -> tuple[EdgeCut, ...]:
        return tuple(
            _edge_cut(g, mask_side(mask), flag)
            for mask, size, flag in zip(self.masks, self.sizes, self.cyclic)
            if size <= max_size and (flag or not cyclic_only)
        )


def _unit_sweep(g: Multigraph, bound: int) -> _Sweep:
    """g's memoized sweep, swept again only past the largest bound asked so far.

    A sweep at a larger bound selects every mask of a smaller one, with the
    same size, so only the masks it adds are classified.  A sweep that
    selects every proper bipartition answers any bound: no cut crosses more
    than the edge count.
    """
    bound = min(bound, g.edge_count)
    old = g._memo.get("sweep")
    if old is not None and old.bound >= bound:
        return old
    masks, sizes = _crossing_counts(g, bound)
    seen = {} if old is None else dict(zip(old.masks, old.cyclic))
    fresh = [(mask, size) for mask, size in zip(masks, sizes) if mask not in seen]
    flags = iter(_cyclic_flags(g, [mask for mask, _ in fresh], [size for _, size in fresh]))
    cyclic = [seen[mask] if mask in seen else next(flags) for mask in masks]
    if len(masks) == (1 << g.vertex_count >> 1) - 1:  # every proper bipartition
        bound = g.edge_count
    sweep = g._memo["sweep"] = _Sweep(bound, masks, sizes, cyclic)
    return sweep


def _capped_sweep(g: Multigraph, max_size: int) -> _Sweep:
    """g's sweep at max_size (``_unit_sweep``), refused above ``CUT_CAP`` vertices."""
    if g.vertex_count > CUT_CAP:
        raise TooLarge(f"cut sweep capped at {CUT_CAP} vertices")
    return _unit_sweep(g, max_size)


def enumerate_cuts(g: Multigraph, max_size: int, cyclic_only: bool) -> list[EdgeCut]:
    """All bipartitions with crossing size <= max_size, side A holding vertex 0.

    Ordered by ascending side-A bitmask (deterministic); flagged cyclic when
    both sides contain a cycle, and filtered to those when requested.  Built
    afresh from the graph's one memoized sweep, which is swept again only
    when max_size passes the largest bound asked so far.
    """
    return list(_capped_sweep(g, max_size).cuts(g, max_size, cyclic_only))


def _least_cyclic_size(g: Multigraph, max_size: int) -> int | None:
    """The size of g's smallest cyclic cut of at most max_size edges, or None.

    Read from the sizes and flags of g's sweep, swept no further than
    max_size; no ``EdgeCut`` is built.  Refused above ``CUT_CAP`` vertices,
    as ``enumerate_cuts`` refuses.
    """
    sweep = _capped_sweep(g, max_size)
    return min(
        (size for size, flag in zip(sweep.sizes, sweep.cyclic) if flag and size <= max_size),
        default=None,
    )


def cyclic_edge_connectivity(g: Multigraph) -> CyclicConnectivity:
    """Minimum size of a cyclic edge-cut, found by exhaustive sweep.

    The graph's sweep is read at bound 3, 4, 5, 6 and then at doubled
    bounds, up to the edge count; the value is the least size flagged
    cyclic at the first bound that flags any, and None when the edge count
    flags none.  A bound that the sweep already covers (it selected every
    proper bipartition, or a larger bound was asked before) sweeps nothing,
    and no mask is classified at two bounds.  The value is kept in the
    graph's memo; its cuts stay only in the graph's sweep, from which
    ``enumerate_cuts(g, value, cyclic_only=True)`` builds them unswept.
    """

    def search():
        bound = 3
        while (least := _least_cyclic_size(g, bound)) is None:
            if bound >= g.edge_count:  # every proper bipartition was read
                return CyclicConnectivity(None)
            bound = bound + 1 if bound < 6 else 2 * bound
        return CyclicConnectivity(least)

    return _memoized(g, "cyclic connectivity", search)


def observation_cyc_check(g: Multigraph, cut: EdgeCut) -> bool:
    """Hypothesis test for the size-(k-1) observation on min-degree-3 graphs.

    Returns True iff both sides have at least size-1 vertices; in that case
    the cut must be cyclic, which is asserted on the cut ``build_cut``
    rebuilds from side A, whatever flag ``cut`` carries.
    """
    if any(d < 3 for d in g.degrees):
        raise MinDegreeViolated("observation needs minimum degree 3")
    k = cut.size
    other = frozenset(range(g.vertex_count)) - cut.side_a
    hyp = len(cut.side_a) >= k - 1 and len(other) >= k - 1
    if hyp and not build_cut(g, cut.side_a).cyclic:
        raise AssertionError(f"cut {sorted(cut.side_a)} should be cyclic but is not")
    return hyp


def ordered_4cut_chain(g: Multigraph, e: int) -> list[EdgeCut]:
    """The cyclic 4-cuts through e, sides (holding e's first endpoint) nested.

    On a cyclically 4-edge-connected graph those sides form a chain under
    inclusion; a ChainViolation indicates a precondition violation or a bug.
    The cuts through e are picked from the masks of g's sweep, and an
    ``EdgeCut`` is built for those only.
    """
    if _least_cyclic_size(g, 3) is not None:
        raise NotCyclically4EC("chain ordering needs cyclic 4-edge-connectivity")
    sweep, whole = _unit_sweep(g, 4), (1 << g.vertex_count) - 1
    anchor, other = g.endpoints(e)
    cuts = []
    for mask, size, flag in zip(sweep.masks, sweep.sizes, sweep.cyclic):
        if size == 4 and flag and (mask >> anchor ^ mask >> other) & 1:  # e crosses it
            side = mask if mask >> anchor & 1 else whole ^ mask
            cuts.append(_edge_cut(g, mask_side(side), True))
    cuts.sort(key=lambda c: (len(c.side_a), tuple(sorted(c.side_a))))
    for a, b in zip(cuts, cuts[1:]):
        if not a.side_a <= b.side_a:
            raise ChainViolation(
                f"sides {sorted(a.side_a)} and {sorted(b.side_a)} are incomparable"
            )
    return cuts


def cut_surgery_pair(
    g: Multigraph,
    cut: EdgeCut,
    pairing: tuple[tuple[int, int], tuple[int, int]],
) -> tuple[Multigraph, Multigraph]:
    """The two 4-cut closures of side A: add two edges, or a subdivided link.

    ``pairing`` partitions the four cut edges into two pairs (by edge id);
    for the other side, pass ``cut.flipped(g)``.  With m' edges induced on
    side A, the paired graph appends its two new edges at positions m' and
    m'+1 (pair order as given); the subdivided graph appends, in order, the
    four attachment edges for pairing[0][0], pairing[0][1], pairing[1][0],
    pairing[1][1] and then the middle edge joining the two new vertices (ids
    s = side size and s+1).
    """
    if cut.size != 4:
        raise SharedEndpoint("surgery needs a cut with exactly 4 crossing edges")
    flat = [e for pair in pairing for e in pair]
    if sorted(flat) != sorted(cut.crossing_edges):
        raise SharedEndpoint("pairing must partition the four cut edges")
    anchors = {}
    for e in flat:
        u, v = g.endpoints(e)
        anchors[e] = u if u in cut.side_a else v
    if len(set(anchors.values())) != 4:
        raise SharedEndpoint("two cut edges meet side A at one vertex")
    sub, vmap, _ = induced_subgraph(g, cut.side_a)
    (a, b), (c, d) = pairing
    paired = Multigraph(
        sub.vertex_count,
        sub.edges
        + ((vmap[anchors[a]], vmap[anchors[b]]), (vmap[anchors[c]], vmap[anchors[d]])),
    )
    s = sub.vertex_count
    subdivided = Multigraph(
        s + 2,
        sub.edges
        + (
            (vmap[anchors[a]], s),
            (vmap[anchors[b]], s),
            (vmap[anchors[c]], s + 1),
            (vmap[anchors[d]], s + 1),
            (s, s + 1),
        ),
    )
    return paired, subdivided


def _minimal_sides(n: int, sides) -> list[int]:
    """The inclusion-minimal sides, either side, of the bipartitions of
    range(n) whose sides A are given, all as vertex bitmasks.

    In no particular order: each caller sorts them its own way.
    """
    whole = (1 << n) - 1
    both = {s for side in sides for s in (side, whole ^ side)}
    return [s for s in both if not any(t != s and not t & ~s for t in both)]


def is_k_almost_cyclically_4ec(
    g: Multigraph, k: int
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Can contracting cyclic-3-cut sides lose <= k vertices and reach c4ec?

    The search backtracks over inclusion-minimal cyclic-3-cut sides of the
    current graph; each witness entry is a side in the coordinates of the
    graph it was contracted in (the first entry uses g's own vertex ids).
    No graph is built and only g is swept.  The current graph is g with
    disjoint connected vertex sets contracted, which keeps exactly the
    bipartitions of g that split none of them, crossed by the same edges.
    It is cubic and loopless, so a cut of at most 3 edges is cyclic iff both
    sides keep 2 vertices (2e(S) = 3|S| - c), and a contraction never makes
    a cut cyclic.  The state: the cyclic cuts as sides A over g, the current
    id of each vertex of g, and the vertices merged away (all of a
    contracted set but its least), each a vertex bitmask over g, as the
    sweep's masks are.  Sides are tested for connectivity in g by the flood
    of ``_parts``; a side is decoded only into a witness entry.
    """
    if g.vertex_count > ALMOST_CAP:
        raise TooLarge(f"search capped at {ALMOST_CAP} vertices")
    if not g.is_cubic:
        raise DegreeMismatch("the reduction is defined on cubic graphs")
    n, sweep, nbrs = g.vertex_count, _unit_sweep(g, 3), _neighbour_masks(g)
    root = [(m, c) for m, c in zip(sweep.masks, sweep.sizes) if c <= 3]

    def search(cuts, ids: tuple[int, ...], merged: int, budget: int, acc):
        alive = n - merged.bit_count()
        cuts = [(side, c) for side, c in cuts if 2 <= (side & ~merged).bit_count() <= alive - 2]
        if not cuts:
            return acc
        if budget < 2:
            return None
        sides = _minimal_sides(n, [side for side, c in cuts if c == 3])
        parts = {tuple(sorted({ids[v] for v in mask_side(s)})): s for s in sides}  # ids -> g's
        for part in sorted(parts, key=lambda p: (len(p), p)):
            s, loss = parts[part], len(part) - 1
            if loss > budget or _parts(nbrs, s) != 1:
                continue
            rank = {x: i for i, x in enumerate(sorted(set(ids).difference(part[1:])))}
            kept = [(side, c) for side, c in cuts if side & s in (s, 0)]
            ids2 = tuple(rank[part[0] if x in part else x] for x in ids)
            res = search(kept, ids2, merged | s & (s - 1), budget - loss, acc + (part,))
            if res is not None:
                return res
        return None

    witness = search(root, tuple(range(n)), 0, k, ())
    return (witness is not None), (witness if witness is not None else ())
