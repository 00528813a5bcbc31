"""Edge cuts, cyclic edge-connectivity, and the 4-cut surgeries.

Every exhaustive cut question is brute force over the bipartitions that keep
vertex 0 on side A, swept by ``cut_sums_at_most`` on Python ints: vertices
are placed one at a time and a prefix is dropped once the weight it cuts
exceeds the caller's bound, so a sweep costs what its bound selects, and
masks and sums are exact at any size.  Only this module decodes a mask into
a side.
Each graph object keeps one unit-weight sweep in its memo, and no other
record of its cuts: the masks, crossing sizes and cyclic flags of the
bipartitions crossed by at most the largest bound asked so far.
``enumerate_cuts`` and ``cyclic_cuts_up_to`` filter it for any smaller
bound and build their ``EdgeCut`` lists from it afresh on each call; a
question that only asks whether a cyclic cut of at most k edges exists,
or how small the least one is (``cyclic_edge_connectivity``), reads its
sizes and flags and builds no ``EdgeCut``.  A larger bound sweeps again
and classifies only the masks it adds.  One classifier (``_cyclic_flags``)
decides whether a cut is cyclic, for the sweep and for ``build_cut``
alike: it reads the edge counts of the two sides, and an exact flood over
neighbour bitmasks counts their parts only where those counts leave it
open.  An ``EdgeCut`` is built only for a cut that is returned.
The union-find it replaced is kept in the test oracles.  The k-almost
search builds no graph and reads only its root's sweep: contracting
connected vertex sets keeps exactly the bipartitions that split none of
them, crossed by the same edges, and in the cubic loopless graphs it
reaches a cut of at most 3 edges is cyclic iff both sides keep 2 vertices.
Correctness beats asymptotics here: these sweeps are the oracles everything
else is checked against.
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
from .multigraph import Multigraph, _memoized, components, induced_subgraph

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


def bridges(g: Multigraph) -> frozenset[int]:
    """Edge ids whose removal disconnects the graph (parallel pairs never qualify)."""
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    out: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # vertex, entry edge, ptr
        while stack:
            v, pe, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            inc = g.incident(v)
            advanced = False
            while i < len(inc):
                e = inc[i]
                i += 1
                if e == pe:
                    continue
                w = g.other_end(e, v)
                if disc[w] == -1:
                    stack.append((v, pe, i))
                    stack.append((w, e, 0))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if advanced:
                continue
            if pe != -1:
                u = g.other_end(pe, v)
                low[u] = min(low[u], low[v])
                if low[v] > disc[u]:
                    out.add(pe)
    return frozenset(out)


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
    of Python ints in ascending mask order: bit v-1 of a mask puts vertex v
    on side A, and the mask with every bit set (side B empty) is included
    when it qualifies.  The weight a placed vertex sends to side A takes one
    ``int.bit_count`` per distinct weight among its edges to earlier
    vertices; an edge heavier than ``bound`` never crosses a survivor, so
    weights are clipped to bound + 1.
    """
    n = g.vertex_count
    if not n or bound < 0:
        return [], []
    place = {v: i for i, v in enumerate(g.frontier_order)}
    back: list[dict[int, int]] = [{} for _ in range(n)]  # weight to earlier-placed neighbours
    for (u, v), x in zip(g.edges, weights):
        u, v = (u, v) if place[u] < place[v] else (v, u)
        back[v][u] = back[v].get(u, 0) + min(x, bound + 1)
    masks, sums = [0], [0]
    for v in g.frontier_order:
        to_zero = back[v].get(0, 0)  # vertex 0 is on side A in every prefix
        by_weight: dict[int, int] = {}  # weight -> mask of the earlier neighbours it joins
        for u, x in back[v].items():
            if u:
                by_weight[x] = by_weight.get(x, 0) | 1 << (u - 1)
        terms = tuple(by_weight.items())
        total, bit = sum(back[v].values()), 1 << (v - 1) if v else 0
        placed_masks, placed_sums = [], []
        for mask, s in zip(masks, sums):
            to_a = to_zero
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


def mask_sizes(masks: list[int]) -> list[int]:
    """Size of side A for each mask of ``cut_sums_at_most``."""
    return [1 + mask.bit_count() for mask in masks]


def mask_sides(masks: list[int], n: int):
    """Side A of each mask, lazily, in the order given."""
    for mask in masks:
        yield _mask_to_side(mask, n)


def _proper_bipartitions(n: int) -> int:
    """How many bipartitions with vertex 0 on side A leave side B nonempty."""
    return (1 << (n - 1)) - 1 if n else 0


def _crossing_counts(g: Multigraph, max_size: int) -> tuple[list[int], list[int]]:
    """Masks and crossing sizes of the cuts of at most max_size edges, side B nonempty."""
    masks, counts = cut_sums_at_most(g, [1] * g.edge_count, max_size)
    if masks and masks[-1] == (1 << (g.vertex_count - 1)) - 1:  # side B empty
        return masks[:-1], counts[:-1]
    return masks, counts


def _mask_to_side(mask: int, n: int) -> frozenset[int]:
    """Index i names side A = {0} plus every vertex v whose bit v-1 is set."""
    return frozenset([0] + [v for v in range(1, n) if (mask >> (v - 1)) & 1])


def _crossing_edges(g: Multigraph, side: frozenset[int]) -> frozenset[int]:
    """The ids of the edges with exactly one end in ``side``."""
    return frozenset(e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side))


def _edge_cut(g: Multigraph, side: frozenset[int], cyclic: bool) -> EdgeCut:
    crossing = _crossing_edges(g, side)
    return EdgeCut(side, crossing, len(crossing), cyclic)


def build_cut(g: Multigraph, side) -> EdgeCut:
    """The cut determined by one side of a bipartition, cyclicity included.

    Cyclicity is classified as the sweep classifies it, on the mask of the
    side that holds vertex 0; a bipartition with an empty side is acyclic.
    """
    side = frozenset(side)
    cut = _edge_cut(g, side, False)
    n = g.vertex_count
    side_a = side if 0 in side else frozenset(range(n)) - side
    if not 0 < len(side_a) < n:
        return cut
    mask = sum(1 << (v - 1) for v in side_a if v)
    (cyclic,) = _cyclic_flags(g, [mask], [cut.size])
    return EdgeCut(side, cut.crossing_edges, cut.size, cyclic)


def _cycle_certificates(
    g: Multigraph, masks: list[int], crossing: list[int]
) -> tuple[list[bool], list[bool]]:
    """Which bipartitions are certainly cyclic, and which need the exact test.

    A side S spans e(S) = (deg(S) - cut(S)) / 2 edges.  With e(S) >= |S| it
    has a cycle (a forest has fewer edges than vertices); with e(S) <= 1 it
    has none (a loopless cycle needs two edges).  A cut is certainly cyclic
    when both sides have a cycle, and undecided when neither side is known
    to be acyclic and one is not yet known to have a cycle.  Side sizes are
    read from the bits of the selected ``masks``, and degree sums from one
    ``int.bit_count`` per degree class.
    """
    n, deg = g.vertex_count, g.degrees
    by_degree: dict[int, int] = {}  # degree -> mask of the vertices 1..n-1 that have it
    for v in range(1, n):
        by_degree[deg[v]] = by_degree.get(deg[v], 0) | 1 << (v - 1)
    classes = tuple(by_degree.items())
    certain, undecided = [], []
    for mask, cut in zip(masks, crossing):
        size_a = 1 + mask.bit_count()
        deg_a = deg[0] + sum(d * (mask & bits).bit_count() for d, bits in classes)
        inner_a = (deg_a - cut) // 2
        inner_b = (2 * g.edge_count - deg_a - cut) // 2
        sure = inner_a >= size_a and inner_b >= n - size_a
        certain.append(sure)
        undecided.append(not sure and inner_a > 1 and inner_b > 1)
    return certain, undecided


def _neighbour_masks(g: Multigraph) -> list[int]:
    """Entry v has bit w set for each neighbour w of v."""
    nbrs = [0] * g.vertex_count
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return nbrs


def _has_cycle(g: Multigraph, nbrs: list[int], side: int, cut: int) -> bool:
    """Does the side S, crossed by ``cut`` edges, hold a cycle?  Bit v of ``side`` is vertex v.

    It spans e(S) = (deg(S) - cut) / 2 edges, a parallel pair counting
    twice, and a forest on |S| vertices in p parts has |S| - p edges, so S
    has a cycle iff e(S) > |S| - p.  One flood over ``nbrs`` visits each
    vertex of S once, counting the parts and summing the degrees.
    """
    deg, twice_inner, parts, rest = g.degrees, -cut, 0, side
    while rest:
        part = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            twice_inner += deg[v]
            new = nbrs[v] & rest & ~part
            part |= new
            frontier |= new
        rest &= ~part
        parts += 1
    return twice_inner // 2 > side.bit_count() - parts


def _cyclic_flags(g: Multigraph, masks: list[int], crossing: list[int]) -> list[bool]:
    """Cyclicity of the selected bipartitions: the exact flood only where undecided."""
    certain, undecided = _cycle_certificates(g, masks, crossing)
    nbrs, whole = _neighbour_masks(g), (1 << g.vertex_count) - 1
    flags = []
    for mask, cut, sure, open_ in zip(masks, crossing, certain, undecided):
        side = mask << 1 | 1  # side A over all vertices: vertex 0 and bit v for vertex v
        flags.append(sure or (
            open_ and _has_cycle(g, nbrs, side, cut) and _has_cycle(g, nbrs, whole ^ side, cut)
        ))
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
            _edge_cut(g, _mask_to_side(mask, g.vertex_count), flag)
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
    if len(masks) == _proper_bipartitions(g.vertex_count):
        bound = g.edge_count
    sweep = g._memo["sweep"] = _Sweep(bound, masks, sizes, cyclic)
    return sweep


def _capped_sweep(g: Multigraph, max_size: int) -> _Sweep:
    """g's sweep at max_size (``_unit_sweep``), refused above ``CUT_CAP`` vertices."""
    if g.vertex_count > CUT_CAP:
        raise TooLarge(f"cut enumeration capped at {CUT_CAP} vertices")
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


def cyclic_cuts_up_to(g: Multigraph, max_size: int) -> tuple[EdgeCut, ...]:
    """The cyclic cuts of size <= max_size (deterministic order), built afresh
    from the graph's sweep on each call."""
    return tuple(enumerate_cuts(g, max_size, cyclic_only=True))


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
    sweep, n = _unit_sweep(g, 4), g.vertex_count
    anchor, other = g.endpoints(e)
    cuts = []
    for mask, size, flag in zip(sweep.masks, sweep.sizes, sweep.cyclic):
        side = mask << 1 | 1  # side A over all vertices: vertex 0 and bit v for vertex v
        if size == 4 and flag and (side >> anchor ^ side >> other) & 1:  # e crosses it
            side_a = _mask_to_side(mask, n)
            if anchor not in side_a:
                side_a = frozenset(range(n)) - side_a
            cuts.append(_edge_cut(g, side_a, True))
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


def _minimal_sides(n: int, sides) -> list[frozenset[int]]:
    """The inclusion-minimal sides, either side, of the bipartitions of
    range(n) whose sides A are given.

    In no particular order: each caller sorts them its own way.
    """
    allv = frozenset(range(n))
    both = {s for side in sides for s in (side, allv - side)}
    return [s for s in both if not any(t < s for t in both)]


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
    contracted set but its least).  Sides are tested for connectivity in g.
    """
    if g.vertex_count > ALMOST_CAP:
        raise TooLarge(f"search capped at {ALMOST_CAP} vertices")
    if not g.is_cubic:
        raise DegreeMismatch("the reduction is defined on cubic graphs")
    n, sweep = g.vertex_count, _unit_sweep(g, 3)
    root = [(_mask_to_side(m, n), c) for m, c in zip(sweep.masks, sweep.sizes) if c <= 3]

    def search(cuts, ids: tuple[int, ...], merged: frozenset[int], budget: int, acc):
        alive = n - len(merged)
        cuts = [(side, c) for side, c in cuts if 2 <= len(side - merged) <= alive - 2]
        if not cuts:
            return acc
        if budget < 2:
            return None
        sides = _minimal_sides(n, [side for side, c in cuts if c == 3])
        parts = {tuple(sorted({ids[v] for v in s})): s for s in sides}  # current ids -> g's
        for part in sorted(parts, key=lambda p: (len(p), p)):
            s, loss = parts[part], len(part) - 1
            if loss > budget or len(components(g, s)) != 1:
                continue
            rank = {x: i for i, x in enumerate(sorted(set(ids).difference(part[1:])))}
            kept = [(side, c) for side, c in cuts if s <= side or s.isdisjoint(side)]
            ids2 = tuple(rank[part[0] if x in part else x] for x in ids)
            res = search(kept, ids2, merged | (s - {min(s)}), budget - loss, acc + (part,))
            if res is not None:
                return res
        return None

    witness = search(root, tuple(range(n)), frozenset(), k, ())
    return (witness is not None), (witness if witness is not None else ())
