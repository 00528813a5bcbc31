"""Edge cuts, cyclic edge-connectivity, and the 4-cut surgeries.

Every exhaustive cut question is brute force over the bipartitions that keep
vertex 0 on side A, swept by ``cut_sums_at_most``: vertices are placed one
at a time and a prefix is dropped once the weight it cuts exceeds the
caller's bound, so a sweep costs what its bound selects and no 2^(n-1)
array is built.  Only this module decodes a mask into a side.
Whether a cut is cyclic is read from the edge counts of its two sides at the
selected masks; an exact union-find runs only where those counts leave it
open, and an ``EdgeCut`` is built only for a cut that is returned.
Each graph object keeps its cut lists, and its cyclic edge-connectivity
read from them at bounds 3, 4 and up, in its own memo (``_memoized``).
Correctness beats asymptotics here: these sweeps are the oracles everything
else is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChainViolation,
    DegreeMismatch,
    MinDegreeViolated,
    NotCyclically4EC,
    SharedEndpoint,
    TooLarge,
)
from .multigraph import Multigraph, _memoized, components, contract, induced_subgraph

CUT_CAP = 24
ALMOST_CAP = 20


@dataclass(frozen=True)
class EdgeCut:
    """One side of a vertex bipartition plus its crossing edges."""

    side_a: frozenset[int]
    crossing_edges: frozenset[int]
    size: int
    cyclic: bool

    def flipped(self, g: Multigraph) -> "EdgeCut":
        other = frozenset(range(g.vertex_count)) - self.side_a
        return EdgeCut(other, self.crossing_edges, self.size, self.cyclic)


@dataclass(frozen=True)
class CyclicConnectivity:
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


def side_has_cycle(g: Multigraph, side) -> bool:
    """Does the subgraph induced by ``side`` contain a cycle?

    A pair of parallel edges is a 2-cycle, so union-find does it exactly.
    """
    side = set(side)
    parent = {v: v for v in side}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        if u in side and v in side:
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def _sum_dtype(limit: int):
    """The smallest unsigned dtype that holds ``limit``, else exact Python ints."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if limit <= np.iinfo(dtype).max:
            return dtype
    return object


def cut_sums_at_most(g: Multigraph, weights: list[int], bound: int):
    """Every bipartition with vertex 0 on side A whose crossing weight is <= bound.

    ``weights`` holds one non-negative int per edge id.  Vertices are placed
    one at a time along ``g.frontier_order``, each on side A or side B
    (vertex 0 on side A only), and a prefix is dropped as soon as the weight
    it already cuts exceeds ``bound``: no weight is negative, so that weight
    only grows as more vertices are placed.  The cost follows the prefixes
    that survive, not 2^(n-1).  Returns ``(masks, sums)`` in ascending mask
    order: bit v-1 of a uint32 mask puts vertex v on side A, and the mask
    with every bit set (side B empty) is included when it qualifies.  An
    edge heavier than ``bound`` never crosses a survivor, so weights are
    clipped to bound + 1, and the sums take the smallest dtype that holds
    every partial sum before pruning.
    """
    n = g.vertex_count
    if n > 33:
        raise TooLarge("bipartition masks hold at most 32 vertices besides vertex 0")
    if not n or bound < 0:
        return np.zeros(0, np.uint32), np.zeros(0, np.uint8)
    place = {v: i for i, v in enumerate(g.frontier_order)}
    back: list[dict[int, int]] = [{} for _ in range(n)]  # weight to earlier-placed neighbours
    for (u, v), x in zip(g.edges, weights):
        u, v = (u, v) if place[u] < place[v] else (v, u)
        back[v][u] = back[v].get(u, 0) + min(x, bound + 1)
    dtype = _sum_dtype(bound + max(sum(b.values()) for b in back))
    masks, sums = np.zeros(1, np.uint32), np.zeros(1, dtype)
    for v in g.frontier_order:
        to_a = back[v].get(0, 0)  # weight from v to placed vertices on side A
        for u, x in back[v].items():
            if u:
                bit = ((masks >> (u - 1)) & 1).astype(dtype)
                to_a = to_a + (bit if x == 1 else bit * x)
        on_a = sums + (sum(back[v].values()) - to_a)  # v on side A: its edges to B cross
        if v:  # both sides, then one filter: few numpy calls per vertex
            sums = np.concatenate((on_a, sums + to_a))
            masks = np.concatenate((masks | (1 << (v - 1)), masks))
        else:
            sums = on_a
        keep = sums <= bound
        masks, sums = masks[keep], sums[keep]
    ascending = np.argsort(masks)
    return masks[ascending], sums[ascending]


def mask_sizes(masks: np.ndarray, n: int) -> np.ndarray:
    """Size of side A for each mask of ``cut_sums_at_most`` on n vertices."""
    sizes = np.ones(len(masks), np.int64)
    for bit in range(n - 1):
        sizes += (masks >> bit) & 1
    return sizes


def mask_sides(masks: np.ndarray, n: int):
    """Side A of each mask, lazily, in the order given."""
    for mask in masks:
        yield _mask_to_side(int(mask), n)


def _crossing_counts(g: Multigraph, max_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks and crossing sizes of the cuts of at most max_size edges, side B nonempty."""
    masks, counts = cut_sums_at_most(g, [1] * g.edge_count, max_size)
    if len(masks) and masks[-1] == (1 << (g.vertex_count - 1)) - 1:  # side B empty
        return masks[:-1], counts[:-1]
    return masks, counts


def _mask_to_side(mask: int, n: int) -> frozenset[int]:
    """Index i names side A = {0} plus every vertex v whose bit v-1 is set."""
    return frozenset([0] + [v for v in range(1, n) if (mask >> (v - 1)) & 1])


def _edge_cut(g: Multigraph, side: frozenset[int], cyclic: bool) -> EdgeCut:
    crossing = frozenset(
        e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )
    return EdgeCut(side, crossing, len(crossing), cyclic)


def _both_sides_cyclic(g: Multigraph, side: frozenset[int]) -> bool:
    return side_has_cycle(g, side) and side_has_cycle(g, frozenset(range(g.vertex_count)) - side)


def build_cut(g: Multigraph, side) -> EdgeCut:
    """The cut determined by one side of a bipartition, cyclicity included."""
    side = frozenset(side)
    return _edge_cut(g, side, _both_sides_cyclic(g, side))


def _cycle_certificates(
    g: Multigraph, masks: np.ndarray, crossing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which bipartitions are certainly cyclic, and which need the exact test.

    A side S spans e(S) = (deg(S) - cut(S)) / 2 edges.  With e(S) >= |S| it
    has a cycle (a forest has fewer edges than vertices); with e(S) <= 1 it
    has none (a loopless cycle needs two edges).  A cut is certainly cyclic
    when both sides have a cycle, and undecided when neither side is known
    to be acyclic and one is not yet known to have a cycle.  Degree sums and
    side sizes are read from the bits of the selected ``masks``.
    """
    if not len(masks):
        return np.zeros(0, bool), np.zeros(0, bool)
    n, deg = g.vertex_count, g.degrees
    bits = (masks[:, None] >> np.arange(n - 1)) & 1  # row i: vertices 1..n-1 on side A
    size_a = 1 + bits.sum(axis=1)
    deg_a = deg[0] + bits @ np.array(deg[1:], np.int64)
    crossing = crossing.astype(np.int64)
    inner_a = (deg_a - crossing) // 2
    inner_b = (2 * g.edge_count - deg_a - crossing) // 2
    has_a, has_b = inner_a >= size_a, inner_b >= n - size_a
    certain = has_a & has_b
    undecided = (inner_a > 1) & (inner_b > 1) & ~certain
    return certain, undecided


def _cuts(g: Multigraph, masks: np.ndarray, crossing: np.ndarray, cyclic_only: bool):
    """The cuts of the selected bipartitions: the union-find only where undecided."""
    cyclic, undecided = _cycle_certificates(g, masks, crossing)
    for i in np.flatnonzero(undecided):
        cyclic[i] = _both_sides_cyclic(g, _mask_to_side(int(masks[i]), g.vertex_count))
    return tuple(
        _edge_cut(g, _mask_to_side(int(mask), g.vertex_count), bool(flag))
        for mask, flag in zip(masks, cyclic)
        if flag or not cyclic_only
    )


def enumerate_cuts(g: Multigraph, max_size: int, cyclic_only: bool) -> list[EdgeCut]:
    """All bipartitions with crossing size <= max_size, side A holding vertex 0.

    Ordered by ascending side-A bitmask (deterministic); flagged cyclic when
    both sides contain a cycle, and filtered to those when requested.  The
    flags are read from the crossing sizes at the selected masks, so an
    ``EdgeCut`` is built only for a cut that is returned.  The list is kept
    in the graph's memo under (max_size, cyclic_only).
    """
    if g.vertex_count > CUT_CAP:
        raise TooLarge(f"cut enumeration capped at {CUT_CAP} vertices")

    def sweep():
        return _cuts(g, *_crossing_counts(g, max_size), cyclic_only)

    return list(_memoized(g, ("cuts", max_size, cyclic_only), sweep))


def cyclic_edge_connectivity(g: Multigraph) -> CyclicConnectivity:
    """Minimum size of a cyclic edge-cut, found by exhaustive sweep.

    The smallest size in the first nonempty ``cyclic_cuts_up_to(g, bound)``
    for bound = 3, 4, ... up to the edge count, so a graph with no cyclic
    cut is swept at every bound up to its edge count, past its largest
    crossing (K4 at bounds 5 and 6, too).  The value is kept in the graph's
    memo, and the cuts of that size under their own size, where
    ``enumerate_cuts(g, value, cyclic_only=True)`` finds them unswept.
    """
    if g.vertex_count > CUT_CAP:
        raise TooLarge(f"cut enumeration capped at {CUT_CAP} vertices")

    def sweep():
        for bound in range(3, g.edge_count + 1):
            cuts = cyclic_cuts_up_to(g, bound)
            if cuts:
                size = min(cut.size for cut in cuts)
                if size < bound:
                    smallest = tuple(cut for cut in cuts if cut.size == size)
                    _memoized(g, ("cuts", size, True), lambda: smallest)
                return CyclicConnectivity(size)
        return CyclicConnectivity(None)

    return _memoized(g, "cyclic connectivity", sweep)


def cyclic_cuts_up_to(g: Multigraph, max_size: int) -> tuple[EdgeCut, ...]:
    """The cyclic cuts of size <= max_size (deterministic order)."""
    return tuple(enumerate_cuts(g, max_size, cyclic_only=True))


def observation_cyc_check(g: Multigraph, cut: EdgeCut) -> bool:
    """Hypothesis test for the size-(k-1) observation on min-degree-3 graphs.

    Returns True iff both sides have at least size-1 vertices; in that case
    the cut must be cyclic, which is asserted against an independent cycle
    check on both sides.
    """
    if any(d < 3 for d in g.degrees):
        raise MinDegreeViolated("observation needs minimum degree 3")
    k = cut.size
    other = frozenset(range(g.vertex_count)) - cut.side_a
    hyp = len(cut.side_a) >= k - 1 and len(other) >= k - 1
    if hyp:
        if not (side_has_cycle(g, cut.side_a) and side_has_cycle(g, other)):
            raise AssertionError(f"cut {sorted(cut.side_a)} should be cyclic but is not")
    return hyp


def ordered_4cut_chain(g: Multigraph, e: int) -> list[EdgeCut]:
    """The cyclic 4-cuts through e, sides (holding e's first endpoint) nested.

    On a cyclically 4-edge-connected graph those sides form a chain under
    inclusion; a ChainViolation indicates a precondition violation or a bug.
    """
    if cyclic_cuts_up_to(g, 3):
        raise NotCyclically4EC("chain ordering needs cyclic 4-edge-connectivity")
    anchor = g.endpoints(e)[0]
    cuts = []
    for cut in cyclic_cuts_up_to(g, 4):
        if cut.size != 4 or e not in cut.crossing_edges:
            continue
        if anchor not in cut.side_a:
            cut = cut.flipped(g)
        cuts.append(cut)
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
    side: str = "A",
) -> tuple[Multigraph, Multigraph]:
    """The two 4-cut closures of one side: add two edges, or a subdivided link.

    ``pairing`` partitions the four cut edges into two pairs (by edge id).
    With m' edges induced on the chosen side, the paired graph appends its
    two new edges at positions m' and m'+1 (pair order as given); the
    subdivided graph appends, in order, the four attachment edges for
    pairing[0][0], pairing[0][1], pairing[1][0], pairing[1][1] and then the
    middle edge joining the two new vertices (ids s = side size and s+1).
    """
    if cut.size != 4:
        raise SharedEndpoint("surgery needs a cut with exactly 4 crossing edges")
    chosen = cut.side_a if side == "A" else frozenset(range(g.vertex_count)) - cut.side_a
    flat = [e for pair in pairing for e in pair]
    if sorted(flat) != sorted(cut.crossing_edges):
        raise SharedEndpoint("pairing must partition the four cut edges")
    anchors = {}
    for e in flat:
        u, v = g.endpoints(e)
        anchors[e] = u if u in chosen else v
    if len(set(anchors.values())) != 4:
        raise SharedEndpoint("two cut edges meet the chosen side at one vertex")
    sub, vmap, _ = induced_subgraph(g, chosen)
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


def minimal_cyclic3_sides(g: Multigraph) -> list[frozenset[int]]:
    """Inclusion-minimal sides over all cyclic 3-edge-cuts, deterministic order."""
    sides: set[frozenset[int]] = set()
    allv = frozenset(range(g.vertex_count))
    for cut in cyclic_cuts_up_to(g, 3):
        if cut.size != 3:
            continue
        sides.add(cut.side_a)
        sides.add(allv - cut.side_a)
    minimal = [s for s in sides if not any(t < s for t in sides)]
    return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))


def is_k_almost_cyclically_4ec(
    g: Multigraph, k: int
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Can contracting cyclic-3-cut sides lose <= k vertices and reach c4ec?

    The search backtracks over inclusion-minimal cyclic-3-cut sides of the
    current graph; each witness entry is a side in the coordinates of the
    graph it was contracted in (the first entry uses g's own vertex ids).
    """
    if g.vertex_count > ALMOST_CAP:
        raise TooLarge(f"search capped at {ALMOST_CAP} vertices")
    if not g.is_cubic:
        raise DegreeMismatch("the reduction is defined on cubic graphs")

    def search(h: Multigraph, budget: int, acc):
        if not cyclic_cuts_up_to(h, 3):
            return acc
        if budget < 2:
            return None
        for s in minimal_cyclic3_sides(h):
            loss = len(s) - 1
            if loss > budget or len(components(h, s)) != 1:
                continue
            h2, _ = contract(h, s)
            res = search(h2, budget - loss, acc + (tuple(sorted(s)),))
            if res is not None:
                return res
        return None

    witness = search(g, k, ())
    return (witness is not None), (witness if witness is not None else ())
