"""Immutable loopless multigraphs with stable positional edge identities.

An edge's identity is its position in the edge sequence, so parallel edges
are distinct objects and derived graphs can record exactly where each of
their edges came from.  Loops are rejected at construction; contraction
drops them silently.  All surgeries are pure functions returning new graphs,
and each surgery has a record builder so a trace can be replayed bit for bit
(edge order included) from the source graph.

The package's graph searches live here: ``components`` finds the connected
parts of an induced subgraph minus some edges, and ``two_coloring`` 2-colors
a graph minus some edges or finds an odd cycle.  Other modules ask these
two for connected parts and 2-colorings; ``connectivity`` keeps its bitmask
flood, which counts the parts of a cut side for its cycle test and for the
k-almost search, and the one low-link search for bridges, which
``bridges`` and the pairing-model sampler of ``families`` share.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DegreeMismatch,
    DisconnectedPart,
    LoopRejected,
    NeighborClash,
    NotAPath,
    RecipeTooLarge,
    VertexIdOutOfRange,
)


class Multigraph:
    """A labeled multigraph on vertices 0..vertex_count-1.

    Invariants: no loops, dense vertex ids, edge ids equal to positions in
    ``edges``.  Endpoint pairs are canonicalized to (min, max) but the
    sequence order, and hence edge identity, is preserved.

    Frozen: the two fields refuse assignment, and equality and hashing are
    those of ``(vertex_count, edges)`` within the class.  The instance keeps
    its ``__dict__`` for the cached properties, which write to it directly.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]):
        n = vertex_count
        canon = []
        for u, v in edges:
            if u == v:
                raise LoopRejected(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexIdOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            canon.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _memo(self) -> dict:
        """Results other modules derive from this graph object: the package's one cache.

        Like the cached properties, it is not a field, so it is left out of
        equality and hashing, and it dies with the graph.
        """
        return {}

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(x) for x in inc)

    def _neighbour_sets(self) -> list[set[int]]:
        """Each vertex's set of distinct neighbours, from one pass over the edges."""
        nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's distinct neighbours, sorted: the table ``neighbors`` reads."""
        return tuple(tuple(sorted(x)) for x in self._neighbour_sets())

    @cached_property
    def frontier_order(self) -> tuple[int, ...]:
        """A vertex order with a small frontier, along which the matching DP
        and the cut sweep (``connectivity.cut_sums_at_most``) place vertices.

        Greedy: each step places the vertex that adds the fewest unplaced
        vertices to the boundary (the unplaced neighbours of placed
        vertices), preferring boundary vertices, then the lowest id.  Costs
        are kept incrementally: a vertex leaves the pool of unplaced
        vertices off the boundary once, and then each of its d neighbours'
        costs drops by one.  Each step scans the n keys once for the
        minimum.  The neighbour sets are built here and dropped on return,
        so a graph asked only matching questions keeps no neighbour table;
        every update is a decrement, so the order does not depend on how
        the sets list their members.
        """
        n, nbrs = self.vertex_count, self._neighbour_sets()
        # key = 2 * (neighbours in the pool) + (1 while in the pool)
        key = [2 * len(x) + 1 for x in nbrs]
        placed = 2 * n  # above every key, and even: not in the pool
        order: list[int] = []
        vertices, lookup = range(n), key.__getitem__
        for _ in vertices:
            v = min(vertices, key=lookup)  # lowest key, then lowest id
            order.append(v)
            if key[v] & 1:  # v leaves the pool; no neighbour of it is placed
                for x in nbrs[v]:
                    key[x] -= 2
            key[v] = placed
            for w in nbrs[v]:
                if key[w] & 1:  # w joins the boundary, so it leaves the pool
                    key[w] -= 1
                    for x in nbrs[w]:
                        if key[x] < placed:
                            key[x] -= 2
        return tuple(order)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self._incidence)

    @cached_property
    def is_cubic(self) -> bool:
        return all(d == 3 for d in self.degrees)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids at v, in increasing id order."""
        return self._incidence[v]

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbours of v, in increasing order; parallel edges give one.

        Read from the graph's neighbour table, built on the first call.
        """
        return self._neighbors[v]

    def multiplicity(self, u: int, v: int) -> int:
        pair = (u, v) if u <= v else (v, u)
        return sum(1 for e in self.edges if e == pair)

    def is_connected(self) -> bool:
        return len(components(self)) <= 1

    def __repr__(self):  # keep failure dumps readable
        return f"Multigraph(n={self.vertex_count}, m={self.edge_count}, edges={list(self.edges)})"


def _memoized(g: Multigraph, key, build):
    """``build()``, run once per graph object and kept in its memo under ``key``."""
    memo = g._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def from_edge_list(vertex_count: int, pairs: Sequence[tuple[int, int]]) -> Multigraph:
    """Build a multigraph from endpoint pairs; edge ids follow input order."""
    return Multigraph(vertex_count, tuple(tuple(p) for p in pairs))


def components(
    g: Multigraph,
    vertices: Iterable[int] | None = None,
    skip: frozenset[int] = frozenset(),
) -> list[frozenset[int]]:
    """Connected parts of the subgraph induced by ``vertices`` (all by default)
    without the edge ids in ``skip``, ordered by their lowest vertex."""
    left = set(range(g.vertex_count) if vertices is None else vertices)
    edges, incidence = g.edges, g._incidence
    parts = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        part, stack = [start], [start]
        while stack:
            v = stack.pop()
            for e in incidence[v]:
                if e in skip:
                    continue
                a, b = edges[e]
                w = b if a == v else a
                if w in left:
                    left.discard(w)
                    part.append(w)
                    stack.append(w)
        parts.append(frozenset(part))
    return parts


def two_coloring(g: Multigraph, skip: frozenset[int] = frozenset()) -> list[int] | None:
    """Proper 2-coloring of g minus the edge ids in ``skip``, or None on an odd cycle.

    Returns the color per vertex; the lowest vertex of each connected part
    gets color 0.
    """
    n = g.vertex_count
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                if e in skip:
                    continue
                w = g.other_end(e, v)
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def induced_subgraph(
    g: Multigraph, vertices: Sequence[int] | frozenset[int]
) -> tuple[Multigraph, dict[int, int], tuple[int, ...]]:
    """Induced subgraph with dense relabeling.

    Returns (subgraph, old->new vertex map, kept edge ids in original order).
    """
    keep = sorted(set(vertices))
    vmap = {v: i for i, v in enumerate(keep)}
    edges = []
    eids = []
    for eid, (u, v) in enumerate(g.edges):
        if u in vmap and v in vmap:
            edges.append((vmap[u], vmap[v]))
            eids.append(eid)
    return Multigraph(len(keep), tuple(edges)), vmap, tuple(eids)


# ---------------------------------------------------------------------------
# isomorphisms and automorphisms (backtracking with pruning; desk scale only)


def _adjacency(g: Multigraph) -> list[dict[int, int]]:
    """Each vertex's neighbours, mapped to the multiplicity of the edge between them."""
    adj: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = adj[u].get(v, 0) + 1
    return adj


def _invariants(g: Multigraph):
    mult = Counter(g.edges)
    sig = []
    for v in range(g.vertex_count):
        nbr = sorted(
            (g.degree(g.other_end(e, v)), mult[g.edges[e]]) for e in g.incident(v)
        )
        sig.append((g.degree(v), tuple(nbr)))
    return tuple(sig)


def isomorphisms(g: Multigraph, h: Multigraph) -> Iterator[list[int]]:
    """Every vertex bijection g->h preserving edge multiplicities, one at a time.

    Exhaustive backtracking with degree/neighborhood pruning.  Each next
    vertex is the unplaced one with the most placed neighbours, then the
    fewest candidates, then the lowest id, so the search grows a connected
    region.  A vertex with a placed neighbour takes its candidates from the
    neighbours of that neighbour's image; a candidate fits when it meets
    the image of every placed neighbour with the same multiplicity and has
    no other placed neighbour.  Each bijection is yielded as a list, the
    image of vertex v at position v.
    """
    n = g.vertex_count
    if n != h.vertex_count or g.edge_count != h.edge_count:
        return
    gsig, hsig = _invariants(g), _invariants(h)
    if sorted(gsig) != sorted(hsig):
        return
    cand = [[w for w in range(n) if hsig[w] == gsig[v]] for v in range(n)]
    gadj, hadj = _adjacency(g), _adjacency(h)
    links = [0] * n  # placed neighbours of each vertex
    order: list[int] = []
    unplaced = set(range(n))
    while unplaced:
        v = min(unplaced, key=lambda v: (-links[v], len(cand[v]), v))
        unplaced.remove(v)
        order.append(v)
        for w in gadj[v]:
            links[w] += 1
    # the placed neighbours of each vertex at its turn, with multiplicities
    position = {v: i for i, v in enumerate(order)}
    back = [
        [(u, m) for u, m in gadj[v].items() if position[u] < position[v]] for v in order
    ]
    image = [-1] * n
    used = [False] * n

    def candidates(i: int):
        """The images of order[i] that fit the placements of the levels before it."""
        near, sig = back[i], gsig[order[i]]
        pool = hadj[image[near[0][0]]] if near else cand[order[i]]
        for w in pool:
            adj = hadj[w]
            if (
                not used[w] and hsig[w] == sig
                and all(adj.get(image[u]) == m for u, m in near)
                and sum(used[x] for x in adj) == len(near)
            ):
                yield w

    if n == 0:
        yield []
        return
    tries = [candidates(0)]
    while tries:
        i = len(tries) - 1
        v = order[i]
        if image[v] >= 0:  # undo the placement this level tried last
            used[image[v]] = False
            image[v] = -1
        w = next(tries[i], None)
        if w is None:
            tries.pop()
            continue
        image[v] = w
        used[w] = True
        if i + 1 == n:
            yield list(image)
        else:
            tries.append(candidates(i + 1))


def find_isomorphism(g: Multigraph, h: Multigraph) -> list[int] | None:
    """A vertex bijection g->h preserving edge multiplicities, or None.

    The first one ``isomorphisms`` finds.
    """
    return next(isomorphisms(g, h), None)


def automorphisms(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g as a vertex permutation (perm[v] = image of v).

    The whole group is listed, so this is meant for graphs whose group is
    small, such as the cubic graphs within the cut-sweep cap.  Kept in g's
    memo, and found only when first asked for.
    """
    return _memoized(g, "automorphisms", lambda: tuple(map(tuple, isomorphisms(g, g))))


def is_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    """Is there a vertex bijection g->h preserving edge multiplicities?"""
    return find_isomorphism(g, h) is not None


# ---------------------------------------------------------------------------
# surgeries and traces


class SurgeryRecord(NamedTuple):
    """One replayable operation.

    vertex_map maps input vertex -> output vertex (None if removed);
    edge_map maps output edge -> input edge (None for newly created edges).
    """

    op: str  # contract | glue | triangle | split_off
    args: tuple
    vertex_map: tuple
    edge_map: tuple


class SurgeryTrace(NamedTuple):
    """A sequence of surgery records, optionally with expansion clusters.

    ``clusters`` names, for each expanded source vertex, the vertex set of
    the final graph that replaced it (used by expansion round trips).
    """

    records: tuple[SurgeryRecord, ...]
    clusters: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def replay(self, source: Multigraph) -> Multigraph:
        g = source
        for rec in self.records:
            g = _apply_record(g, rec)
        return g


def _apply_record(g: Multigraph, rec: SurgeryRecord) -> Multigraph:
    if rec.op == "contract":
        return contract_record(g, frozenset(rec.args[0]))[0]
    if rec.op == "glue":
        u, h, v, pairing = rec.args
        return glue_record(g, u, h, v, pairing)[0]
    if rec.op == "triangle":
        return triangle_record(g, rec.args[0])[0]
    if rec.op == "split_off":
        return split_off_record(g, rec.args)[0]
    raise ValueError(f"unknown surgery record op {rec.op!r}")


def contract_record(g: Multigraph, part) -> tuple[Multigraph, SurgeryRecord]:
    part = frozenset(part)
    if not part or not part <= set(range(g.vertex_count)):
        raise VertexIdOutOfRange("part must be a nonempty set of vertex ids")
    if len(components(g, part)) != 1:
        raise DisconnectedPart(f"part {sorted(part)} does not induce a connected subgraph")
    merged_slot = min(part)
    survivors = sorted(set(range(g.vertex_count)) - part | {merged_slot})
    new_id = {v: i for i, v in enumerate(survivors)}
    vmap = tuple(
        new_id[merged_slot] if v in part else new_id[v] for v in range(g.vertex_count)
    )
    edges = []
    emap = []
    for eid, (u, v) in enumerate(g.edges):
        mu, mv = vmap[u], vmap[v]
        if mu == mv:
            continue  # arising loop: dropped
        edges.append((mu, mv))
        emap.append(eid)
    out = Multigraph(len(survivors), tuple(edges))
    rec = SurgeryRecord("contract", (tuple(sorted(part)),), vmap, tuple(emap))
    return out, rec


def contract(g: Multigraph, part) -> tuple[Multigraph, SurgeryTrace]:
    """Contract a connected vertex set to one vertex, dropping arising loops.

    Parallel edges to the outside survive with traceable ids; the merged
    vertex takes the slot of the smallest id in ``part``.
    """
    out, rec = contract_record(g, part)
    return out, SurgeryTrace((rec,))


def glue_record(
    g: Multigraph,
    u: int,
    h: Multigraph,
    v: int,
    pairing: Sequence[tuple[int, int]],
) -> tuple[Multigraph, SurgeryRecord]:
    if not (g.is_cubic and h.is_cubic):
        raise DegreeMismatch("gluing requires two cubic graphs")
    pairing = tuple((int(a), int(b)) for a, b in pairing)
    if sorted(a for a, _ in pairing) != sorted(g.incident(u)):
        raise DegreeMismatch("pairing does not cover the edges at u exactly once")
    if sorted(b for _, b in pairing) != sorted(h.incident(v)):
        raise DegreeMismatch("pairing does not cover the edges at v exactly once")

    def g_new(x):
        return x - (1 if x > u else 0)

    off = g.vertex_count - 1

    def h_new(x):
        return off + x - (1 if x > v else 0)

    edges = []
    emap: list[int | None] = []
    for eid, (a, b) in enumerate(g.edges):
        if u in (a, b):
            continue
        edges.append((g_new(a), g_new(b)))
        emap.append(eid)
    for eid, (a, b) in enumerate(h.edges):
        if v in (a, b):
            continue
        edges.append((h_new(a), h_new(b)))
        emap.append(None)
    # fused edges, ordered by the g-side edge id; each inherits its g-side id
    for eg, eh in sorted(pairing):
        a = g.other_end(eg, u)
        b = h.other_end(eh, v)
        edges.append((g_new(a), h_new(b)))
        emap.append(eg)
    vmap = tuple(
        None if x == u else g_new(x) for x in range(g.vertex_count)
    )
    out = Multigraph(g.vertex_count + h.vertex_count - 2, tuple(edges))
    rec = SurgeryRecord("glue", (u, h, v, pairing), vmap, tuple(emap))
    return out, rec


def glue(
    g: Multigraph, u: int, h: Multigraph, v: int, pairing: Sequence[tuple[int, int]]
) -> Multigraph:
    """Fuse two cubic graphs through u and v along a pairing of their edges.

    Each pair (e, f) becomes one edge joining the far endpoints of e and f.
    ``h`` is always treated as a disjoint copy, so no loops can arise even
    when the same graph object is passed twice.
    """
    return glue_record(g, u, h, v, pairing)[0]


def triangle_record(g: Multigraph, v: int) -> tuple[Multigraph, SurgeryRecord]:
    if g.degree(v) != 3:
        raise DegreeMismatch(f"vertex {v} has degree {g.degree(v)}, need 3")
    n = g.vertex_count
    slots = (v, n, n + 1)  # v keeps its slot; two triangle vertices appended
    attach = {eid: slots[i] for i, eid in enumerate(g.incident(v))}
    edges = []
    emap: list[int | None] = []
    for eid, (a, b) in enumerate(g.edges):
        if eid in attach:
            t = attach[eid]
            w = g.other_end(eid, v)
            edges.append((t, w))
        else:
            edges.append((a, b))
        emap.append(eid)
    for pair in ((slots[0], slots[1]), (slots[1], slots[2]), (slots[0], slots[2])):
        edges.append(pair)
        emap.append(None)
    out = Multigraph(n + 2, tuple(edges))
    rec = SurgeryRecord("triangle", (v,), tuple(range(n)), tuple(emap))
    return out, rec


def replace_vertex_with_triangle(g: Multigraph, v: int) -> Multigraph:
    """Replace a degree-3 vertex by a triangle, one former edge per corner."""
    return triangle_record(g, v)[0]


def split_off_ends(g: Multigraph, path) -> tuple[int, int]:
    """The third neighbours w1 of v2 and w4 of v3, which splitting off the path joins.

    Raises exactly where ``split_off`` rejects the path.
    """
    v1, v2, v3, v4 = path
    if len({v1, v2, v3, v4}) != 4:
        raise NotAPath(f"path vertices must be distinct, got {path}")
    if not g.is_cubic:
        raise DegreeMismatch("splitting off is defined on cubic graphs")

    def edge_between(a, b):
        for e in g.incident(a):
            if g.other_end(e, a) == b:
                return e
        raise NotAPath(f"no edge between {a} and {b}")

    e12 = edge_between(v1, v2)
    e23 = edge_between(v2, v3)
    e34 = edge_between(v3, v4)
    (third2,) = set(g.incident(v2)) - {e12, e23}
    (third3,) = set(g.incident(v3)) - {e23, e34}
    w1 = g.other_end(third2, v2)
    w4 = g.other_end(third3, v3)
    if w1 in (v1, v2, v3, v4) or w4 in (v1, v2, v3, v4):
        raise NeighborClash(
            f"third neighbors {w1},{w4} collide with the path {path}"
        )
    if w1 == w4:
        raise NeighborClash(f"third neighbors coincide at {w1}; new edge would be a loop")
    return w1, w4


def split_off_record(g: Multigraph, path) -> tuple[Multigraph, SurgeryRecord]:
    v1, v2, v3, v4 = path
    w1, w4 = split_off_ends(g, path)
    removed = {v2, v3}
    survivors = [x for x in range(g.vertex_count) if x not in removed]
    new_id = {x: i for i, x in enumerate(survivors)}
    edges = []
    emap: list[int | None] = []
    for eid, (a, b) in enumerate(g.edges):
        if a in removed or b in removed:
            continue
        edges.append((new_id[a], new_id[b]))
        emap.append(eid)
    edges.append((new_id[v1], new_id[v4]))
    emap.append(None)
    edges.append((new_id[w1], new_id[w4]))
    emap.append(None)
    vmap = tuple(None if x in removed else new_id[x] for x in range(g.vertex_count))
    out = Multigraph(g.vertex_count - 2, tuple(edges))
    rec = SurgeryRecord("split_off", (v1, v2, v3, v4), vmap, tuple(emap))
    return out, rec


def split_off(g: Multigraph, path) -> Multigraph:
    """Split off a 3-edge path: drop its interior, rejoin the loose ends.

    The last two edges of the result are the new edges v1v4 and v1'v4'.
    """
    return split_off_record(g, tuple(path))[0]


def b_expand(
    g: Multigraph,
    assignment: Mapping[int, Multigraph],
    b: int | None = None,
) -> tuple[Multigraph, SurgeryTrace]:
    """Glue a cubic attachment graph into each assigned vertex of g.

    ``assignment`` maps vertex ids of g to the cubic graphs to glue in
    (gluing happens through vertex 0 of each attachment, edges paired in id
    order).  With attachments of at most b+1 vertices the result has at most
    b times as many vertices as g.  The trace's clusters name the vertex
    sets of the result that contract back onto the expanded vertices.
    """
    if not g.is_cubic:
        raise DegreeMismatch("expansion is defined on cubic graphs")
    if b is not None:
        for v, k in assignment.items():
            if k.vertex_count > b + 1:
                raise RecipeTooLarge(
                    f"attachment at {v} has {k.vertex_count} vertices, cap is {b + 1}"
                )
    records: list[SurgeryRecord] = []
    cur = g
    # positions of the original vertices and of earlier clusters, updated
    # through each glue's vertex map
    pos: dict[int, int | None] = {v: v for v in range(g.vertex_count)}
    clusters: dict[int, list[int]] = {}
    for v in sorted(assignment):
        k = assignment[v]
        at = pos[v]
        assert at is not None
        pairing = tuple(zip(cur.incident(at), k.incident(0)))
        cur2, rec = glue_record(cur, at, k, 0, pairing)
        # remap everything we are tracking, then record the new cluster
        for src, p in pos.items():
            pos[src] = None if p is None else rec.vertex_map[p]
        for src, ids in clusters.items():
            clusters[src] = [rec.vertex_map[p] for p in ids]
        first_new = cur.vertex_count - 1
        clusters[v] = list(range(first_new, first_new + k.vertex_count - 1))
        records.append(rec)
        cur = cur2
    trace = SurgeryTrace(
        tuple(records),
        tuple((v, tuple(ids)) for v, ids in sorted(clusters.items())),
    )
    return cur, trace
