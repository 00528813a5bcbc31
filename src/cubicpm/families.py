"""Generators and recognizers for the graph families under study.

Named small graphs, 2xk grid ladders, Klee graphs (iterated triangle
replacement of K4), twisted nets (4-cycles closed under incrementation and
multiplication), semiblock decompositions, and a seeded pairing-model
sampler for cubic bridgeless multigraphs.
"""

from __future__ import annotations

import random
from operator import eq
from typing import NamedTuple, Union

from .connectivity import _capped_sweep, _low_link, _minimal_sides, bridges, mask_side
from .errors import (
    BadDegrees,
    BadSize,
    Bridged,
    GenerationFailed,
    TooLarge,
    UnknownName,
    UnreachableParity,
)
from .matchings import is_bipartite
from .multigraph import (
    Multigraph,
    components,
    contract,
    from_edge_list,
    replace_vertex_with_triangle,
)

NAMED = (
    "theta",
    "k4",
    "k33",
    "prism",
    "cube",
    "petersen",
    "moebius_kantor",
    "dodecahedron",
    "exceptional6",
)


def _lcf(n: int, shifts: list[int]) -> Multigraph:
    pairs = [(i, (i + 1) % n) for i in range(n)]
    seen = {tuple(sorted(p)) for p in pairs}
    for i in range(n):
        s = shifts[i % len(shifts)]
        p = tuple(sorted((i, (i + s) % n)))
        if p not in seen:
            seen.add(p)
            pairs.append(p)
    return from_edge_list(n, pairs)


def named(name: str) -> Multigraph:
    """A fixed labeled instance of one of the catalog graphs."""
    if name == "theta":
        return from_edge_list(2, [(0, 1), (0, 1), (0, 1)])
    if name == "k4":
        return from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    if name == "k33":
        return from_edge_list(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    if name == "prism":
        return from_edge_list(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
        )
    if name == "cube":
        return from_edge_list(
            8, sorted((i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < (i ^ b))
        )
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return from_edge_list(10, outer + spokes + inner)
    if name == "moebius_kantor":
        return _lcf(16, [5, -5])
    if name == "dodecahedron":
        return _lcf(20, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4])
    if name == "exceptional6":
        # four corners v1..v4 = 0..3, two inner vertices a=4, b=5
        edges = [(0, 1), (1, 4), (2, 4), (3, 4), (0, 5), (2, 5), (3, 5)]
        return Multigraph(6, tuple(edges))
    raise UnknownName(f"no catalog graph called {name!r}")


def corners(g: Multigraph) -> tuple[int, ...]:
    """Degree-2 vertices in id order (graph must be sub-cubic of degrees 2/3)."""
    if any(d not in (2, 3) for d in g.degrees):
        raise BadDegrees(f"degrees must be 2 or 3, got {sorted(set(g.degrees))}")
    return tuple(v for v in range(g.vertex_count) if g.degree(v) == 2)


# ---------------------------------------------------------------------------
# ladders


def ladder(k: int) -> Multigraph:
    """The 2 x k grid; rungs get edge ids 0..k-1, so the ends are ids 0 and k-1."""
    if k < 1:
        raise BadSize("ladder height must be at least 1")
    pairs = [(2 * i, 2 * i + 1) for i in range(k)]
    for i in range(k - 1):
        pairs.append((2 * i, 2 * i + 2))
        pairs.append((2 * i + 1, 2 * i + 3))
    return from_edge_list(2 * k, pairs)


def recognize_ladder(g: Multigraph) -> tuple[int, int] | None:
    """End-edge ids if g is a 2 x k grid, else None."""
    n, m = g.vertex_count, g.edge_count
    if n == 2 and m == 1:
        return (0, 0)
    if n % 2 or m != 3 * (n // 2) - 2 or len(set(g.edges)) != m:
        return None

    def attempt(start: int) -> tuple[int, int] | None:
        a, b = g.endpoints(start)
        if g.degree(a) != 2 or g.degree(b) != 2:
            return None
        used = {a, b}
        rung = start
        while True:
            nxt_a = [w for w in g.neighbors(a) if w not in used]
            nxt_b = [w for w in g.neighbors(b) if w not in used]
            if not nxt_a and not nxt_b:
                return (start, rung) if len(used) == n else None
            if len(nxt_a) != 1 or len(nxt_b) != 1 or nxt_a[0] == nxt_b[0]:
                return None
            a, b = nxt_a[0], nxt_b[0]
            rung = next(
                (e for e in g.incident(a) if g.other_end(e, a) == b), None
            )
            if rung is None:
                return None
            used.update((a, b))

    for start in range(m):
        res = attempt(start)
        if res is not None:
            return res
    return None


# ---------------------------------------------------------------------------
# Klee graphs


class KleeRecipe(NamedTuple):
    """Vertices to replace by triangles, in order, starting from K4."""

    steps: tuple[int, ...] = ()


def klee(recipe: KleeRecipe) -> Multigraph:
    g = named("k4")
    for v in recipe.steps:
        g = replace_vertex_with_triangle(g, v)
    return g


def random_klee(seed: int, target_n: int) -> Multigraph:
    if target_n < 4 or target_n % 2:
        raise BadSize("a Klee graph has an even vertex count of at least 4")
    rng = random.Random(seed)
    steps = []
    n = 4
    while n < target_n:
        steps.append(rng.randrange(n))
        n += 2
    return klee(KleeRecipe(tuple(steps)))


def _contractible_triangles(g: Multigraph):
    """Triangles whose three vertices each have exactly one outside edge."""
    for a in range(g.vertex_count):
        for b in g.neighbors(a):
            if b <= a:
                continue
            for c in g.neighbors(b):
                if c <= b or c == a:
                    continue
                if (
                    a in g.neighbors(c)
                    and g.multiplicity(a, b) == 1
                    and g.multiplicity(b, c) == 1
                    and g.multiplicity(a, c) == 1
                ):
                    yield (a, b, c)


K4_EDGES = tuple(sorted([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
KLEE_CAP = 16


def is_klee(g: Multigraph) -> bool:
    """Recognize Klee graphs by backtracking triangle contraction.

    Greedy contraction can strand itself, so every contractible triangle is
    tried, with memoization on the labeled edge multiset.  Exhaustive for
    n <= 16.
    """
    if g.vertex_count > KLEE_CAP:
        raise TooLarge(f"recognizer capped at {KLEE_CAP} vertices")
    if not g.is_cubic or g.vertex_count % 2 or g.vertex_count < 4:
        return False

    seen: set[tuple] = set()

    def search(h: Multigraph) -> bool:
        if h.vertex_count == 4:
            return tuple(sorted(h.edges)) == K4_EDGES
        key = (h.vertex_count, tuple(sorted(h.edges)))
        if key in seen:
            return False
        for tri in _contractible_triangles(h):
            h2, _ = contract(h, frozenset(tri))
            if h2.is_cubic and search(h2):
                return True
        seen.add(key)
        return False

    return search(g)


# ---------------------------------------------------------------------------
# twisted nets


class Increment(NamedTuple):
    """Attach a 3-edge path between corners u and v of the current net."""

    u: int
    v: int


class Multiply(NamedTuple):
    """Join the current net and another by two corner-to-corner edges."""

    other: "TwistedNetRecipe"
    u: int
    u2: int
    v: int
    v2: int


Step = Union[Increment, Multiply]


class TwistedNetRecipe(NamedTuple):
    """Build trace: a 4-cycle followed by incrementations/multiplications."""

    steps: tuple[Step, ...] = ()

    def to_json(self):
        out = []
        for s in self.steps:
            if isinstance(s, Increment):
                out.append({"op": "increment", "u": s.u, "v": s.v})
            else:
                out.append(
                    {
                        "op": "multiply",
                        "other": s.other.to_json(),
                        "u": s.u,
                        "u2": s.u2,
                        "v": s.v,
                        "v2": s.v2,
                    }
                )
        return out

    @staticmethod
    def from_json(data) -> "TwistedNetRecipe":
        steps: list[Step] = []
        for d in data:
            if d["op"] == "increment":
                steps.append(Increment(d["u"], d["v"]))
            else:
                steps.append(
                    Multiply(
                        TwistedNetRecipe.from_json(d["other"]),
                        d["u"],
                        d["u2"],
                        d["v"],
                        d["v2"],
                    )
                )
        return TwistedNetRecipe(tuple(steps))


class _Net(NamedTuple):
    """A twisted net without its graph: size, endpoint pairs, corners in id order."""

    size: int
    edges: tuple[tuple[int, int], ...]
    corners: tuple[int, ...]


_BASE = _Net(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (0, 1, 2, 3))


def _apply(net: _Net, step: Step, other: _Net | None = None) -> _Net:
    """The net after one step; ``other`` is the net of a Multiply's ``step.other``.

    Every vertex of a net has degree 2 or 3, so "degree 2" is "a corner",
    and the step's new corners follow from its rule: an increment turns u
    and v into inner vertices and adds the corners n and n + 1, a multiply
    turns u, u2 and the offset v, v2 into inner vertices and keeps the other
    net's remaining corners, offset.
    """
    if isinstance(step, Increment):
        u, v, n = step.u, step.v, net.size
        if u == v or u not in net.corners or v not in net.corners:
            raise BadDegrees(f"increment needs two distinct corners, got {step}")
        return _Net(
            n + 2,
            net.edges + ((u, n), (n, n + 1), (n + 1, v)),
            tuple(c for c in net.corners if c not in (u, v)) + (n, n + 1),
        )
    assert other is not None
    if step.u == step.u2 or step.u not in net.corners or step.u2 not in net.corners:
        raise BadDegrees(f"multiply needs two distinct corners of g, got {step}")
    if step.v == step.v2 or step.v not in other.corners or step.v2 not in other.corners:
        raise BadDegrees(f"multiply needs two distinct corners of h, got {step}")
    off = net.size
    edges = net.edges + tuple((a + off, b + off) for a, b in other.edges)
    edges += ((step.u, step.v + off), (step.u2, step.v2 + off))
    return _Net(
        off + other.size,
        edges,
        tuple(c for c in net.corners if c not in (step.u, step.u2))
        + tuple(c + off for c in other.corners if c not in (step.v, step.v2)),
    )


def _replay(recipe: TwistedNetRecipe) -> _Net:
    net = _BASE
    for step in recipe.steps:
        net = _apply(net, step, _replay(step.other) if isinstance(step, Multiply) else None)
    return net


def _graph(net: _Net) -> Multigraph:
    g = Multigraph(net.size, net.edges)
    assert corners(g) == net.corners and len(net.corners) == 4, (
        "a twisted net must have exactly four corners"
    )
    return g


def twisted_net(recipe: TwistedNetRecipe) -> Multigraph:
    """Replay a recipe; the result always has exactly four corners."""
    return _graph(_replay(recipe))


def _random_net(rng: random.Random, target_n: int) -> tuple[TwistedNetRecipe, _Net]:
    """A random recipe of the given size and its net, each step applied once."""
    if target_n == 4:
        return TwistedNetRecipe(), _BASE
    if target_n >= 8 and rng.random() < 0.35:
        n1 = rng.choice(range(4, target_n - 3, 2))
        left, gl = _random_net(rng, n1)
        right, gr = _random_net(rng, target_n - n1)
        u, u2 = rng.sample(gl.corners, 2)
        v, v2 = rng.sample(gr.corners, 2)
        step: Step = Multiply(right, u, u2, v, v2)
        return TwistedNetRecipe(left.steps + (step,)), _apply(gl, step, gr)
    base, gb = _random_net(rng, target_n - 2)
    step = Increment(*rng.sample(gb.corners, 2))
    return TwistedNetRecipe(base.steps + (step,)), _apply(gb, step)


def random_twisted_net(
    seed: int, target_n: int, want_bipartite: bool | None = None
) -> tuple[Multigraph, TwistedNetRecipe]:
    """A seeded random twisted net of the exact requested size.

    Bipartiteness steering retries with a bounded budget; only the 4-cycle
    exists at size 4, so a non-bipartite request there is unreachable.
    """
    if target_n < 4 or target_n % 2:
        raise BadSize("twisted nets have even size >= 4")
    if target_n == 4 and want_bipartite is False:
        raise UnreachableParity("the only 4-vertex twisted net is the 4-cycle")
    rng = random.Random(seed)
    for _ in range(400):
        recipe, net = _random_net(rng, target_n)
        g = _graph(net)
        if want_bipartite is None or is_bipartite(g) == want_bipartite:
            return g, recipe
    raise GenerationFailed(
        f"no twisted net with bipartite={want_bipartite} at n={target_n} in budget"
    )


TWISTED_CAP = 16


def recognize_twisted_net(g: Multigraph) -> TwistedNetRecipe | None:
    """Search for a recipe whose replay is isomorphic to g (n <= 16).

    Works by undoing the last construction step: either peel an adjacent
    pair of corners (incrementation) or split along a 2-edge separation into
    two smaller nets (multiplication).  The recipe is rebuilt with an
    explicit vertex correspondence, so no isomorphism testing is needed.
    """
    if g.vertex_count > TWISTED_CAP:
        raise TooLarge(f"recognizer capped at {TWISTED_CAP} vertices")
    if g.vertex_count < 4 or g.vertex_count % 2:
        return None
    if any(d not in (2, 3) for d in g.degrees):
        return None

    adj: dict[int, list[tuple[int, int]]] = {
        v: [(e, g.other_end(e, v)) for e in g.incident(v)]
        for v in range(g.vertex_count)
    }
    memo: dict[frozenset[int], tuple | None] = {}

    def deg_in(v: int, s: frozenset[int]) -> int:
        return sum(1 for _, w in adj[v] if w in s)

    def solve(s: frozenset[int]):
        """Recipe plus map (recipe-graph vertex -> g vertex) for g[s], or None."""
        if s in memo:
            return memo[s]
        res = _solve(s)
        memo[s] = res
        return res

    def _solve(s: frozenset[int]):
        inside = {
            v: [w for _, w in adj[v] if w in s] for v in s
        }
        if any(len(ws) != len(set(ws)) for ws in inside.values()):
            return None  # parallel edges never occur in a twisted net
        if len(s) == 4:
            if all(len(inside[v]) == 2 for v in s):
                start = min(s)
                a = min(inside[start])
                cyc = [start, a]
                while len(cyc) < 4:
                    nxt = [w for w in inside[cyc[-1]] if w != cyc[-2]]
                    if not nxt:
                        return None
                    cyc.append(nxt[0])
                if cyc[0] in inside[cyc[-1]] and len(set(cyc)) == 4:
                    return TwistedNetRecipe(), {i: v for i, v in enumerate(cyc)}
            return None
        # undo an incrementation: adjacent corner pair x,y with outside anchors
        for x in sorted(s):
            if deg_in(x, s) != 2:
                continue
            for y in inside[x]:
                if y <= x or deg_in(y, s) != 2:
                    continue
                u = next(w for w in inside[x] if w != y)
                v = next(w for w in inside[y] if w != x)
                if u == v or deg_in(u, s) != 3 or deg_in(v, s) != 3:
                    continue
                sub = solve(s - {x, y})
                if sub is None:
                    continue
                recipe, vmap = sub
                inv = {gv: rv for rv, gv in vmap.items()}
                k = len(s) - 2
                new = TwistedNetRecipe(recipe.steps + (Increment(inv[u], inv[v]),))
                vmap2 = dict(vmap)
                vmap2[k] = x
                vmap2[k + 1] = y
                return new, vmap2
        # undo a multiplication: remove two edges, need two parts of size >= 4
        eids = sorted({e for v in s for e, w in adj[v] if w in s})
        for i, e1 in enumerate(eids):
            for e2 in eids[i + 1 :]:
                parts = components(g, s, frozenset((e1, e2)))
                if len(parts) != 2:
                    continue
                s1, s2 = parts
                if len(s1) < 4 or len(s2) < 4:
                    continue
                a1, b1 = g.endpoints(e1)
                a2, b2 = g.endpoints(e2)
                if a1 not in s1:
                    a1, b1 = b1, a1
                if a2 not in s1:
                    a2, b2 = b2, a2
                if b1 in s1 or b2 in s1:  # both removed edges must cross
                    continue
                if a1 == a2 or b1 == b2:
                    continue
                if deg_in(a1, s) != 3 or deg_in(a2, s) != 3:
                    continue
                if deg_in(b1, s) != 3 or deg_in(b2, s) != 3:
                    continue
                left = solve(s1)
                if left is None:
                    continue
                right = solve(s2)
                if right is None:
                    continue
                r1, m1 = left
                r2, m2 = right
                inv1 = {gv: rv for rv, gv in m1.items()}
                inv2 = {gv: rv for rv, gv in m2.items()}
                step = Multiply(r2, inv1[a1], inv1[a2], inv2[b1], inv2[b2])
                off = len(s1)
                vmap2 = dict(m1)
                for rv, gv in m2.items():
                    vmap2[rv + off] = gv
                return TwistedNetRecipe(r1.steps + (step,)), vmap2
        return None

    res = solve(frozenset(range(g.vertex_count)))
    return None if res is None else res[0]


# ---------------------------------------------------------------------------
# semiblocks


def semiblocks(g: Multigraph) -> tuple[tuple[frozenset[int], ...], int]:
    """Inclusion-minimal 2-edge-cut sides and their number s(G).

    A graph without 2-edge-cuts is its own single semiblock.  The sides are
    pairwise disjoint, which is asserted.  The 2-edge cuts are read from the
    masks of g's memoized sweep, refused above ``CUT_CAP`` vertices; the
    minimal sides are found and ordered by their lowest vertex as masks,
    and decoded on return.  No ``EdgeCut`` is built.
    """
    if not g.is_cubic:
        raise BadDegrees("semiblocks are defined for cubic graphs")
    if bridges(g):
        raise Bridged("graph has a bridge")
    sweep = _capped_sweep(g, 2)
    two = [mask for mask, size in zip(sweep.masks, sweep.sizes) if size == 2]
    minimal = sorted(_minimal_sides(g.vertex_count, two), key=lambda s: s & -s)  # by lowest vertex
    if not minimal:
        return (frozenset(range(g.vertex_count)),), 1
    for i, a in enumerate(minimal):
        for b in minimal[i + 1 :]:
            assert not (a & b), "semiblocks must be vertex disjoint"
    return tuple(map(mask_side, minimal)), len(minimal)


# ---------------------------------------------------------------------------
# random cubic bridgeless multigraphs


PAIRING_TRIES = 100_000  # pairings drawn before random_cubic_bridgeless gives up


def random_cubic_bridgeless(seed: int, n: int) -> Multigraph:
    """Pairing-model sample conditioned on loopless, connected, bridgeless.

    Parallel edges are kept (the model allows them).  Deterministic for a
    fixed seed.  Each pairing is tested on its list of endpoint pairs by the
    low-link search that ``bridges`` runs (``connectivity._low_link``): it
    is accepted with one connected part and no bridge.  A graph is built
    only for the one accepted, so no table the test needs is cached on the
    graph returned.
    """
    if n < 4 or n % 2:
        raise BadSize("need an even number of vertices, at least 4")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(PAIRING_TRIES):
        rng.shuffle(stubs)
        ends = stubs[::2], stubs[1::2]
        if any(map(eq, *ends)):  # a loop
            continue
        pairs = list(zip(*ends))
        parts, cut = _low_link(n, pairs)
        if parts == 1 and not cut:
            return from_edge_list(n, pairs)
    raise GenerationFailed(f"no admissible pairing after {PAIRING_TRIES} tries")
