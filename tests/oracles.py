"""Independent oracles for the test suite.

These deliberately avoid the package's counting engine: brute-force subset
enumeration, permanent by expansion over minors, and a direct exhaustive
generator for small cubic multigraphs.  The label-order matching recursions
are the routes that the frontier-ordered DP of ``matchings`` replaced, and
the one-count-per-slot loops are those that ``matchings.pair_counts``
replaced.  The bipartition sweeps below are the full per-edge and
per-matching loops that the pruned sweep ``connectivity.cut_sums_at_most``
replaced, and the union-find cycle test per mask (``side_has_cycle``) that
the one cyclicity classifier of ``connectivity`` replaced; ``slow_decompose``
sweeps every node of a decomposition where ``decompose`` sweeps only the
root (given "lex_max", it splits along the greatest tight cut where
``decompose`` takes the least), and ``slow_k_almost_search`` contracts and
sweeps every graph of the k-almost search where ``is_k_almost_cyclically_4ec``
builds no graph and reads only the root's sweep; ``minimal_cyclic3_sides``
serves it.  ``slow_is_3ec`` runs a bridge search on G and on every G - e,
where the verifier reads 3-edge-connectivity from the graph's sweep, and
``slow_opposite_sides`` lists the cyclic 4-cuts for every LM_TWISTED_STRUC
slot, where the verifier reads the cut-side slots that LM_SPLIT4A shares, and
``slow_cut_slots`` builds the slots of the cut-sweeping generators from
``EdgeCut`` lists, where the verifier reads its sweep's masks; so do
``slow_4cut_chain`` for ``ordered_4cut_chain``, ``slow_is_solid_side``
for the verifier's solid-side test and ``slow_violating_side`` for
LM_SPLITOFF's.  ``slow_params_dicts`` builds the params dicts of the slot
generators, where the verifier builds slot tuples that a report renders as
those dicts on read.  The
twisted-net generator replays its recipe into a new graph at every step, where
``families`` applies each step once to a net without its graph.
``slow_random_cubic_bridgeless`` builds a probe graph for every pairing it
tests, where ``families`` tests the list of endpoint pairs with one lowpoint
search, and ``slow_semiblocks`` takes the 2-edge cuts from ``EdgeCut``
lists, where ``families.semiblocks`` decodes only the sides of the sweep's
size-2 masks.
``slow_neighbors`` collects and sorts a vertex's neighbours on every call,
where ``Multigraph.neighbors`` reads one table per graph, and
``slow_frontier_order`` recounts every greedy cost from it at each step,
where ``Multigraph.frontier_order`` keeps the costs and decrements them.
``brute_automorphisms`` tests every vertex permutation, where
``multigraph.automorphisms`` backtracks through neighbours; given
``identity_group``, the verifier shares a result only between slots with
one key (edge pairs with the same ends, paths with one split signature),
where it shares results across an orbit of Aut(g).  ``slow_check_lm_bb_3ef``
tests G - e for coverage and tries every companion edge, where the verifier
reads the stuck edges of G - e from ``matchings.pair_counts``.  They exist so
every exact value the tests assert was computed by a second route.
"""

from __future__ import annotations

from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations
from math import lcm
from operator import add

from cubicpm import Multigraph
from cubicpm.matchings import EMPTY_QUERY, CountQuery
from cubicpm.multigraph import components, contract


def brute_pm_count(g: Multigraph) -> int:
    """Count perfect matchings by sweeping all n/2-subsets of edge ids."""
    n, m = g.vertex_count, g.edge_count
    if n % 2:
        return 0
    k = n // 2
    total = 0
    for combo in combinations(range(m), k):
        seen = set()
        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == n:
            total += 1
    return total


def brute_matchings_missing(g: Multigraph, missed: set[int]) -> int:
    """Matchings covering exactly V minus ``missed``, by subset sweep."""
    cover = [v for v in range(g.vertex_count) if v not in missed]
    if len(cover) % 2:
        return 0
    k = len(cover) // 2
    total = 0
    for combo in combinations(range(g.edge_count), k):
        seen = set()
        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            if u in missed or v in missed or u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == len(cover):
            total += 1
    return total


def permanent(matrix: list[list[int]]) -> int:
    """Permanent by expansion over minors (memo on the free-column mask)."""
    n = len(matrix)
    if n == 0:
        return 1
    assert all(len(row) == n for row in matrix)
    memo: dict[tuple[int, int], int] = {}

    def rec(row: int, colmask: int) -> int:
        if row == n:
            return 1
        key = (row, colmask)
        if key in memo:
            return memo[key]
        total = 0
        for j in range(n):
            bit = 1 << j
            if colmask & bit or not matrix[row][j]:
                continue
            total += matrix[row][j] * rec(row + 1, colmask | bit)
        memo[key] = total
        return total

    return rec(0, 0)


def _label_order_start(g: Multigraph, q: CountQuery):
    """Covered-vertex mask and per-vertex (edge, other end) moves, or None.

    None when two required edges collide.
    """
    mask = 0
    for v in q.missed_vertices:
        mask |= 1 << v
    for e in q.required:
        u, v = g.endpoints(e)
        if mask & ((1 << u) | (1 << v)):
            return None
        mask |= (1 << u) | (1 << v)
    inc = [
        tuple((e, g.other_end(e, v)) for e in g.incident(v) if e not in q.forbidden)
        for v in range(g.vertex_count)
    ]
    return mask, inc


def slow_count_matchings(g: Multigraph, q: CountQuery = EMPTY_QUERY) -> int:
    """Matchings of a query, branching on the lowest uncovered vertex label.

    The memo is keyed by the covered-vertex bitmask, so the number of states
    follows the labelling; practical up to about 30 vertices.
    """
    start = _label_order_start(g, q)
    if start is None:
        return 0
    mask0, inc = start
    full = (1 << g.vertex_count) - 1
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == full:
            return 1
        if mask in memo:
            return memo[mask]
        free = ~mask & full
        v = (free & -free).bit_length() - 1
        total = 0
        for _, w in inc[v]:
            if not mask & (1 << w):
                total += rec(mask | (1 << v) | (1 << w))
        memo[mask] = total
        return total

    return rec(mask0)


def slow_enumerate_matchings(
    g: Multigraph, q: CountQuery = EMPTY_QUERY
) -> list[tuple[int, ...]]:
    """Sorted edge-id tuples of the query's matchings, by the same recursion."""
    start = _label_order_start(g, q)
    if start is None:
        return []
    mask0, inc = start
    full = (1 << g.vertex_count) - 1
    out: list[tuple[int, ...]] = []
    chosen = sorted(q.required)

    def rec(mask: int) -> None:
        if mask == full:
            out.append(tuple(sorted(chosen)))
            return
        free = ~mask & full
        v = (free & -free).bit_length() - 1
        for e, w in inc[v]:
            if not mask & (1 << w):
                chosen.append(e)
                rec(mask | (1 << v) | (1 << w))
                chosen.pop()

    rec(mask0)
    return sorted(out)


def all_cubic_multigraphs(n: int):
    """Every labeled loopless cubic multigraph on n vertices, exactly once.

    This is the support of the pairing model collapsed by stub symmetry:
    edges are produced as a lexicographically sorted multiset.
    """
    residual = [3] * n
    edges: list[tuple[int, int]] = []

    def rec(min_edge: tuple[int, int]):
        u = next((v for v in range(n) if residual[v] > 0), None)
        if u is None:
            yield tuple(edges)
            return
        lo = min_edge[1] if min_edge[0] == u else u + 1
        for v in range(max(lo, u + 1), n):
            if residual[v] == 0:
                continue
            residual[u] -= 1
            residual[v] -= 1
            edges.append((u, v))
            yield from rec((u, v))
            edges.pop()
            residual[u] += 1
            residual[v] += 1

    yield from rec((0, 0))


def slow_crossing_counts(g: Multigraph, weights=None) -> list[int]:
    """Crossing sizes (or weights) for every bipartition with vertex 0 on side A.

    Index = bitmask over vertices 1..n-1 naming the rest of side A.  Vertices
    join in label order and the list doubles with each: the copy with v on
    side B adds v's edges to earlier vertices on side A, the copy with v on
    side A its edges to earlier vertices on side B.  The side of each earlier
    vertex over all masks is one periodic list per edge.  No mask is dropped,
    and ``weights`` (one int per edge id, unit if None) are summed as exact
    Python ints.
    """
    n = g.vertex_count
    if not n:
        return []
    weights = [1] * g.edge_count if weights is None else weights
    back: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (earlier end, weight)
    for (u, v), w in zip(g.edges, weights):
        back[v].append((u, w))  # edges are stored with u < v
    counts = [0]
    for v in range(1, n):
        half = len(counts)
        to_a = [sum(w for u, w in back[v] if u == 0)] * half  # vertex 0 is always on side A
        for u, w in back[v]:
            if u:
                period = [0] * (1 << (u - 1)) + [w] * (1 << (u - 1))
                to_a = list(map(add, to_a, period * (half >> u)))
        total = sum(w for _, w in back[v])
        counts = list(map(add, counts, to_a)) + [c + total - t for c, t in zip(counts, to_a)]
    return counts


def _slow_selected_sides(g: Multigraph, masks) -> list[frozenset[int]]:
    """Side A of every given mask of ``slow_crossing_counts``, side B never empty."""
    n = g.vertex_count
    out = []
    for mask in masks:
        side = frozenset([0] + [v for v in range(1, n) if (mask >> (v - 1)) & 1])
        if len(side) < n:
            out.append(side)
    return out


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


def _both_sides_cyclic(g: Multigraph, side: frozenset[int]) -> bool:
    return side_has_cycle(g, side) and side_has_cycle(g, frozenset(range(g.vertex_count)) - side)


def slow_enumerate_cuts(g: Multigraph, max_size: int) -> list:
    """Cuts of at most max_size edges, one per mask, each side tested by the union-find."""
    from cubicpm.connectivity import EdgeCut

    counts = slow_crossing_counts(g)
    selected = [mask for mask, c in enumerate(counts) if c <= max_size]
    out = []
    for side in _slow_selected_sides(g, selected):
        crossing = frozenset(e for e, (u, v) in enumerate(g.edges) if (u in side) != (v in side))
        out.append(EdgeCut(side, crossing, len(crossing), _both_sides_cyclic(g, side)))
    return out


def slow_cyclic_edge_connectivity(g: Multigraph) -> int | None:
    """The least crossing size whose masks hold a side pair with cycles on both sides."""
    by_count: dict[int, list[int]] = {}
    for mask, c in enumerate(slow_crossing_counts(g)):
        by_count.setdefault(c, []).append(mask)
    for c in sorted(by_count):
        if any(_both_sides_cyclic(g, side) for side in _slow_selected_sides(g, by_count[c])):
            return c
    return None


def slow_decompose(g: Multigraph, order: str = "lex_min"):
    """The tight-cut decomposition with a fresh ``tight_cuts`` sweep at every node.

    The recursion that ``decomposition.decompose`` replaced by handing each
    contraction the tight cuts of its parent.  Each node splits along its
    least tight cut ("lex_min", as ``decompose`` does) or its greatest
    ("lex_max"), by the sorted vertex sequence of side A, and keeps that
    side A (the one holding vertex 0) as its ``side_a``.
    """
    from cubicpm.decomposition import DecompositionNode, tight_cuts
    from cubicpm.matchings import is_bipartite

    cuts = tight_cuts(g)
    if not cuts:
        return DecompositionNode(g, kind="brace" if is_bipartite(g) else "brick")
    side_a = cuts[0] if order == "lex_min" else cuts[-1]
    ga, _ = contract(g, side_a)
    gb, _ = contract(g, frozenset(range(g.vertex_count)) - side_a)
    return DecompositionNode(
        g, side_a=side_a, child_a=slow_decompose(ga, order), child_b=slow_decompose(gb, order),
    )


def slow_check_lm_bb_3ef(inst, slot) -> dict:
    """LM_BB_3EF's check with its own coverage test of G - e and every edge tried.

    The route that reading stuck edges from ``matchings.pair_counts`` replaced:
    one matching pass tests whether G - e is matching-covered, then each
    other edge f, in id order, is a candidate companion until G - e - f
    decomposes.
    """
    from cubicpm import verifier as vf
    from cubicpm.matchings import is_matching_covered

    g, e = inst.graph, slot[0]
    if is_matching_covered(vf._delete_edges(g, {e})):
        return vf._skip("graph minus edge is matching-covered")
    bound = vf.Bound.rational(Fraction(g.vertex_count, 4) - 1)
    for f in range(g.edge_count):
        if f == e:
            continue
        b = vf._bricks(vf._delete_edges(g, {e, f}))
        if b is not None:
            return {**vf._judge(bound, b, direction="<="), "slot": (e, f)}
    return vf._fail(
        bound, g.edge_count, direction="<=",
        note="no companion edge makes the graph matching-covered",
    )


def slow_avoid_count(g: Multigraph, e: int) -> int:
    """Perfect matchings avoiding e, one count of its own."""
    return slow_count_matchings(g, CountQuery(forbidden=frozenset({e})))


def slow_contain_avoid(g: Multigraph, f: int, e: int) -> int:
    """Perfect matchings through f that avoid e, one count of their own."""
    return slow_count_matchings(g, CountQuery(required=frozenset({f}), forbidden=frozenset({e})))


def slow_worst_avoided_pair(g: Multigraph) -> tuple[int, tuple[int, int]]:
    """THM_EF's tightest pair: one count per pair of avoided edges, first in edge order."""
    return min(
        (slow_count_matchings(g, CountQuery(forbidden=frozenset(pair))), pair)
        for pair in combinations(range(g.edge_count), 2)
    )


def slow_tight_cuts(g: Multigraph) -> list[frozenset[int]]:
    """Sides A (holding vertex 0) of the nontrivial tight cuts, sorted.

    Sweeps the odd bipartitions against the list of perfect matchings.
    """
    from cubicpm.matchings import enumerate_matchings

    n = g.vertex_count
    pms = [
        [g.endpoints(e) for e in sorted(m.edge_ids)] for m in enumerate_matchings(g)
    ]
    out = []
    for mask in range(1 << (n - 1)):
        size_a = bin(mask).count("1") + 1
        size_b = n - size_a
        if size_a < 3 or size_b < 3 or size_a % 2 == 0:
            continue
        amask = (mask << 1) | 1  # vertex 0 always on side A
        tight = True
        for pm in pms:
            crossings = 0
            for u, v in pm:
                crossings += ((amask >> u) & 1) ^ ((amask >> v) & 1)
                if crossings > 1:
                    break
            if crossings != 1:
                tight = False
                break
        if tight:
            out.append(frozenset(v for v in range(n) if (amask >> v) & 1))
    out.sort(key=lambda side: tuple(sorted(side)))
    return out


def slow_odd_set_ok(g: Multigraph, w) -> bool:
    """Does every odd vertex set have a crossing weight of at least 1?"""
    weights = {e: Fraction(w[e]) for e in w}
    den = lcm(*[x.denominator for x in weights.values()])
    iw = [int(weights[e] * den) for e in range(g.edge_count)]
    ends = list(g.edges)
    for mask in range(1, 1 << g.vertex_count):
        if bin(mask).count("1") % 2 == 0:
            continue
        s = 0
        for eid, (u, v) in enumerate(ends):
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                s += iw[eid]
        if s < den:
            return False
    return True


def slow_is_3ec(g: Multigraph) -> bool:
    """3-edge-connectivity by bridges: connected, with no bridge in G or in any G - e.

    The route that the verifier's read of the graph's unit sweep replaced:
    one bridge search on G and one on each G - e.
    """
    from cubicpm.connectivity import bridges

    return (
        g.vertex_count >= 2
        and g.is_connected()
        and not bridges(g)
        and not any(
            bridges(Multigraph(g.vertex_count, g.edges[:e] + g.edges[e + 1 :]))
            for e in range(g.edge_count)
        )
    )


def slow_k_almost_c4ec(g: Multigraph, k: int) -> bool:
    """Reference for the k-almost reduction: try all cyclic-3-cut sides,
    minimal or not, in every order."""
    from cubicpm.connectivity import cyclic_cuts_up_to, cyclic_edge_connectivity

    if cyclic_edge_connectivity(g).at_least(4):
        return True
    if k < 2:
        return False
    allv = frozenset(range(g.vertex_count))
    sides = set()
    for cut in cyclic_cuts_up_to(g, 3):
        if cut.size == 3:
            sides.add(cut.side_a)
            sides.add(allv - cut.side_a)
    for s in sorted(sides, key=lambda s: (len(s), tuple(sorted(s)))):
        if len(s) - 1 > k or len(components(g, s)) != 1:
            continue
        h, _ = contract(g, s)
        if slow_k_almost_c4ec(h, k - (len(s) - 1)):
            return True
    return False


def slow_opposite_sides(g: Multigraph, e: int) -> list[frozenset[int]]:
    """The side of each cyclic 4-cut that holds neither end of e, in cut order.

    The per-slot loop of LM_TWISTED_STRUC that reading the cut-side slots
    replaced: it lists the cyclic 4-cuts for every slot and takes side A or
    its complement by where the ends of e lie, skipping a cut that e crosses.
    """
    from cubicpm.connectivity import cyclic_cuts_up_to

    a, b = g.endpoints(e)
    sides = []
    for cut in cyclic_cuts_up_to(g, 4):
        if cut.size != 4:
            continue
        if a in cut.side_a and b in cut.side_a:
            sides.append(frozenset(range(g.vertex_count)) - cut.side_a)
        elif a not in cut.side_a and b not in cut.side_a:
            sides.append(cut.side_a)
    return sides


def slow_4cut_chain(g: Multigraph, e: int) -> list:
    """The cyclic 4-cuts through e, sides holding e's first end, by side size.

    The loop of ``connectivity.ordered_4cut_chain`` that picking the cuts
    from the sweep's masks replaced: it lists every cyclic cut of at most 4
    edges as an ``EdgeCut`` and keeps those that e crosses.  The chain check
    is left out.
    """
    from cubicpm.connectivity import cyclic_cuts_up_to

    anchor = g.endpoints(e)[0]
    cuts = [
        cut if anchor in cut.side_a else cut.flipped(g)
        for cut in cyclic_cuts_up_to(g, 4)
        if cut.size == 4 and e in cut.crossing_edges
    ]
    return sorted(cuts, key=lambda c: (len(c.side_a), tuple(sorted(c.side_a))))


def slow_is_solid_side(g: Multigraph, side: frozenset[int]) -> bool:
    """``verifier._is_solid_side`` by a loop over the induced side's 2-cut ``EdgeCut``s."""
    from cubicpm.connectivity import enumerate_cuts
    from cubicpm.multigraph import induced_subgraph

    sub, _, _ = induced_subgraph(g, side)
    n = sub.vertex_count
    return n >= 4 and not any(
        cut.size == 2 and 2 <= len(cut.side_a) <= n - 2
        for cut in enumerate_cuts(sub, 2, cyclic_only=False)
    )


def slow_cut_slots(g: Multigraph) -> dict[str, list]:
    """The slots of the verifier's cut-sweeping generators, by a loop over each cut.

    The route that reading the sweep's masks replaced: it lists the cyclic
    cuts as ``EdgeCut``s and gives the cut sides (side A, then the other
    side, per cyclic 4-cut), the edges in no cyclic 3-cut of a
    3-edge-connected cubic graph, and the edges in and not in a cyclic
    4-cut.  Every list is empty above the cut cap.
    """
    from cubicpm.connectivity import CUT_CAP, cyclic_cuts_up_to

    if g.vertex_count > CUT_CAP:
        return {"sides": [], "3ec": [], "in 4-cut": [], "no 4-cut": []}
    crossed = {3: set(), 4: set()}
    sides = []
    for cut in cyclic_cuts_up_to(g, 4):
        if cut.size in crossed:
            crossed[cut.size] |= cut.crossing_edges
        if cut.size == 4:
            sides += [sorted(cut.side_a), sorted(cut.flipped(g).side_a)]
    edges = range(g.edge_count)
    return {
        "sides": sides,
        "3ec": [e for e in edges if e not in crossed[3]] if g.is_cubic and slow_is_3ec(g) else [],
        "in 4-cut": [e for e in edges if e in crossed[4]],
        "no 4-cut": [e for e in edges if e not in crossed[4]],
    }


def slow_violating_side(h: Multigraph, ell: int) -> list[int] | None:
    """``verifier._violating_side`` by a loop over h's cyclic cut ``EdgeCut``s.

    The loop that reading the split graph's sweep masks replaced: the first
    cyclic cut of at most ell - 1 edges that has fewer than ell - 2 or is
    crossed by one of the two new edges names its side A.
    """
    from cubicpm.connectivity import cyclic_cuts_up_to

    new_edges = {h.edge_count - 2, h.edge_count - 1}
    for cut in cyclic_cuts_up_to(h, ell - 1):
        if cut.size < ell - 2 or (cut.crossing_edges & new_edges):
            return sorted(cut.side_a)
    return None


def slow_params_dicts(g: Multigraph) -> dict[str, list[dict]]:
    """The params dicts of each verifier slot generator, by lemma id value.

    The generators that built one dict per slot, with a list for each vertex
    sequence, before slots became tuples rendered on read; the cut-sweeping
    ones take their edges and sides from ``slow_cut_slots``.  A lemma with
    no generator, or with no slot on g, is absent.
    """
    edges = range(g.edge_count)
    paths, triples, branches = [], [], []
    for v2, v3 in g.edges:
        for e1 in g.incident(v2):
            v1 = g.other_end(e1, v2)
            if v1 in (v2, v3):
                continue
            for e4 in g.incident(v3):
                v4 = g.other_end(e4, v3)
                if v4 not in (v1, v2, v3):
                    paths.append({"path": [v1, v2, v3, v4]})
    for v2 in range(g.vertex_count):
        nbrs = g.neighbors(v2)
        triples += [{"triple": [v1, v2, v3]} for v1 in nbrs for v3 in nbrs if v3 != v1]
        for v1 in nbrs:
            rest = [x for x in nbrs if x != v1]
            if len(rest) != 2:
                continue
            v3, v3p = sorted(rest)
            branches += [
                {"v1": v1, "v2": v2, "v4": v4, "v4p": v4p}
                for v4 in g.neighbors(v3) if v4 != v2
                for v4p in g.neighbors(v3p) if v4p != v2
            ]
    cuts = slow_cut_slots(g)
    sides = [{"side": side} for side in cuts["sides"]]
    out = {
        "THM_BIP": [{"edge": e} for e in edges],
        "LM_SPECIAL": [{"e": e, "f": f} for e, f in combinations(edges, 2)],
        **dict.fromkeys(["LM_3CONN", "LM_BB_3E", "LM_BB_3EF"], [{"edge": e} for e in cuts["3ec"]]),
        "LM_SPLITOFF": paths,
        "LM_SPLIT5_SAME": triples,
        "LM_SPLIT5_DIFF": branches,
        **dict.fromkeys(["LM_SPLIT4A", "LM_SPLIT4B", "LM_LADDER"], sides),
        "LM_ORDERED": [{"edge": e} for e in cuts["in 4-cut"]],
        "LM_TWISTED_STRUC": [{"edge": e} for e in cuts["no 4-cut"]],
    }
    return {lemma: dicts for lemma, dicts in out.items() if dicts}


def minimal_cyclic3_sides(g: Multigraph) -> list[frozenset[int]]:
    """Inclusion-minimal sides over all cyclic 3-edge-cuts of a fresh sweep, in
    the order (size, sorted vertices)."""
    from cubicpm.connectivity import _minimal_sides, cyclic_cuts_up_to

    sides = [cut.side_a for cut in cyclic_cuts_up_to(g, 3) if cut.size == 3]
    return sorted(_minimal_sides(g.vertex_count, sides), key=lambda s: (len(s), tuple(sorted(s))))


def slow_k_almost_search(g: Multigraph, k: int) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """The k-almost search that contracts and sweeps every graph it reaches.

    The route that ``connectivity.is_k_almost_cyclically_4ec`` replaced by
    one search over the cuts of the root: it builds each contracted graph,
    sweeps it afresh and classifies its cuts with the general cycle test,
    backtracking over the same inclusion-minimal cyclic-3-cut sides in the
    same order, so it gives the same witness.
    """
    from cubicpm.connectivity import cyclic_cuts_up_to

    def search(h: Multigraph, budget: int, acc):
        if not cyclic_cuts_up_to(h, 3):
            return acc
        if budget < 2:
            return None
        for s in minimal_cyclic3_sides(h):
            loss = len(s) - 1
            if loss > budget or len(components(h, s)) != 1:
                continue
            res = search(contract(h, s)[0], budget - loss, acc + (tuple(sorted(s)),))
            if res is not None:
                return res
        return None

    witness = search(Multigraph(g.vertex_count, g.edges), k, ())  # a new object: swept afresh
    return (witness is not None), (witness if witness is not None else ())


def slow_neighbors(g: Multigraph, v: int) -> tuple[int, ...]:
    """Reference for ``Multigraph.neighbors``: the far ends of v's edges, deduplicated and sorted."""
    return tuple(sorted({g.other_end(e, v) for e in g.incident(v)}))


def slow_frontier_order(g: Multigraph) -> tuple[int, ...]:
    """Reference for ``Multigraph.frontier_order``, each step counted afresh.

    The boundary is the unplaced neighbours of placed vertices and the pool
    the unplaced vertices off it.  Each step places the unplaced vertex with
    the fewest neighbours in the pool, then one on the boundary, then the
    lowest id.
    """
    n = g.vertex_count
    order: list[int] = []
    boundary: set[int] = set()
    for _ in range(n):
        pool = set(range(n)) - set(order) - boundary
        v = min(
            pool | boundary,
            key=lambda u: (sum(x in pool for x in slow_neighbors(g, u)), u in pool, u),
        )
        order.append(v)
        boundary = (boundary | set(slow_neighbors(g, v))) - set(order)
    return tuple(order)


def brute_automorphisms(g: Multigraph) -> list[tuple[int, ...]]:
    """Every automorphism of g, sorted, by a test of all n! vertex permutations.

    A permutation is kept when it sends each endpoint pair to a pair of the
    same multiplicity; with equal edge counts that preserves the multiset.
    """
    mult = Counter(g.edges)
    return [
        perm for perm in permutations(range(g.vertex_count))
        if all(mult[(min(perm[u], perm[v]), max(perm[u], perm[v]))] == m
               for (u, v), m in mult.items())
    ]


def identity_group(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """The trivial group: given to the verifier in place of Aut(g), no two keys share a result."""
    return (tuple(range(g.vertex_count)),)


def slow_components(g: Multigraph, vertices=None, skip=frozenset()) -> list[frozenset[int]]:
    """Reference for ``multigraph.components``: a union-find over the kept edges."""
    keep = sorted(range(g.vertex_count) if vertices is None else set(vertices))
    parent = {v: v for v in keep}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e, (u, v) in enumerate(g.edges):
        if e not in skip and u in parent and v in parent:
            parent[find(u)] = find(v)
    parts: dict[int, set[int]] = {}
    for v in keep:
        parts.setdefault(find(v), set()).add(v)
    return sorted((frozenset(p) for p in parts.values()), key=min)


def slow_patterned_pairs(g: Multigraph) -> set[tuple[int, int]]:
    """Reference for ``matchings._bipartition_with_pattern``, over all 2^n colorings.

    The ordered edge pairs (e, f) for which some 2-coloring leaves exactly e
    and f monochromatic, e's ends in color 0 and f's in color 1.
    """
    out = set()
    for mask in range(1 << g.vertex_count):
        color = [(mask >> v) & 1 for v in range(g.vertex_count)]
        mono = [e for e, (u, v) in enumerate(g.edges) if color[u] == color[v]]
        if len(mono) == 2:
            e, f = mono
            if color[g.edges[e][0]] != color[g.edges[f][0]]:
                out.add((e, f) if color[g.edges[e][0]] == 0 else (f, e))
    return out


def flow_contraction_instance(g: Multigraph, e: int):
    """Rebuild the bipartite contraction used to certify matching-coverage.

    For a 3-edge-connected cubic g and an edge e outside all cyclic
    3-edge-cuts, with g minus e not matching-covered: pick the first edge f
    that no perfect matching avoiding e contains, take the ends u, u' of f,
    find a minimal Tutte witness S' in (g - e) minus {u, u'}, and contract
    every component of (g - e) minus S' union {u, u'} not incident with e.
    Returns (h, u, u2, v, v2) or None when the scenario does not arise.
    """
    from cubicpm.matchings import CountQuery, has_matching

    f = None
    for cand in range(g.edge_count):
        if cand == e:
            continue
        if not has_matching(
            g, CountQuery(required=frozenset({cand}), forbidden=frozenset({e}))
        ):
            f = cand
            break
    if f is None:
        return None
    u, u2 = g.endpoints(f)
    rest = [v for v in range(g.vertex_count) if v not in (u, u2)]
    witness = None
    for size in range(len(rest) + 1):
        for s_prime in combinations(rest, size):
            s = set(s_prime) | {u, u2}
            comps = components(g, set(range(g.vertex_count)) - s, frozenset({e}))
            odd = [c for c in comps if len(c) % 2]
            if len(odd) >= len(s_prime) + 2:
                witness = (set(s_prime), comps)
                break
        if witness:
            break
    assert witness is not None, "Tutte witness must exist when no matching does"
    s_prime, comps = witness
    a, b = g.endpoints(e)
    keep: list[frozenset[int]] = []
    for comp in comps:
        if a in comp or b in comp:
            assert len(comp) == 1, "components at the removed edge must be single vertices"
        elif len(comp) > 1:
            keep.append(comp)
    h, new_id = _contract_components(g, e, f, keep)
    return h, new_id[u], new_id[u2], new_id[a], new_id[b]


def _contract_components(g: Multigraph, e: int, f: int, comps: list[frozenset[int]]):
    """g minus edges e, f with the listed vertex sets contracted away."""
    owner = {}
    for i, comp in enumerate(comps):
        for v in comp:
            owner[v] = i
    plain = [v for v in range(g.vertex_count) if v not in owner]
    new_id = {v: i for i, v in enumerate(plain)}
    for i, comp in enumerate(comps):
        for v in comp:
            new_id[v] = len(plain) + i
    edges = []
    for i, (x, y) in enumerate(g.edges):
        if i in (e, f):
            continue
        nx, ny = new_id[x], new_id[y]
        if nx != ny:
            edges.append((nx, ny))
    h = Multigraph(len(plain) + len(comps), tuple(edges))
    return h, new_id


_C4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def slow_twisted_net(recipe) -> Multigraph:
    """Reference for ``families.twisted_net``: a graph per step, corners read from degrees."""
    from cubicpm.errors import BadDegrees
    from cubicpm.families import Increment, corners

    g = _C4
    for step in recipe.steps:
        if isinstance(step, Increment):
            n = g.vertex_count
            if g.degree(step.u) != 2 or g.degree(step.v) != 2 or step.u == step.v:
                raise BadDegrees(f"increment needs two distinct corners, got {step}")
            g = Multigraph(n + 2, g.edges + ((step.u, n), (n, n + 1), (n + 1, step.v)))
        else:
            h = slow_twisted_net(step.other)
            if step.u == step.u2 or g.degree(step.u) != 2 or g.degree(step.u2) != 2:
                raise BadDegrees(f"multiply needs two distinct corners of g, got {step}")
            if step.v == step.v2 or h.degree(step.v) != 2 or h.degree(step.v2) != 2:
                raise BadDegrees(f"multiply needs two distinct corners of h, got {step}")
            off = g.vertex_count
            edges = g.edges + tuple((a + off, b + off) for a, b in h.edges)
            edges += ((step.u, step.v + off), (step.u2, step.v2 + off))
            g = Multigraph(off + h.vertex_count, edges)
    assert len(corners(g)) == 4, "a twisted net must have exactly four corners"
    return g


def _slow_random_recipe(rng, target_n: int):
    """The recipe generator that replays the recipe built so far at every step."""
    from cubicpm.families import Increment, Multiply, TwistedNetRecipe, corners

    if target_n == 4:
        return TwistedNetRecipe()
    if target_n >= 8 and rng.random() < 0.35:
        n1 = rng.choice(range(4, target_n - 3, 2))
        left = _slow_random_recipe(rng, n1)
        right = _slow_random_recipe(rng, target_n - n1)
        u, u2 = rng.sample(corners(slow_twisted_net(left)), 2)
        v, v2 = rng.sample(corners(slow_twisted_net(right)), 2)
        return TwistedNetRecipe(left.steps + (Multiply(right, u, u2, v, v2),))
    base = _slow_random_recipe(rng, target_n - 2)
    u, v = rng.sample(corners(slow_twisted_net(base)), 2)
    return TwistedNetRecipe(base.steps + (Increment(u, v),))


def slow_random_twisted_net(seed: int, target_n: int, want_bipartite: bool | None = None):
    """Reference for ``families.random_twisted_net``, through the replaying generator."""
    import random

    from cubicpm.errors import BadSize, GenerationFailed, UnreachableParity
    from cubicpm.matchings import is_bipartite

    if target_n < 4 or target_n % 2:
        raise BadSize("twisted nets have even size >= 4")
    if target_n == 4 and want_bipartite is False:
        raise UnreachableParity("the only 4-vertex twisted net is the 4-cycle")
    rng = random.Random(seed)
    for _ in range(400):
        recipe = _slow_random_recipe(rng, target_n)
        g = slow_twisted_net(recipe)
        if want_bipartite is None or is_bipartite(g) == want_bipartite:
            return g, recipe
    raise GenerationFailed(
        f"no twisted net with bipartite={want_bipartite} at n={target_n} in budget"
    )


def slow_random_cubic_bridgeless(seed: int, n: int) -> Multigraph:
    """Reference for ``families.random_cubic_bridgeless``: each pairing is built
    into a probe graph and tested with ``is_connected`` and ``bridges``."""
    import random

    from cubicpm.connectivity import bridges
    from cubicpm.errors import BadSize, GenerationFailed
    from cubicpm.families import PAIRING_TRIES
    from cubicpm.multigraph import from_edge_list

    if n < 4 or n % 2:
        raise BadSize("need an even number of vertices, at least 4")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(PAIRING_TRIES):
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(u == v for u, v in pairs):
            continue
        probe = from_edge_list(n, pairs)
        if probe.is_connected() and not bridges(probe):
            return Multigraph(n, probe.edges)
    raise GenerationFailed(f"no admissible pairing after {PAIRING_TRIES} tries")


def slow_semiblocks(g: Multigraph) -> tuple[tuple[frozenset[int], ...], int]:
    """Reference for ``families.semiblocks``: the 2-edge cuts are taken from
    the ``EdgeCut`` list of ``enumerate_cuts``."""
    from cubicpm.connectivity import _minimal_sides, bridges, enumerate_cuts
    from cubicpm.errors import BadDegrees, Bridged

    if not g.is_cubic:
        raise BadDegrees("semiblocks are defined for cubic graphs")
    if bridges(g):
        raise Bridged("graph has a bridge")
    sides = [c.side_a for c in enumerate_cuts(g, 2, cyclic_only=False) if c.size == 2]
    minimal = sorted(_minimal_sides(g.vertex_count, sides), key=min)
    if not minimal:
        return (frozenset(range(g.vertex_count)),), 1
    return tuple(minimal), len(minimal)
