"""Tight cuts, bricks, braces, and the tight-cut decomposition tree.

A tight cut is crossed exactly once by every perfect matching; splitting
along nontrivial tight cuts until none remain yields bricks (non-bipartite)
and braces (bipartite).  Tight cuts come from one weighted sweep of the
bipartitions, pruned at the number of perfect matchings
(``connectivity.cut_sums_at_most``), not from a list of matchings.  Only the
root of a decomposition is swept: the tight cuts of a tight-cut contraction
are those of its parent that do not cross the contracted cut (Lovasz), so
each child inherits them.  From the sweep to the tree a tight cut is the
vertex set of its side A, the side holding vertex 0: its crossing edges are
listed only by ``DecompositionNode.to_dict``, and its cyclicity is never
classified.  The cut at each node is the least by the sorted vertex
sequence of side A.  The leaf multiset is unique up to edge multiplicity
(Lovasz); the test suite asserts that another cut order gives the same
leaves rather than assuming it.
"""

from __future__ import annotations

from typing import NamedTuple

from .connectivity import _crossing_edges, cut_sums_at_most, mask_side
from .errors import NotMatchingCovered, TooLarge
from .matchings import containment_counts, is_bipartite
from .multigraph import Multigraph, _memoized, contract

TIGHT_CAP = 16


def tight_cuts(g: Multigraph) -> list[frozenset[int]]:
    """Side A of each nontrivial tight cut, by one weighted sweep of the bipartitions.

    A tight cut is an edge cut met exactly once by every perfect matching,
    and it is nontrivial when both sides have at least 3 vertices.

    Weigh edge e by c(e), the number of perfect matchings through it; one
    pass of the matching DP gives every c(e).  The trivial cut around vertex
    0 weighs N, the number of perfect matchings, because each of them covers
    vertex 0 once.  Each perfect matching crosses an odd cut an odd number
    of times, so an odd cut weighs at least N (asserted: the sweep, pruned
    at N, keeps any lighter one), and it is tight exactly when it weighs N.
    Each side A holds vertex 0; they are sorted by their sorted vertex
    sequence.
    """
    if g.vertex_count > TIGHT_CAP:
        raise TooLarge(f"tight-cut sweep capped at {TIGHT_CAP} vertices")
    through = containment_counts(g)
    if not all(through):
        raise NotMatchingCovered("tight cuts are defined for matching-covered graphs")
    n = g.vertex_count
    if not n:
        return []
    pm_count = sum(through[e] for e in g.incident(0))
    masks, sums = cut_sums_at_most(g, through, pm_count)
    sizes = [mask.bit_count() for mask in masks]
    lightest = min(s for s, size in zip(sums, sizes) if size % 2)
    if lightest != pm_count:
        raise AssertionError(f"an odd cut weighs {lightest}, not {pm_count}")
    tight = [
        mask for mask, s, size in zip(masks, sums, sizes)
        if size % 2 and 3 <= size <= n - 3 and s == pm_count
    ]
    return sorted(map(mask_side, tight), key=sorted)


class DecompositionNode(NamedTuple):
    """Either a leaf (kind set) or an internal node split along a tight cut.

    side_a is the side of that cut holding vertex 0; child_a contracts it,
    child_b contracts the other side.
    """

    graph: Multigraph
    kind: str | None = None  # "brick" | "brace" on leaves
    side_a: frozenset[int] | None = None
    child_a: "DecompositionNode | None" = None
    child_b: "DecompositionNode | None" = None

    def leaves(self) -> list["DecompositionNode"]:
        if self.kind is not None:
            return [self]
        assert self.child_a is not None and self.child_b is not None
        return self.child_a.leaves() + self.child_b.leaves()

    def to_dict(self) -> dict:
        base = {"n": self.graph.vertex_count, "m": self.graph.edge_count}
        if self.kind is not None:
            base["kind"] = self.kind
            return base
        assert self.side_a is not None
        base["cut"] = {
            "side_a": sorted(self.side_a),
            "crossing": sorted(_crossing_edges(self.graph, self.side_a)),
        }
        base["children"] = [self.child_a.to_dict(), self.child_b.to_dict()]
        return base


def decompose(g: Multigraph) -> DecompositionNode:
    """Tight-cut decomposition, splitting each node along its least tight cut.

    Among the nontrivial tight cuts, the one whose side A has the least
    sorted vertex sequence is taken.  The leaf multiset does not depend on
    this order, which the test suite checks against a recursion that takes
    the greatest cut instead.  Only g itself is swept (``tight_cuts``); the
    tree is kept in g's memo, where ``brick_count`` reads it.
    """
    return _memoized(g, "decomposition", lambda: _split(g, tight_cuts(g)))


def _split(g: Multigraph, tight: list[frozenset[int]]) -> DecompositionNode:
    """The tree below g, given the sides A of its nontrivial tight cuts, sorted.

    Contracting a shore X of the chosen cut keeps each tight side S with
    X <= S or X & S empty, mapped through the contraction: these are the
    tight cuts of the contraction, and it keeps those that stay nontrivial.
    Side A keeps vertex 0, whose id survives either contraction as 0.
    """
    if not tight:
        return DecompositionNode(g, kind="brace" if is_bipartite(g) else "brick")
    side_a = tight[0]
    children = []
    for shore in (side_a, frozenset(range(g.vertex_count)) - side_a):
        h, trace = contract(g, shore)
        vmap = trace.records[0].vertex_map
        mapped = (frozenset(vmap[v] for v in s) for s in tight if shore <= s or not shore & s)
        inherited = [s for s in mapped if 3 <= len(s) <= h.vertex_count - 3]
        children.append(_split(h, sorted(inherited, key=sorted)))
    child_a, child_b = children
    return DecompositionNode(g, side_a=side_a, child_a=child_a, child_b=child_b)


def brick_count(g: Multigraph) -> int:
    """b(G), the bricks among the leaves of g's decomposition, kept in g's memo as an int.

    A tree that ``decompose`` already kept is read; otherwise the tree is
    built, counted and dropped, since no caller of the count reads it.
    """

    def count():
        tree = g._memo.get("decomposition") or _split(g, tight_cuts(g))
        return sum(1 for leaf in tree.leaves() if leaf.kind == "brick")

    return _memoized(g, "bricks", count)


def elp_bound(g: Multigraph) -> int:
    """Edmonds-Lovasz-Pulleyblank lower bound m - n + 1 - b(G) on PM counts."""
    return g.edge_count - g.vertex_count + 1 - brick_count(g)
