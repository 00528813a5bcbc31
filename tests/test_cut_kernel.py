"""The pruned bipartition sweep ``connectivity.cut_sums_at_most`` against the loops it replaced.

The sweep drops a prefix once the weight it cuts exceeds the caller's bound;
at every bound it must select exactly the bipartitions that the full
per-edge loop of ``oracles`` selects, with the same sums, for unit weights,
c(e) weights and scaled polytope weights.  Cut sizes, tight cuts and the
odd-set constraints of the matching polytope each read the sweep at their
own bound and are compared with the per-edge, per-matching or per-set loop
kept in ``oracles``, and ``decompose``, which sweeps only the root and hands
each contraction its parent's tight cuts, with the recursion that sweeps
every node.  Cut cyclicity, read from edge counts at the selected masks, is
compared with a union-find cycle test per mask, and so are the minimum cyclic
cuts that ``cyclic_edge_connectivity`` leaves in the graph's memo; "no
cyclic cut below k" is compared with the connectivity value.  Sweeps and
classified masks are counted: a graph with no cyclic cut stops once every
bipartition is selected, and no mask is classified twice.  The
verifier's read of 3-edge-connectivity from the graph's sweep is compared
with the bridge search on G and on every G - e that it replaced, and that
low-link bridge search with deleting each edge and counting the parts.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from conftest import bridged_cubic, two_block_chain
from cubicpm import (
    Multigraph,
    brick_count,
    bridges,
    cyclic_edge_connectivity,
    decompose,
    elp_bound,
    enumerate_cuts,
    enumerate_matchings,
    from_edge_list,
    is_matching_covered,
    named,
    polytope_membership,
    random_cubic_bridgeless,
    tight_cuts,
)
from cubicpm import connectivity, decomposition
from cubicpm.connectivity import _crossing_counts, _cyclic_flags, cut_sums_at_most
from cubicpm.decomposition import TIGHT_CAP
from cubicpm.errors import NotMatchingCovered, TooLarge
from cubicpm.matchings import containment_counts, uniform_third
from cubicpm.verifier import _is_3ec, named_instances, random_instances, twisted_instances
from oracles import (
    all_cubic_multigraphs,
    matching_indicator,
    slow_bridges,
    slow_components,
    slow_crossing_counts,
    slow_cyclic_edge_connectivity,
    slow_decompose,
    slow_enumerate_cuts,
    slow_is_3ec,
    slow_odd_set_ok,
    slow_tight_cuts,
    side_has_cycle,
)

MIX = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


def _without_edge(g: Multigraph, e: int) -> Multigraph:
    return Multigraph(g.vertex_count, g.edges[:e] + g.edges[e + 1 :])


GRAPHS = [(name, named(name)) for name in (
    "theta", "k4", "k33", "prism", "cube", "petersen",
    "moebius_kantor", "dodecahedron", "exceptional6",
)] + [(f"random{n}", random_cubic_bridgeless(n, n)) for n in range(4, 21, 2)] + [
    ("cube-e", _without_edge(named("cube"), 0)),
    ("random16-e", _without_edge(random_cubic_bridgeless(16, 16), 5)),
    ("necklace", from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])),
    ("two_block_chain", two_block_chain()),
    ("triangle", from_edge_list(3, [(0, 1), (1, 2), (0, 2)])),
    ("petersen-v", Multigraph(9, tuple((u - 1, v - 1) for u, v in named("petersen").edges if u))),
    ("bridged", bridged_cubic()),
]


def _weight_vectors(g: Multigraph) -> list[dict[int, Fraction]]:
    """uniform_third, halves on odd graphs, and vectors built from perfect matchings."""
    out = [uniform_third(g)]
    if g.vertex_count % 2:
        out.append({e: Fraction(1, 2) for e in range(g.edge_count)})
    elif g.vertex_count <= 16:
        pms = enumerate_matchings(g)[:3]
        out += [matching_indicator(g, m) for m in pms[:1]]
        if len(pms) == 3:
            out.append({
                e: sum((c for m, c in zip(pms, MIX) if e in m.edge_ids), Fraction(0))
                for e in range(g.edge_count)
            })
    return out


def _in_polytope(g: Multigraph, w) -> bool:
    """Edmonds' three conditions, the odd sets checked by the per-set loop."""
    return (
        all(x >= 0 for x in w.values())
        and all(sum(w[e] for e in g.incident(v)) == 1 for v in range(g.vertex_count))
        and slow_odd_set_ok(g, w)
    )


P = 2**64 + 13  # a prime above 2^64


def _beyond_int64(g: Multigraph, cycle) -> dict[int, Fraction]:
    """uniform_third moved by +-1/P around an even cycle keeps every vertex sum 1.

    The common denominator 3P and the scaled cut sums exceed int64.
    """
    w = uniform_third(g)
    for i, (u, v) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
        w[g.edges.index((min(u, v), max(u, v)))] += Fraction((-1) ** i, P)
    return w


def _k3(k: int) -> Multigraph:
    return from_edge_list(3 + k, [(i, 3 + j) for i in range(3) for j in range(k)])


def _scaled(w) -> list[int]:
    """Polytope weights in integers, scaled by their common denominator."""
    den = lcm(*[x.denominator for x in w.values()])
    return [int(w[e] * den) for e in range(len(w))]


def _bounds(full: list[int]) -> list[int]:
    """Every bound from 0 to the largest sum; past 300 of them, every sum d and d - 1.

    The selection changes only where a bound reaches a sum, so the second
    list decides the same selections as the first.
    """
    top = max(full, default=0)
    if top <= 300:
        return list(range(top + 1))
    return sorted({d - k for d in set(full) for k in (0, 1)} - {-1})


SWEPT = GRAPHS + [
    ("empty", Multigraph(0, ())), ("single", Multigraph(1, ())), ("k34", _k3(4)), ("k35", _k3(5)),
]


def _weightings(g: Multigraph, kind: str) -> list[list[int]]:
    if kind == "unit":
        return [[1] * g.edge_count]
    if kind == "through":
        return [containment_counts(g)] if g.vertex_count <= 16 else []
    scaled = [_scaled(w) for w in _weight_vectors(g)] if g.vertex_count else []
    return [w for w in scaled if w != [1] * g.edge_count]  # uniform_third is the unit case


def _assert_pruned_is_filtered(g: Multigraph, weights: list[int]):
    """Oracle index i, over vertices 1..n-1, is the vertex bitmask 2i + 1."""
    full = slow_crossing_counts(g, weights)
    for bound in _bounds(full):
        masks, sums = cut_sums_at_most(g, weights, bound)
        keep = [i for i, s in enumerate(full) if s <= bound]
        assert masks == [2 * i + 1 for i in keep]
        assert sums == [full[i] for i in keep]


@pytest.mark.parametrize("kind", ["unit", "through", "polytope"])
@pytest.mark.parametrize("g", [g for _, g in SWEPT], ids=[name for name, _ in SWEPT])
def test_the_pruned_sweep_is_the_full_sweep_filtered_at_every_bound(kind, g):
    for weights in _weightings(g, kind):
        _assert_pruned_is_filtered(g, weights)


@pytest.mark.parametrize("name,cycle", [("petersen", (0, 1, 6, 9, 7, 5)), ("prism", (0, 1, 4, 3))])
def test_the_pruned_sweep_is_exact_beyond_int64(name, cycle):
    g = named(name)
    weights = _scaled(_beyond_int64(g, cycle))
    assert max(weights) > 2**64
    _assert_pruned_is_filtered(g, weights)


@pytest.mark.parametrize("route", ["cuts", "tight", "polytope"])
@pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[name for name, _ in GRAPHS])
def test_kernel_agrees_with_the_replaced_loops(route, g):
    if route == "cuts":  # at the largest crossing size every proper bipartition is selected
        slow = slow_crossing_counts(g)
        masks, counts = _crossing_counts(g, max(slow))
        assert masks == [2 * i + 1 for i in range(len(slow) - 1)]  # oracle index i is mask 2i + 1
        assert counts == slow[:-1]
    elif route == "tight" and g.vertex_count <= 16:
        if is_matching_covered(g):
            assert tight_cuts(g) == slow_tight_cuts(g)
        else:
            with pytest.raises(NotMatchingCovered):
                tight_cuts(g)
    elif route == "polytope":
        for w in _weight_vectors(g):
            assert polytope_membership(g, w, force_odd_set_check=True) == _in_polytope(g, w)


def _edge_deleted_with_tight_cuts() -> list[tuple[str, Multigraph]]:
    """Graphs less one or two edges that are matching-covered and have a tight cut."""
    out = []
    for name, g in GRAPHS:
        if name not in ("k4", "k33", "prism", "cube", "petersen", "moebius_kantor",
                        "random8", "random10", "random12", "random14"):
            continue
        drops = [(e,) for e in range(g.edge_count)]
        if g.vertex_count <= 10:
            drops += list(combinations(range(g.edge_count), 2))
        for drop in drops:
            kept = tuple(pair for e, pair in enumerate(g.edges) if e not in drop)
            h = Multigraph(g.vertex_count, kept)
            if is_matching_covered(h) and tight_cuts(h):
                out.append((f"{name}-{drop}", h))
    return out


DELETED = _edge_deleted_with_tight_cuts()


def test_decompose_equals_the_recursion_that_sweeps_every_node():
    """Inherited tight cuts give the tree of a fresh sweep at every node."""
    deeper = 0
    for name, g in GRAPHS + DELETED:
        fresh = Multigraph(g.vertex_count, g.edges)  # a new object: decompose starts unswept
        try:
            want = slow_decompose(g)
        except (NotMatchingCovered, TooLarge) as exc:
            with pytest.raises(type(exc)):
                decompose(fresh)
            continue
        assert decompose(fresh) == want, name
        deeper += len(want.leaves()) > 2
    assert deeper  # some child inherited a tight cut and was split again


def test_decomposition_classifies_no_cut_cyclicity(monkeypatch, named_graphs):
    """Tight cuts and tree nodes are vertex sets: no cut's cyclicity is asked."""

    def refuse(*args):
        raise AssertionError("a cut's cyclicity was classified")

    monkeypatch.setattr(connectivity, "_cyclic_flags", refuse)
    small = [(name, g) for name, g in named_graphs.items() if g.vertex_count <= TIGHT_CAP]
    for name, g in small + DELETED:
        fresh = Multigraph(g.vertex_count, g.edges)  # a new object: nothing in its memo
        try:
            want = slow_decompose(g)
        except NotMatchingCovered:
            with pytest.raises(NotMatchingCovered):
                decompose(fresh)
            continue
        tree = decompose(fresh)
        assert tree == want and tree.to_dict() == want.to_dict(), name


def test_decompose_sweeps_only_the_root_and_keeps_the_tree(monkeypatch):
    calls = []
    sweep = decomposition.cut_sums_at_most
    monkeypatch.setattr(
        decomposition, "cut_sums_at_most", lambda g, *rest: calls.append(g) or sweep(g, *rest),
    )
    for name, g in DELETED:
        g = Multigraph(g.vertex_count, g.edges)
        calls.clear()
        tree = decompose(g)
        assert decompose(g) is tree
        assert brick_count(g) == sum(leaf.kind == "brick" for leaf in tree.leaves())
        assert elp_bound(g) == g.edge_count - g.vertex_count + 1 - brick_count(g)
        assert len(calls) == 1, name


CUT_SIZES = (2, 3, 4, 5)


@pytest.mark.parametrize("g", [g for _, g in SWEPT], ids=[name for name, _ in SWEPT])
def test_cyclicity_from_the_certificates_agrees_with_a_build_per_mask(g):
    slow = slow_enumerate_cuts(g, max(CUT_SIZES))
    for k in CUT_SIZES:
        want = [cut for cut in slow if cut.size <= k]
        assert enumerate_cuts(g, k, cyclic_only=False) == want
        assert enumerate_cuts(g, k, cyclic_only=True) == [cut for cut in want if cut.cyclic]
    assert cyclic_edge_connectivity(g).value == slow_cyclic_edge_connectivity(g)
    for k in range(1, 7):  # the form every cyclic-k-edge-connectivity test reads
        assert (not enumerate_cuts(g, k - 1, cyclic_only=True)) == cyclic_edge_connectivity(g).at_least(k)


@pytest.mark.parametrize("g", [g for _, g in SWEPT], ids=[name for name, _ in SWEPT])
def test_connectivity_leaves_its_minimum_cyclic_cuts_in_the_memo(g, monkeypatch):
    g = Multigraph(g.vertex_count, g.edges)  # a new object, so its memo starts empty
    value = cyclic_edge_connectivity(g).value
    if value is None:
        return
    want = [cut for cut in slow_enumerate_cuts(g, value) if cut.cyclic]

    def no_second_sweep(g, max_size):
        raise AssertionError("swept again")

    monkeypatch.setattr(connectivity, "_crossing_counts", no_second_sweep)
    assert enumerate_cuts(g, value, cyclic_only=True) == want


@pytest.mark.parametrize("b", [5, 9])
def test_connectivity_with_no_cyclic_cut_stops_once_every_bipartition_is_selected(b, monkeypatch):
    """K_{3,b} has no cyclic cut; bounds 3 to 6, then doubled, reach its 3b edges in a few sweeps."""
    calls = []
    sweep = connectivity._crossing_counts
    monkeypatch.setattr(
        connectivity, "_crossing_counts", lambda g, *rest: calls.append(rest) or sweep(g, *rest),
    )
    assert cyclic_edge_connectivity(_k3(b)).is_unbounded
    assert len(calls) <= 8


@pytest.mark.parametrize(
    "g", [g for _, g in SWEPT if g.vertex_count <= 12] + [_k3(9)],
    ids=[name for name, g in SWEPT if g.vertex_count <= 12] + ["k39"],
)
def test_no_mask_is_classified_twice(g, monkeypatch):
    classified = []
    flags = connectivity._cyclic_flags
    monkeypatch.setattr(
        connectivity, "_cyclic_flags",
        lambda g, masks, crossing: classified.extend(masks) or flags(g, masks, crossing),
    )
    g = Multigraph(g.vertex_count, g.edges)  # a new object, so its memo starts empty
    cyclic_edge_connectivity(g)
    for k in range(g.edge_count + 2):
        enumerate_cuts(g, k, cyclic_only=k % 2 == 1)
    proper = (1 << g.vertex_count >> 1) - 1 if g.vertex_count else 0
    assert sorted(classified) == [2 * i + 1 for i in range(proper)]  # each proper bipartition once


def test_the_cyclicity_corpus_reaches_every_route(monkeypatch):
    """Some cuts are certainly cyclic, some certainly acyclic, and the flood
    counts the parts of side A exactly where the edge counts, taken here from
    the edge list, leave it open."""
    flooded = []
    parts = connectivity._parts
    monkeypatch.setattr(
        connectivity, "_parts", lambda nbrs, side: flooded.append(side) or parts(nbrs, side),
    )
    certain = acyclic = undecided = 0
    for _, g in GRAPHS:
        masks, counts = _crossing_counts(g, max(CUT_SIZES))
        open_ = set()
        for mask, cut, inner_a, inside in _side_cases(g, masks):
            inner_b = g.edge_count - cut - inner_a
            if inner_a >= len(inside) and inner_b >= g.vertex_count - len(inside):
                certain += 1
            elif min(inner_a, inner_b) <= 1:
                acyclic += 1
            else:
                open_.add(mask)
        flooded.clear()
        _cyclic_flags(g, masks, counts)
        assert {side for side in flooded if side & 1} == open_, g
        undecided += len(open_)
    assert certain and acyclic and undecided


def _random_multigraph(seed: int, n: int) -> Multigraph:
    """About 1.3 n random edges, loopless, with one pair doubled."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(13 * n // 10)]
    return from_edge_list(n, pairs + pairs[:1])


def _side_cases(g: Multigraph, masks):
    """(side bits, crossing size, inner edges, side set) for each side mask over all n vertices."""
    for side in masks:
        inside = frozenset(v for v in range(g.vertex_count) if side >> v & 1)
        cut = sum((u in inside) != (v in inside) for u, v in g.edges)
        yield side, cut, sum(u in inside and v in inside for u, v in g.edges), inside


FLOODED = [(name, named(name)) for name in ("theta", "k4", "prism", "petersen")] + [
    (f"multi{n}", _random_multigraph(n, n)) for n in range(5, 11)
] + [("necklace", dict(GRAPHS)["necklace"])]
SAMPLED = [(f"random{n}", random_cubic_bridgeless(n, n)) for n in (16, 18, 20)] + [
    (f"multi{n}", _random_multigraph(n, n)) for n in (16, 18, 20)
]


@pytest.mark.parametrize(
    "g,every", [(g, True) for _, g in FLOODED] + [(g, False) for _, g in SAMPLED],
    ids=[name for name, _ in FLOODED] + [f"{name}-sampled" for name, _ in SAMPLED],
)
def test_the_bitmask_cycle_test_is_the_union_find(g, every):
    """Every side of the small graphs and 500 random sides of the larger ones."""
    nbrs, n = connectivity._neighbour_masks(g), g.vertex_count
    rng = random.Random(n)
    masks = range(1 << n) if every else [rng.getrandbits(n) for _ in range(500)]
    for side, _, inner, inside in _side_cases(g, masks):
        assert connectivity._has_cycle(nbrs, side, inner) == side_has_cycle(g, inside), side


def test_the_flood_decides_sides_the_edge_counts_leave_open():
    """Sides with 2 <= e(S) < |S| edges occur both with and without a cycle."""
    seen = set()
    for _, g in FLOODED:
        for _, _, inner, inside in _side_cases(g, range(1 << g.vertex_count)):
            if 2 <= inner < len(inside):
                seen.add(side_has_cycle(g, inside))
    assert seen == {True, False}


TWO_K4 = Multigraph(8, named("k4").edges + tuple((u + 4, v + 4) for u, v in named("k4").edges))


EVERY_CUBIC = [
    (f"every_cubic{n}", [from_edge_list(n, edges) for edges in all_cubic_multigraphs(n)])
    for n in (4, 6)
]


@pytest.mark.parametrize(
    "graphs",
    [[g] for _, g in GRAPHS] + [[TWO_K4]] + [graphs for _, graphs in EVERY_CUBIC],
    ids=[name for name, _ in GRAPHS] + ["two_k4"] + [name for name, _ in EVERY_CUBIC],
)
def test_3_edge_connectivity_by_bridges_agrees_with_the_cut_sweep(graphs):
    for g in graphs:
        assert _is_3ec(g) == slow_is_3ec(g), g


def _loose_multigraphs() -> list[Multigraph]:
    """Seeded loopless multigraphs on 1 to 12 vertices, of any degrees: their
    edges join vertices of a random subset, so some vertices stay isolated,
    and repeat pairs, so some edges are parallel."""
    rng, out = random.Random(11), []
    for n in range(1, 13):
        for _ in range(25):
            touched = rng.sample(range(n), rng.randint(1, n))
            edges = []
            if len(touched) > 1:
                for _ in range(rng.randint(0, 2 * n)):
                    u, v = rng.sample(touched, 2)
                    edges += [(u, v)] * rng.choice((1, 1, 1, 2))
            out.append(Multigraph(n, tuple(edges)))
    return out


def test_the_low_link_search_equals_deleting_each_edge():
    """``bridges``, and the parts and bridges of ``_low_link`` that the
    sampler reads, equal what deleting each edge does to the parts of the
    union-find: on the catalog corpus, on the edge-deleted graphs with tight
    cuts and on loose multigraphs with parallel edges, isolated vertices and
    several parts."""
    catalog = named_instances() + random_instances(40, 4, 14, seed=7)
    catalog += twisted_instances(60, seed=8, n_lo=4, n_hi=26)
    loose = _loose_multigraphs()
    for g in [inst.graph for inst in catalog] + [g for _, g in DELETED] + loose:
        want = slow_bridges(g)
        assert bridges(g) == want, g
        assert connectivity._low_link(g.vertex_count, g.edges) == (len(slow_components(g)), want), g
    assert any(len(slow_components(g)) > 2 and slow_bridges(g) for g in loose)
    assert any(len(set(g.edges)) < g.edge_count and slow_bridges(g) for g in loose)
    assert any(0 in g.degrees for g in loose)


def test_the_cross_check_meets_every_outcome():
    """Tight cuts, uncovered graphs, odd-set violations, 2-edge cuts and no cyclic cut occur."""
    by_name = dict(SWEPT)
    assert slow_cyclic_edge_connectivity(by_name["k35"]) is None
    assert slow_tight_cuts(by_name["cube-e"]) and slow_tight_cuts(by_name["random16-e"])
    assert not is_matching_covered(by_name["bridged"])
    g = by_name["bridged"]
    assert not slow_odd_set_ok(g, uniform_third(g))
    assert not polytope_membership(by_name["triangle"], {e: Fraction(1, 2) for e in range(3)})
    assert any(len(_weight_vectors(g)) == 3 for _, g in GRAPHS)
    three_ec = [slow_is_3ec(g) for _, g in GRAPHS]
    assert any(three_ec) and not all(three_ec) and not slow_is_3ec(TWO_K4)


def test_crossing_counts_do_not_wrap_at_255():
    g = Multigraph(2, ((0, 1),) * 256)
    assert enumerate_cuts(g, 0, cyclic_only=False) == []
    (cut,) = enumerate_cuts(g, 256, cyclic_only=False)
    assert cut.size == 256


def test_the_empty_graph_has_no_bipartition():
    g = Multigraph(0, ())
    masks, sums = cut_sums_at_most(g, [], 3)
    assert masks == sums == []
    assert enumerate_cuts(g, 3, cyclic_only=False) == []
    assert cyclic_edge_connectivity(g).is_unbounded
    assert tight_cuts(g) == []
    assert polytope_membership(g, {}, force_odd_set_check=True)  # the empty matching


@pytest.mark.parametrize(
    "name,cycle,inside",
    [
        ("petersen", (0, 1, 6, 9, 7, 5), True),
        ("prism", (0, 1, 2, 5, 4, 3), True),  # crosses the triangle cut at + and -
        ("prism", (0, 1, 4, 3), False),  # crosses it twice at -1/P
    ],
)
def test_polytope_is_exact_beyond_int64(name, cycle, inside):
    g = named(name)
    w = _beyond_int64(g, cycle)
    assert lcm(*[x.denominator for x in w.values()]) > 2**64
    assert slow_odd_set_ok(g, w) is inside
    assert polytope_membership(g, w, force_odd_set_check=True) is inside
