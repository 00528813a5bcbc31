import pytest

from conftest import two_block_chain, ladder_host
from cubicpm import (
    bridges,
    build_cut,
    cut_surgery_pair,
    cyclic_edge_connectivity,
    enumerate_cuts,
    Multigraph,
    from_edge_list,
    is_k_almost_cyclically_4ec,
    named,
    observation_cyc_check,
    ordered_4cut_chain,
    random_cubic_bridgeless,
    replace_vertex_with_triangle,
)
from cubicpm import connectivity
from cubicpm.connectivity import _crossing_counts, _cyclic_flags
from cubicpm.errors import (
    MinDegreeViolated,
    NotCyclically4EC,
    SharedEndpoint,
    TooLarge,
)
from oracles import (
    all_cubic_multigraphs,
    side_has_cycle,
    slow_k_almost_c4ec,
    slow_k_almost_search,
)


def test_bridges_empty_for_named(named_graphs):
    for name in ("petersen", "theta", "k4", "cube"):
        assert bridges(named_graphs[name]) == frozenset()


def test_bridges_finds_the_joining_edge():
    # two K4-minus-edge blocks joined by a single edge between degree-2 vertices
    blk = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = from_edge_list(8, blk + [(u + 4, v + 4) for u, v in blk] + [(0, 4)])
    assert bridges(g) == frozenset({10})
    # a parallel pair is never a bridge
    gg = from_edge_list(8, blk + [(u + 4, v + 4) for u, v in blk] + [(0, 4), (0, 4)])
    assert bridges(gg) == frozenset()


# --- cut enumeration ---------------------------------------------------------


def test_petersen_has_no_small_cyclic_cuts(named_graphs):
    assert enumerate_cuts(named_graphs["petersen"], 4, cyclic_only=True) == []


def test_k33_has_no_cyclic_3cut(named_graphs):
    assert enumerate_cuts(named_graphs["k33"], 3, cyclic_only=True) == []


def test_prism_has_exactly_one_cyclic_3cut(named_graphs):
    cuts = [c for c in enumerate_cuts(named_graphs["prism"], 3, cyclic_only=True)]
    assert len(cuts) == 1
    (cut,) = cuts
    assert cut.side_a == frozenset({0, 1, 2})
    assert cut.crossing_edges == frozenset({6, 7, 8})


def test_cut_fields_are_consistent(named_graphs):
    for name in ("prism", "cube", "petersen"):
        g = named_graphs[name]
        for cut in enumerate_cuts(g, 5, cyclic_only=False):
            recomputed = build_cut(g, cut.side_a)
            assert recomputed == cut
            other = frozenset(range(g.vertex_count)) - cut.side_a
            assert cut.cyclic == (side_has_cycle(g, cut.side_a) and side_has_cycle(g, other))
            assert build_cut(g, other) == cut.flipped(g)  # built from the side without vertex 0
        assert not build_cut(g, range(g.vertex_count)).cyclic  # side B empty
        assert not build_cut(g, ()).cyclic


def test_cut_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_cuts(random_cubic_bridgeless(1, 26), 3, cyclic_only=True)


# --- cyclic edge connectivity -------------------------------------------------


@pytest.mark.parametrize(
    "name,value",
    [
        ("petersen", 5),
        ("prism", 3),
        ("cube", 4),
        ("dodecahedron", 5),
        ("moebius_kantor", 6),
        ("k4", None),
        ("k33", None),
        ("theta", None),
    ],
)
def test_cyclic_edge_connectivity(name, value):
    got = cyclic_edge_connectivity(named(name))
    assert got.value == value
    assert got.is_unbounded == (value is None)


def test_unbounded_satisfies_every_threshold():
    cec = cyclic_edge_connectivity(named("k4"))
    assert cec.at_least(4) and cec.at_least(100)


# --- the minimum-degree-3 observation ------------------------------------------


def test_observation_on_prism_triangle_cut(named_graphs):
    g = named_graphs["prism"]
    cut = build_cut(g, {0, 1, 2})
    assert observation_cyc_check(g, cut)
    assert cut.cyclic


def test_two_cuts_are_cyclic_in_min_degree_three():
    g = two_block_chain()
    cuts = [c for c in enumerate_cuts(g, 2, cyclic_only=False) if c.size == 2]
    assert cuts
    for cut in cuts:
        assert observation_cyc_check(g, cut)
        assert cut.cyclic


def test_observation_hypothesis_fails_on_vertex_star(named_graphs):
    g = named_graphs["k4"]
    assert not observation_cyc_check(g, build_cut(g, {0}))


def test_observation_needs_min_degree_three():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(MinDegreeViolated):
        observation_cyc_check(p4, build_cut(p4, {0, 1}))


def test_observation_holds_on_every_enumerated_cut(named_graphs):
    corpus = [named_graphs[k] for k in ("prism", "cube", "petersen", "k33")]
    corpus += [random_cubic_bridgeless(s, 10) for s in range(4)]
    for g in corpus:
        for cut in enumerate_cuts(g, 4, cyclic_only=False):
            observation_cyc_check(g, cut)  # raises if the observation fails


# --- ordered chains of 4-cuts ----------------------------------------------------


def test_chain_is_empty_on_petersen(named_graphs):
    g = named_graphs["petersen"]
    for e in range(g.edge_count):
        assert ordered_4cut_chain(g, e) == []


def test_chain_on_cube_is_totally_ordered(named_graphs):
    g = named_graphs["cube"]
    seen_nonempty = False
    for e in range(g.edge_count):
        chain = ordered_4cut_chain(g, e)
        seen_nonempty = seen_nonempty or bool(chain)
        anchor = g.endpoints(e)[0]
        for a, b in zip(chain, chain[1:]):
            assert a.side_a <= b.side_a
        for cut in chain:
            assert anchor in cut.side_a and e in cut.crossing_edges
    assert seen_nonempty


def test_chain_on_ladder_host():
    g = ladder_host(4)
    assert cyclic_edge_connectivity(g).at_least(4)
    for e in range(g.edge_count):
        chain = ordered_4cut_chain(g, e)
        for a, b in zip(chain, chain[1:]):
            assert a.side_a <= b.side_a


def test_chain_requires_c4ec(named_graphs):
    with pytest.raises(NotCyclically4EC):
        ordered_4cut_chain(named_graphs["prism"], 0)


# --- 4-cut surgeries ----------------------------------------------------------------


def _cube_face_cut():
    g = named("cube")
    for cut in enumerate_cuts(g, 4, cyclic_only=True):
        if cut.size == 4:
            return g, cut
    raise AssertionError("cube must have a cyclic 4-cut")


def test_cut_surgery_chords_make_k4_or_parallel_c4():
    g, cut = _cube_face_cut()
    es = sorted(cut.crossing_edges)
    anchors = {}
    for e in es:
        u, v = g.endpoints(e)
        anchors[e] = u if u in cut.side_a else v

    def side_neighbors(e1, e2):
        sub_vertices = sorted(cut.side_a)
        a, b = anchors[e1], anchors[e2]
        return g.multiplicity(a, b) > 0

    paired_kinds = set()
    import itertools

    for other in itertools.combinations(es[1:], 2):
        rest = [e for e in es[1:] if e not in other]
        pairing = ((es[0], rest[0]), other)
        paired, subdivided = cut_surgery_pair(g, cut, pairing)
        assert paired.is_cubic and subdivided.is_cubic
        assert subdivided.vertex_count == len(cut.side_a) + 2
        simple = len(set(paired.edges)) == paired.edge_count
        paired_kinds.add(simple)
    # chords across give K4 (simple), chords along give doubled edges
    assert paired_kinds == {True, False}


def test_cut_surgery_shared_endpoint():
    g = named("cube")
    cut = build_cut(g, {0, 1})
    assert cut.size == 4
    pairing = tuple(sorted(cut.crossing_edges))
    with pytest.raises(SharedEndpoint):
        cut_surgery_pair(g, cut, (pairing[:2], pairing[2:]))
    # the opposite side has four distinct anchors
    paired, subdivided = cut_surgery_pair(g, cut.flipped(g), (pairing[:2], pairing[2:]))
    assert paired.is_cubic and subdivided.is_cubic


# --- k-almost cyclic 4-edge-connectivity ------------------------------------------------


def test_c4ec_graph_is_zero_almost(named_graphs):
    ok, witness = is_k_almost_cyclically_4ec(named_graphs["petersen"], 0)
    assert ok and witness == ()


def test_petersen_with_triangle_is_two_almost(named_graphs):
    g = replace_vertex_with_triangle(named_graphs["petersen"], 0)
    ok, witness = is_k_almost_cyclically_4ec(g, 2)
    assert ok
    assert witness == ((0, 10, 11),)  # exactly the expanded triangle


def test_prism_not_zero_but_two_almost(named_graphs):
    ok0, _ = is_k_almost_cyclically_4ec(named_graphs["prism"], 0)
    assert not ok0
    ok2, witness = is_k_almost_cyclically_4ec(named_graphs["prism"], 2)
    assert ok2 and len(witness) == 1


def _k_almost_corpus() -> list[Multigraph]:
    corpus = [named(k) for k in ("prism", "cube", "petersen")]
    corpus += [random_cubic_bridgeless(s, 12) for s in range(6)]
    corpus += [replace_vertex_with_triangle(named("petersen"), v) for v in (0, 5)]
    return corpus


def _nested_cyclic_3_cuts() -> list[Multigraph]:
    """Triangles blown up inside triangles (cyclic 3-cuts that nest), and the prism."""
    out = [named("prism")]
    for name, v in (("petersen", 0), ("cube", 0), ("prism", 3)):
        once = replace_vertex_with_triangle(named(name), v)
        n = once.vertex_count
        out.append(replace_vertex_with_triangle(once, n - 1))  # inside the new triangle
        out.append(replace_vertex_with_triangle(replace_vertex_with_triangle(once, n - 2), n - 1))
        out.append(replace_vertex_with_triangle(once, (v + 1) % n))  # beside it
    return out


def test_k_almost_matches_slow_reference():
    corpus = _k_almost_corpus()
    for g in corpus:
        for k in (0, 2, 4):
            fast, _ = is_k_almost_cyclically_4ec(g, k)
            assert fast == slow_k_almost_c4ec(g, k)


def _at_the_cap() -> list[Multigraph]:
    """Seeded samples on 18 and 20 vertices, and triangle blow-ups that reach 20."""
    out = [random_cubic_bridgeless(s, n) for n in (18, 20) for s in range(3)]
    two_apart = replace_vertex_with_triangle(named("moebius_kantor"), 0)
    out.append(replace_vertex_with_triangle(two_apart, 8))
    spread, nested = named("petersen"), named("cube")
    for v in range(5):  # one triangle at each outer vertex
        spread = replace_vertex_with_triangle(spread, v)
    while nested.vertex_count < 20:  # each triangle inside the last
        nested = replace_vertex_with_triangle(nested, nested.vertex_count - 1)
    return out + [spread, nested]


def test_k_almost_gives_the_witness_of_the_search_that_sweeps_every_graph():
    deepest = 0
    cases = [(g, k) for g in _k_almost_corpus() + _nested_cyclic_3_cuts() for k in range(7)]
    for g, k in cases + [(g, 4) for g in _at_the_cap()]:
        fresh = Multigraph(g.vertex_count, g.edges)  # a new object: its memo starts empty
        got = is_k_almost_cyclically_4ec(fresh, k)
        assert got == slow_k_almost_search(g, k), (g, k)
        deepest = max(deepest, len(got[1]))
    assert deepest >= 3  # some contracted graph kept a cyclic 3-cut and was contracted again


def test_k_almost_sweeps_only_the_root(monkeypatch):
    calls = []
    sweep = connectivity._crossing_counts
    monkeypatch.setattr(
        connectivity, "_crossing_counts", lambda g, *rest: calls.append(g) or sweep(g, *rest),
    )
    for g in _k_almost_corpus() + _nested_cyclic_3_cuts():
        for k in range(7):
            calls.clear()
            fresh = Multigraph(g.vertex_count, g.edges)
            assert is_k_almost_cyclically_4ec(fresh, k) == is_k_almost_cyclically_4ec(fresh, k)
            assert calls == [fresh], (g, k)


def test_the_k_almost_search_builds_no_graph(monkeypatch):
    built = []
    init = Multigraph.__init__
    monkeypatch.setattr(Multigraph, "__init__", lambda g, *a: init(g, *a) or built.append(g))
    for g in _k_almost_corpus() + _nested_cyclic_3_cuts():
        for k in range(7):
            fresh = Multigraph(g.vertex_count, g.edges)
            built.clear()
            is_k_almost_cyclically_4ec(fresh, k)
            assert built == [], (g, k)


def _bfs_labelled(n: int, edges) -> bool:
    """Do the least lower neighbours, over the vertices that have one, never decrease?

    ``edges`` lists each pair low end first.  A labelling in breadth-first
    order, one component after another, passes, so of the labelled copies
    of each cubic multigraph on n vertices, connected or not, one does.
    """
    least = list(range(n))
    for u, v in edges:
        least[v] = min(least[v], u)
    parents = [least[v] for v in range(1, n) if least[v] < v]
    return parents == sorted(parents)


def test_a_cut_of_a_cubic_graph_within_3_edges_is_cyclic_iff_both_sides_have_2_vertices():
    """2 e(S) = 3|S| - c: with c <= 3, a side of two or more vertices holds a cycle."""
    graphs = [g for g in _k_almost_corpus() + _nested_cyclic_3_cuts() if g.is_cubic]
    graphs += [
        Multigraph(n, edges)
        for n in (2, 4, 6, 8)
        for edges in all_cubic_multigraphs(n)
        if _bfs_labelled(n, edges)
    ]
    for g in graphs:
        masks, sizes = _crossing_counts(g, 3)
        both = [2 <= mask.bit_count() <= g.vertex_count - 2 for mask in masks]
        assert _cyclic_flags(g, masks, sizes) == both, g
