from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NAMED_CUBIC_BRIDGELESS,
    bridged_cubic,
    circular_ladder,
    pendant_triangle_chain,
    two_block_chain,
)
from cubicpm import (
    CountQuery,
    count_matchings,
    enumerate_matchings,
    fractional_pm_via_flow,
    from_edge_list,
    has_matching,
    is_double_covered,
    is_matching_covered,
    kotzig_bridge,
    named,
    polytope_membership,
    random_cubic_bridgeless,
    special_pair,
)
from cubicpm import matchings
from cubicpm.errors import (
    FlowInfeasible,
    InconsistentQuery,
    NotCyclically4EC,
    NotUniquePM,
    TooLarge,
)
from cubicpm.matchings import (
    _bipartition_with_pattern,
    containment_counts,
    uniform_third,
)
from oracles import (
    biadjacency,
    brute_pm_count,
    flow_contraction_instance,
    matching_indicator,
    permanent,
    slow_patterned_pairs,
)

SIXTHS = {Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)}


def test_named_counts(named_graphs):
    assert count_matchings(named_graphs["theta"]) == 3
    assert count_matchings(named_graphs["k4"]) == 3
    assert count_matchings(named_graphs["petersen"]) == 6
    assert count_matchings(named_graphs["k33"]) == 6
    assert count_matchings(named_graphs["cube"]) == 9


def test_counts_against_brute_force(named_graphs):
    for name in NAMED_CUBIC_BRIDGELESS:
        g = named_graphs[name]
        assert count_matchings(g) == brute_pm_count(g)


def test_bipartite_counts_match_permanent(named_graphs):
    corpus = [named_graphs["k33"], named_graphs["cube"], circular_ladder(6),
              named_graphs["moebius_kantor"], named_graphs["theta"]]
    for g in corpus:
        bi = biadjacency(g)
        assert bi is not None
        mat, _, _ = bi
        assert count_matchings(g) == permanent(mat)
        if g.vertex_count <= 16:
            # enumeration route agrees as well where it is feasible
            assert len(enumerate_matchings(g)) == permanent(mat)


def test_forbidden_and_required(named_graphs):
    k4 = named_graphs["k4"]
    for e in range(6):
        assert count_matchings(k4, CountQuery(forbidden=frozenset({e}))) == 2
        assert count_matchings(k4, CountQuery(required=frozenset({e}))) == 1


def test_parallel_edges_count_separately(named_graphs):
    th = named_graphs["theta"]
    for e in range(3):
        assert count_matchings(th, CountQuery(required=frozenset({e}))) == 1


def test_enumerate_k4_disjoint(named_graphs):
    ms = enumerate_matchings(named_graphs["k4"])
    assert len(ms) == 3
    ids = [m.edge_ids for m in ms]
    assert ids[0] & ids[1] == frozenset() and ids[1] & ids[2] == frozenset()


def test_enumerate_petersen_each_edge_twice(named_graphs):
    g = named_graphs["petersen"]
    ms = enumerate_matchings(g)
    assert len(ms) == 6
    for e in range(g.edge_count):
        assert sum(e in m.edge_ids for m in ms) == 2


def test_enumerate_is_sorted(named_graphs):
    ms = enumerate_matchings(named_graphs["cube"])
    keys = [tuple(sorted(m.edge_ids)) for m in ms]
    assert keys == sorted(keys)


def test_near_perfect_on_c4():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ms = enumerate_matchings(c4, CountQuery(missed_vertices=frozenset({0, 1})))
    assert len(ms) == 1 and ms[0].edge_ids == frozenset({2})


def test_query_validation(named_graphs, monkeypatch):
    g = named_graphs["k4"]
    with pytest.raises(InconsistentQuery):
        count_matchings(g, CountQuery(required=frozenset({0}), forbidden=frozenset({0})))
    with pytest.raises(InconsistentQuery):
        count_matchings(
            g, CountQuery(required=frozenset({0}), missed_vertices=frozenset({0}))
        )
    monkeypatch.setattr(matchings, "STATE_CAP", 8)
    with pytest.raises(TooLarge, match="counting capped at 8 DP states"):
        count_matchings(random_cubic_bridgeless(0, 66))


def test_counting_consistency_at_each_vertex(named_graphs):
    corpus = [named_graphs[k] for k in NAMED_CUBIC_BRIDGELESS]
    corpus += [random_cubic_bridgeless(s, 12) for s in range(3)]
    for g in corpus:
        total = count_matchings(g)
        for v in range(g.vertex_count):
            parts = sum(
                count_matchings(g, CountQuery(required=frozenset({e})))
                for e in g.incident(v)
            )
            assert parts == total


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_count_equals_enumeration_on_random_graphs(seed):
    g = random_cubic_bridgeless(seed, 10)
    assert count_matchings(g) == len(enumerate_matchings(g)) == brute_pm_count(g)


# --- coverage predicates -----------------------------------------------------


def test_every_cubic_bridgeless_graph_is_matching_covered(named_graphs):
    corpus = [named_graphs[k] for k in NAMED_CUBIC_BRIDGELESS]
    corpus += [random_cubic_bridgeless(s, 12) for s in range(4)]
    for g in corpus:
        assert is_matching_covered(g)


def test_petersen_is_double_covered(named_graphs):
    assert is_double_covered(named_graphs["petersen"])


def test_non_klee_cyclically_3ec_graphs_are_double_covered(named_graphs):
    from cubicpm import enumerate_cuts, is_klee

    corpus = [named_graphs[k] for k in ("petersen", "k33", "cube")]
    corpus += [random_cubic_bridgeless(s, 10) for s in range(8)]
    checked = 0
    for g in corpus:
        if enumerate_cuts(g, 2, cyclic_only=False) or is_klee(g):
            continue
        assert is_double_covered(g)
        checked += 1
    assert checked >= 5


def test_prism_is_not_double_covered(named_graphs):
    # the 6-vertex Klee graph: each triangle edge sits in exactly one matching
    g = named_graphs["prism"]
    counts = containment_counts(g)
    assert not is_double_covered(g)
    assert min(counts) == 1
    assert sorted(counts) == [1, 1, 1, 1, 1, 1, 2, 2, 2]


def test_pm_avoiding_any_two_edges(named_graphs):
    for name in NAMED_CUBIC_BRIDGELESS:
        g = named_graphs[name]
        for e in range(g.edge_count):
            for f in range(e + 1, g.edge_count):
                assert has_matching(g, CountQuery(forbidden=frozenset({e, f})))


# --- Kotzig's bridge -----------------------------------------------------------


def test_kotzig_single_edge():
    assert kotzig_bridge(from_edge_list(2, [(0, 1)])) == 0


def test_kotzig_path():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    e = kotzig_bridge(p4)
    assert e in (0, 2)  # both end edges are bridges in the unique matching


def test_kotzig_pendant_triangle_chain():
    g = pendant_triangle_chain()
    assert count_matchings(g) == 1
    e = kotzig_bridge(g)
    from cubicpm import bridges

    (pm,) = enumerate_matchings(g)
    assert e in bridges(g) and e in pm.edge_ids


def test_kotzig_rejects_multiple_matchings(named_graphs):
    with pytest.raises(NotUniquePM):
        kotzig_bridge(named_graphs["k4"])


# --- avoid-e/contain-f structure --------------------------------------------------


def test_special_pair_on_cube_every_pair_has_a_matching(named_graphs):
    g = named_graphs["cube"]
    pairs = 0
    for e in range(g.edge_count):
        for f in range(g.edge_count):
            if e == f:
                continue
            res = special_pair(g, e, f)
            assert res.pm_exists and res.coloring is None
            pairs += 1
    assert pairs == 132  # both orders of the 66 unordered pairs


def test_special_pair_structure_branch_on_k4(named_graphs):
    g = named_graphs["k4"]
    # opposite edges: the only matching through one contains the other
    e = g.edges.index((0, 1))
    f = g.edges.index((2, 3))
    res = special_pair(g, e, f)
    assert not res.pm_exists
    col = res.coloring
    assert col[0] == col[1] and col[2] == col[3] and col[0] != col[2]


PATTERN_GRAPHS = [(name, named(name)) for name in ("theta", "k4", "k33", "prism", "cube", "petersen")]
PATTERN_GRAPHS += [("random8", random_cubic_bridgeless(3, 8)), ("random10", random_cubic_bridgeless(4, 10))]
# In a cubic graph, parity alone keeps the ends of e and f apart; in a cycle
# it does not: C6 minus two opposite edges forces all four ends into one class.
PATTERN_GRAPHS += [("cycle6", from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)]))]


@pytest.mark.parametrize("g", [g for _, g in PATTERN_GRAPHS], ids=[n for n, _ in PATTERN_GRAPHS])
def test_bipartition_with_pattern_is_exactly_the_brute_force(g):
    """A coloring comes back for exactly the pairs some 2-coloring fits, and it fits."""
    want = slow_patterned_pairs(g)
    got = set()
    for e in range(g.edge_count):
        for f in range(g.edge_count):
            if e == f:
                continue
            color = _bipartition_with_pattern(g, e, f)
            if color is None:
                continue
            got.add((e, f))
            assert sorted(color) == list(range(g.vertex_count))
            assert {color[v] for v in g.endpoints(e)} == {0}
            assert {color[v] for v in g.endpoints(f)} == {1}
            for i, (u, v) in enumerate(g.edges):
                assert i in (e, f) or color[u] != color[v]
    assert got == want


def test_the_pattern_corpus_meets_both_outcomes():
    counts = {name: len(slow_patterned_pairs(g)) for name, g in PATTERN_GRAPHS}
    assert counts["k4"] == 6 and counts["random8"] and counts["random10"]
    assert counts["theta"] == counts["cube"] == counts["petersen"] == 0
    assert counts["cycle6"] == 12  # 30 ordered pairs, less 12 sharing an end and 6 opposite


def test_special_pair_on_petersen_smoke(named_graphs):
    g = named_graphs["petersen"]
    for e, f in ((0, 7), (3, 11), (1, 14)):
        assert special_pair(g, e, f).pm_exists


def test_special_pair_validation(named_graphs):
    with pytest.raises(InconsistentQuery):
        special_pair(named_graphs["cube"], 2, 2)
    with pytest.raises(NotCyclically4EC):
        special_pair(named_graphs["prism"], 0, 1)


# --- matching polytope --------------------------------------------------------------


def test_uniform_third_accepted_on_bridgeless(named_graphs):
    for name in NAMED_CUBIC_BRIDGELESS:
        g = named_graphs[name]
        assert polytope_membership(g, uniform_third(g))


def test_uniform_third_rejected_on_bridged():
    g = bridged_cubic()
    from cubicpm import bridges

    assert g.is_cubic and len(bridges(g)) == 1
    assert not polytope_membership(g, uniform_third(g))


def test_matching_indicators_are_vertices(named_graphs):
    g = named_graphs["petersen"]
    for m in enumerate_matchings(g):
        assert polytope_membership(g, matching_indicator(g, m))


def test_polytope_rejects_bad_vertex_sums(named_graphs):
    g = named_graphs["k4"]
    w = {e: Fraction(1, 2) for e in range(g.edge_count)}
    assert not polytope_membership(g, w)


def test_bipartite_skip_agrees_with_full_check(named_graphs):
    g = named_graphs["k33"]
    w = uniform_third(g)
    assert polytope_membership(g, w) == polytope_membership(
        g, w, force_odd_set_check=True
    )


# --- fractional matchings from the 4-unit flow ----------------------------------------


def _check_flow_vector(h, w):
    assert set(w.values()) <= SIXTHS
    for v in range(h.vertex_count):
        assert sum(w[e] for e in h.incident(v)) == 1
    assert polytope_membership(h, w, force_odd_set_check=True)
    # strictly positive entries certify matching-coverage
    assert all(x > 0 for x in w.values())
    assert is_matching_covered(h)


def test_flow_on_smallest_instance():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = fractional_pm_via_flow(c4, 0, 2, 1, 3)
    _check_flow_vector(c4, w)


@pytest.mark.parametrize("builder,e", [("k4", 0), ("prism", 0)])
def test_flow_on_contractions_from_named(builder, e):
    g = named(builder)
    h, u, u2, v, v2 = flow_contraction_instance(g, e)
    w = fractional_pm_via_flow(h, u, u2, v, v2)
    _check_flow_vector(h, w)


def test_flow_on_contractions_from_klee_graphs():
    from cubicpm import Multigraph, random_klee
    from cubicpm.connectivity import enumerate_cuts

    built = 0
    for seed, n in ((11, 8), (3, 10), (5, 10)):
        g = random_klee(seed, n)
        bad = set()
        for cut in enumerate_cuts(g, 3, cyclic_only=True):
            if cut.size == 3:
                bad |= cut.crossing_edges
        for e in range(g.edge_count):
            if e in bad:
                continue
            ge = Multigraph(n, tuple(p for i, p in enumerate(g.edges) if i != e))
            if is_matching_covered(ge):
                continue
            h, u, u2, v, v2 = flow_contraction_instance(g, e)
            w = fractional_pm_via_flow(h, u, u2, v, v2)
            _check_flow_vector(h, w)
            built += 1
            break
    assert built >= 2  # the scenario must actually arise, not be skipped


def test_flow_rejects_wrong_shape(named_graphs):
    with pytest.raises(FlowInfeasible):
        fractional_pm_via_flow(named_graphs["k4"], 0, 1, 2, 3)  # not bipartite
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(FlowInfeasible):
        fractional_pm_via_flow(c4, 0, 1, 2, 3)  # u, u2 in different classes
