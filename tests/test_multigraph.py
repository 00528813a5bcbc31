import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpm import (
    b_expand,
    contract,
    find_isomorphism,
    from_edge_list,
    glue,
    is_isomorphic,
    named,
    random_cubic_bridgeless,
    replace_vertex_with_triangle,
    split_off,
)
from cubicpm import connectivity, decomposition, families, matchings, verifier
from cubicpm.errors import (
    DegreeMismatch,
    DisconnectedPart,
    LoopRejected,
    NeighborClash,
    NotAPath,
    RecipeTooLarge,
    VertexIdOutOfRange,
)
from cubicpm.multigraph import (
    Multigraph,
    SurgeryRecord,
    SurgeryTrace,
    automorphisms,
    components,
    isomorphisms,
    split_off_record,
    triangle_record,
)
from conftest import (
    circular_ladder,
    ladder_host,
    moebius_ladder,
    pendant_triangle_chain,
    two_block_chain,
)
from oracles import all_cubic_multigraphs, brute_automorphisms, edge_source, relabel, slow_components


def test_from_edge_list_theta():
    g = from_edge_list(2, [(0, 1), (0, 1), (0, 1)])
    assert g.vertex_count == 2 and g.edge_count == 3 and g.is_cubic


def test_from_edge_list_k4():
    g = from_edge_list(4, list(itertools.combinations(range(4), 2)))
    assert g == named("k4")


def test_loops_rejected():
    with pytest.raises(LoopRejected):
        from_edge_list(4, [(0, 0)])


def test_vertex_id_out_of_range():
    with pytest.raises(VertexIdOutOfRange):
        from_edge_list(2, [(0, 2)])


def test_handshake_on_named(named_graphs):
    for g in named_graphs.values():
        assert sum(g.degrees) == 2 * g.edge_count


# --- contract -------------------------------------------------------------


def test_contract_is_left_inverse_of_triangle_expansion(named_graphs):
    corpus = [named_graphs[k] for k in ("theta", "k4", "k33", "prism", "cube", "petersen")]
    corpus += [random_cubic_bridgeless(s, 12) for s in (1, 2)]
    for g in corpus:
        for v in range(g.vertex_count):
            big = replace_vertex_with_triangle(g, v)
            back, _ = contract(big, {v, g.vertex_count, g.vertex_count + 1})
            assert back == g  # exact, edge ids included
            assert is_isomorphic(back, g)


def test_contract_petersen_five_cycle(named_graphs):
    got, _ = contract(named_graphs["petersen"], {0, 1, 2, 3, 4})
    assert got.vertex_count == 6
    assert got.degree(0) == 5  # merged vertex carries the five spokes
    assert got.edge_count == 10


def test_contract_disconnected_part_rejected(named_graphs):
    # a color class of K33 is independent, so it violates the precondition
    with pytest.raises(DisconnectedPart):
        contract(named_graphs["k33"], {0, 1, 2})


def test_contract_preserves_parallel_edges(named_graphs):
    got, _ = contract(named_graphs["k33"], {0, 1, 2, 3})
    assert got.vertex_count == 3 and got.edge_count == 6
    assert got.multiplicity(0, 1) == 3 and got.multiplicity(0, 2) == 3


def test_contract_trace_replays_bit_for_bit(named_graphs):
    g = named_graphs["petersen"]
    out, trace = contract(g, {0, 1, 2, 3, 4})
    assert trace.replay(g) == out
    # every surviving edge maps back to a spoke or an inner edge
    assert all(edge_source(trace, e) is not None for e in range(out.edge_count))


# --- glue -------------------------------------------------------------------


def test_glue_k4_k4_is_always_the_prism(named_graphs):
    k4 = named_graphs["k4"]
    for perm in itertools.permutations(range(3)):
        pairing = [(k4.incident(0)[i], k4.incident(0)[perm[i]]) for i in range(3)]
        h = glue(k4, 0, k4, 0, pairing)
        assert h.is_cubic and h.vertex_count == 6 and h.edge_count == 9
        assert is_isomorphic(h, named_graphs["prism"])


def test_glue_theta_theta_gives_theta(named_graphs):
    # h is always a disjoint copy, so the fused edges join the two survivors
    th = named_graphs["theta"]
    got = glue(th, 0, th, 0, [(0, 0), (1, 1), (2, 2)])
    assert is_isomorphic(got, th)


def test_glue_with_k4_equals_triangle_replacement(named_graphs):
    g = named_graphs["petersen"]
    k4 = named_graphs["k4"]
    for v in range(g.vertex_count):
        pairing = list(zip(g.incident(v), k4.incident(0)))
        assert is_isomorphic(
            glue(g, v, k4, 0, pairing), replace_vertex_with_triangle(g, v)
        )


def test_glue_requires_cubic():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DegreeMismatch):
        glue(p4, 1, named("k4"), 0, [(0, 0), (1, 1), (2, 2)])


def test_glue_rejects_bad_pairing(named_graphs):
    k4 = named_graphs["k4"]
    with pytest.raises(DegreeMismatch):
        glue(k4, 0, k4, 0, [(0, 0), (0, 1), (1, 2)])


# --- triangle expansion -----------------------------------------------------


def test_triangle_expansion_of_k4(named_graphs):
    got = replace_vertex_with_triangle(named_graphs["k4"], 0)
    assert got.vertex_count == 6 and got.is_cubic
    assert is_isomorphic(got, named_graphs["prism"])


def test_triangle_expansion_of_theta_is_k4(named_graphs):
    for v in (0, 1):
        assert is_isomorphic(
            replace_vertex_with_triangle(named_graphs["theta"], v), named_graphs["k4"]
        )


def test_triangle_expansion_twice(named_graphs):
    g = replace_vertex_with_triangle(named_graphs["k4"], 0)
    g = replace_vertex_with_triangle(g, 3)
    assert g.vertex_count == 8 and g.is_cubic


def test_triangle_expansion_needs_degree_three():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DegreeMismatch):
        replace_vertex_with_triangle(p4, 0)


# --- split off ----------------------------------------------------------------


def test_split_off_petersen(named_graphs):
    h = split_off(named_graphs["petersen"], (0, 1, 2, 3))
    assert h.vertex_count == 8 and h.is_cubic


def test_split_off_result_has_no_small_cyclic_cut(named_graphs):
    from cubicpm import cyclic_edge_connectivity

    g = named_graphs["petersen"]
    for v2, v3 in sorted(set(g.edges)):
        for v1 in g.neighbors(v2):
            if v1 == v3:
                continue
            for v4 in g.neighbors(v3):
                if v4 in (v1, v2):
                    continue
                h = split_off(g, (v1, v2, v3, v4))
                assert cyclic_edge_connectivity(h).at_least(3)


def test_split_off_not_a_path(named_graphs):
    with pytest.raises(NotAPath):
        split_off(named_graphs["petersen"], (0, 1, 0, 2))
    with pytest.raises(NotAPath):
        split_off(named_graphs["petersen"], (0, 2, 4, 6))  # not consecutive edges


def test_split_off_neighbor_clash(named_graphs):
    # in K4 the third neighbors always land on the path
    with pytest.raises(NeighborClash):
        split_off(named_graphs["k4"], (0, 1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_split_off_preserves_parity_and_cubicity(seed):
    import random

    rng = random.Random(seed)
    g = random_cubic_bridgeless(seed, rng.choice([10, 12, 14]))
    paths = []
    for v2 in range(g.vertex_count):
        for v1 in g.neighbors(v2):
            for v3 in g.neighbors(v2):
                if v3 in (v1,):
                    continue
                for v4 in g.neighbors(v3):
                    if v4 not in (v1, v2, v3):
                        paths.append((v1, v2, v3, v4))
    rng.shuffle(paths)
    for path in paths[:3]:
        w1 = [w for w in g.neighbors(path[1]) if w not in path[:3]]
        try:
            h = split_off(g, path)
        except NeighborClash:
            continue
        assert h.vertex_count == g.vertex_count - 2
        assert h.vertex_count % 2 == 0 and h.is_cubic
        assert sum(h.degrees) == 2 * h.edge_count


# --- expansion ------------------------------------------------------------------


def test_b_expand_empty_assignment_is_identity(named_graphs):
    g = named_graphs["petersen"]
    out, trace = b_expand(g, {})
    assert out == g and trace.records == ()


def test_b_expand_single_vertex(named_graphs):
    out, trace = b_expand(named_graphs["k4"], {0: named_graphs["k4"]}, b=3)
    assert is_isomorphic(out, named_graphs["prism"])
    assert trace.replay(named_graphs["k4"]) == out


def test_b_expand_recipe_too_large(named_graphs):
    with pytest.raises(RecipeTooLarge):
        b_expand(named_graphs["k4"], {0: named_graphs["prism"]}, b=3)


def test_b_expand_petersen_round_trip(named_graphs):
    g = named_graphs["petersen"]
    k4 = named_graphs["k4"]
    out, trace = b_expand(g, {v: k4 for v in range(10)}, b=3)
    assert out.vertex_count == 30 and out.is_cubic
    assert trace.replay(g) == out
    clusters = dict(trace.clusters)
    cur = out
    for v in sorted(clusters, reverse=True):
        cur, tr = contract(cur, frozenset(clusters.pop(v)))
        vm = tr.records[0].vertex_map
        clusters = {w: tuple(vm[x] for x in ids) for w, ids in clusters.items()}
    assert is_isomorphic(cur, g)


def test_record_builders_replay():
    g = named("petersen")
    out, rec = triangle_record(g, 4)
    from cubicpm.multigraph import SurgeryTrace

    assert SurgeryTrace((rec,)).replay(g) == out
    out2, rec2 = split_off_record(g, (0, 1, 2, 3))
    assert SurgeryTrace((rec2,)).replay(g) == out2


# --- isomorphism ---------------------------------------------------------------------


def test_isomorphism_under_relabeling(named_graphs):
    import random

    g = named_graphs["petersen"]
    rng = random.Random(5)
    perm = list(range(10))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert is_isomorphic(g, h)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    for u, v in g.edges:
        assert h.multiplicity(mapping[u], mapping[v]) == g.multiplicity(u, v)


def test_non_isomorphic(named_graphs):
    assert not is_isomorphic(named_graphs["prism"], named_graphs["k33"])
    assert find_isomorphism(named_graphs["prism"], named_graphs["k33"]) is None


def _simple_cubic(seed, n):
    """The first simple graph among seeded draws of ``random_cubic_bridgeless``."""
    rng = random.Random(seed)
    while True:
        g = random_cubic_bridgeless(rng.getrandbits(32), n)
        if len(set(g.edges)) == g.edge_count:
            return g


def _relabeled(g, seed):
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@pytest.mark.parametrize(
    "g",
    [named("dodecahedron"), named("moebius_kantor")]
    + [_simple_cubic(seed, n) for n in (20, 24, 30) for seed in (0, 1)],
    ids=["dodecahedron", "moebius_kantor"] + [f"random{n}-{s}" for n in (20, 24, 30) for s in (0, 1)],
)
def test_isomorphism_above_14_vertices(g):
    h = _relabeled(g, g.vertex_count)
    assert is_isomorphic(g, h)
    mapping = find_isomorphism(g, h)
    assert sorted(mapping) == list(range(g.vertex_count))
    for u, v in g.edges:
        assert h.multiplicity(mapping[u], mapping[v]) == g.multiplicity(u, v)


def test_non_isomorphic_cubic_graphs_on_20_vertices():
    g = _simple_cubic(1, 20)
    h = _simple_cubic(2, 20)
    assert not is_isomorphic(g, _relabeled(h, 3))


# --- automorphisms -------------------------------------------------------------------


NECKLACE = from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])
SMALL_GRAPHS = [
    ("two_block_chain", two_block_chain()),
    ("pendant_triangle_chain", pendant_triangle_chain()),
    ("circular_ladder4", circular_ladder(4)),
    ("moebius_ladder4", moebius_ladder(4)),
    ("ladder_host2", ladder_host(2)),
    ("necklace", NECKLACE),
    ("k4_and_theta", Multigraph(6, named("k4").edges + ((4, 5),) * 3)),
    ("two_k4", Multigraph(8, named("k4").edges + tuple((u + 4, v + 4) for u, v in named("k4").edges))),
    ("path_and_digon", from_edge_list(5, [(0, 1), (1, 2), (3, 4), (3, 4)])),
    ("empty", Multigraph(0, ())),
]


def test_automorphisms_are_the_permutations_that_keep_the_edges(named_graphs):
    """Every fixture graph of at most 8 vertices, and every cubic multigraph on 2 and 4."""
    graphs = [g for g in named_graphs.values() if g.vertex_count <= 8]
    graphs += [g for _, g in SMALL_GRAPHS]
    graphs += [from_edge_list(n, edges) for n in (2, 4) for edges in all_cubic_multigraphs(n)]
    assert any(len(set(g.edges)) < g.edge_count for g in graphs)
    assert any(len(components(g)) > 1 for g in graphs)
    for g in graphs:
        assert sorted(automorphisms(g)) == brute_automorphisms(g), g


@pytest.mark.parametrize("name, order", [
    ("k4", 24), ("k33", 72), ("prism", 12), ("cube", 48), ("petersen", 120),
    ("moebius_kantor", 96), ("dodecahedron", 120),
])
def test_automorphism_group_orders(name, order):
    g = named(name)
    group = automorphisms(g)
    assert len(group) == len(set(group)) == order
    assert automorphisms(g) is group  # kept in the graph's memo


@pytest.mark.parametrize(
    "g", [named("petersen"), named("cube"), NECKLACE], ids=["petersen", "cube", "necklace"],
)
def test_isomorphisms_are_the_automorphisms_moved_by_a_relabelling(g):
    perm = list(range(g.vertex_count))
    random.Random(5).shuffle(perm)
    h = relabel(g, perm)
    want = sorted(tuple(perm[a[v]] for v in range(g.vertex_count)) for a in automorphisms(g))
    assert sorted(map(tuple, isomorphisms(g, h))) == want
    assert tuple(find_isomorphism(g, h)) in want


# --- connected parts -----------------------------------------------------------------


TWO_K4 = Multigraph(8, named("k4").edges + tuple((u + 4, v + 4) for u, v in named("k4").edges))
PARTS_GRAPHS = [(name, named(name)) for name in (
    "theta", "k4", "k33", "prism", "cube", "petersen",
    "moebius_kantor", "dodecahedron", "exceptional6",
)] + [("two_k4", TWO_K4), ("empty", Multigraph(0, ())), ("one_vertex", Multigraph(1, ()))]


@pytest.mark.parametrize("g", [g for _, g in PARTS_GRAPHS], ids=[n for n, _ in PARTS_GRAPHS])
def test_components_is_the_union_find_partition(g):
    rng = random.Random(g.vertex_count)
    n, m = g.vertex_count, g.edge_count
    vertex_sets = [None, set(), set(range(n))] + [
        set(rng.sample(range(n), k)) for k in range(1, n) for _ in range(2)
    ]
    skips = [frozenset()] + [frozenset({e}) for e in range(m)]
    pairs = list(itertools.combinations(range(m), 2))
    skips += [frozenset(p) for p in rng.sample(pairs, min(len(pairs), 40))]
    for vertices in vertex_sets:
        for skip in skips:
            got = components(g, vertices, skip)
            assert got == slow_components(g, vertices, skip), (vertices, skip)


def test_components_on_the_small_cases():
    assert components(Multigraph(0, ())) == []
    assert components(Multigraph(1, ())) == [frozenset({0})]
    assert components(TWO_K4) == [frozenset(range(4)), frozenset(range(4, 8))]
    theta = named("theta")
    assert components(theta, skip=frozenset({0, 1})) == [frozenset({0, 1})]
    assert components(theta, skip=frozenset({0, 1, 2})) == [frozenset({0}), frozenset({1})]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_handshake_after_surgeries(seed):
    g = random_cubic_bridgeless(seed, 10)
    assert sum(g.degrees) == 2 * g.edge_count
    exp = replace_vertex_with_triangle(g, seed % 10)
    assert sum(exp.degrees) == 2 * exp.edge_count and exp.is_cubic
    back, _ = contract(exp, {seed % 10, 10, 11})
    assert sum(back.degrees) == 2 * back.edge_count and back == g


def _value_objects():
    """One instance of each frozen value class of the package but ``Multigraph``."""
    g = named("k4")
    net = families.TwistedNetRecipe()
    return [
        connectivity.EdgeCut(frozenset({0}), frozenset({0, 1, 2}), 3, False),
        connectivity.CyclicConnectivity(3),
        connectivity._Sweep(3, [], [], []),
        decomposition.DecompositionNode(g, "brick"),
        matchings.Matching((0,)),
        matchings.CountQuery(),
        matchings.SpecialPairResult(True),
        SurgeryRecord("contract", (), (), ()),
        SurgeryTrace(()),
        families.KleeRecipe(),
        families.Increment(0, 1),
        families.Multiply(net, 0, 1, 2, 3),
        net,
        families._Net(4, (), ()),
        verifier.Bound.rational(1),
        verifier.Instance("k4", g),
        verifier._LEMMAS[verifier.LemmaId.TH_HALF],
    ]


@pytest.mark.parametrize("value", _value_objects(), ids=lambda v: type(v).__name__)
def test_value_classes_are_slotted(value):
    """No per-instance dict: a new attribute is refused even past the frozen guard."""
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1)


def _records():
    return [value for value in _value_objects() if isinstance(value, tuple)]


def test_every_value_class_but_one_is_a_named_tuple():
    """``SpecialPairResult`` stays a plain slotted class: it leaves its
    coloring out of equality, which a tuple cannot."""
    assert [type(v).__name__ for v in _value_objects() if not isinstance(v, tuple)] == [
        "SpecialPairResult"
    ]
    assert len(_records()) == 16 and all(type(v)._fields for v in _records())


@pytest.mark.parametrize("value", _records(), ids=lambda v: type(v).__name__)
def test_records_refuse_assignment_to_a_field(value):
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    assert not hasattr(value, "__dict__")


def test_the_plain_value_classes_keep_their_frozen_semantics():
    """``Multigraph`` and ``SpecialPairResult`` refuse assignment, compare
    and hash by their fields within the class, and keep their reprs."""
    g, twin = named("k4"), Multigraph(4, tuple((v, u) for u, v in named("k4").edges))
    assert g == twin and hash(g) == hash((4, g.edges)) == hash(twin)
    assert g != Multigraph(4, g.edges[1:]) and g != (4, g.edges)
    assert repr(g).startswith("Multigraph(n=4, m=6, edges=[(0, 1)")
    found = matchings.SpecialPairResult(False, {0: 1})
    assert found == matchings.SpecialPairResult(False) != matchings.SpecialPairResult(True)
    assert hash(found) == hash(matchings.SpecialPairResult(False))
    assert repr(found) == "SpecialPairResult(pm_exists=False, coloring={0: 1})"
    for value, field in ((g, "edges"), (g, "vertex_count"), (found, "coloring")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    assert g.edges == twin.edges and found.coloring == {0: 1}


def test_multigraph_keeps_its_dict_for_the_cached_properties():
    g = named("petersen")
    order, memo = g.frontier_order, g._memo
    assert g.frontier_order is order and g._memo is memo
    assert {"frontier_order", "_memo"} <= set(vars(g))
