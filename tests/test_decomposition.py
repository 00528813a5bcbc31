import random

import pytest

from cubicpm import (
    Multigraph,
    brick_count,
    count_matchings,
    decompose,
    elp_bound,
    enumerate_matchings,
    is_isomorphic,
    named,
    random_cubic_bridgeless,
    tight_cuts,
)
from cubicpm.decomposition import TIGHT_CAP
from cubicpm.errors import NotMatchingCovered, TooLarge
from cubicpm.families import NAMED
from cubicpm.multigraph import contract
from cubicpm.verifier import random_instances
from oracles import (
    is_bicritical,
    is_brace,
    is_brick,
    leaf_simple_multiset,
    matching_rank,
    relabel,
    slow_decompose,
)


def test_k4_has_no_nontrivial_tight_cut(named_graphs):
    assert tight_cuts(named_graphs["k4"]) == []


def test_k33_is_tight_cut_free(named_graphs):
    assert tight_cuts(named_graphs["k33"]) == []


def test_tight_cuts_around_removed_edge_neighborhoods(named_graphs):
    # delete one cube edge; the stars of its two endpoints become tight sides
    g = named_graphs["cube"]
    e = g.edges.index((0, 1))
    ge = Multigraph(8, tuple(p for i, p in enumerate(g.edges) if i != e))
    found = set(tight_cuts(ge))
    allv = frozenset(range(8))
    for u in (0, 1):
        side = frozenset({u} | set(ge.neighbors(u)))
        assert len(side) == 3
        assert side in found or (allv - side) in found  # side A holds vertex 0


def test_tight_cut_requires_matching_covered(named_graphs):
    with pytest.raises(NotMatchingCovered):
        tight_cuts(named_graphs["exceptional6"])


def test_tight_cut_size_cap():
    with pytest.raises(TooLarge):
        tight_cuts(random_cubic_bridgeless(0, 18))


# --- brick and brace predicates ------------------------------------------------


def test_brick_brace_classification(named_graphs):
    assert is_brick(named_graphs["k4"])
    assert is_brick(named_graphs["petersen"])
    assert is_brick(named_graphs["prism"])
    assert is_brace(named_graphs["k33"])
    assert is_brace(named_graphs["cube"])
    assert not is_brick(named_graphs["k33"])  # bipartite graphs are never bicritical
    assert not is_bicritical(named_graphs["k33"])


def test_bicritical_details(named_graphs):
    assert is_bicritical(named_graphs["petersen"])
    assert is_bicritical(named_graphs["k4"])


def test_leaf_kinds_agree_with_brick_characterization(named_graphs):
    for name in ("k4", "k33", "prism", "cube", "petersen"):
        for leaf in decompose(named_graphs[name]).leaves():
            if leaf.kind == "brick":
                assert is_brick(leaf.graph)
            else:
                assert is_brace(leaf.graph)


# --- decomposition ----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,b,bound,pms",
    [
        ("k4", 1, 2, 3),
        ("k33", 0, 4, 6),
        ("petersen", 1, 5, 6),
        ("prism", 1, 3, 4),
        ("cube", 0, 5, 9),
        ("theta", 0, 2, 3),
    ],
)
def test_brick_counts_and_elp_bound(name, b, bound, pms):
    g = named(name)
    assert brick_count(g) == b
    assert elp_bound(g) == bound
    assert count_matchings(g) == pms
    assert pms >= bound


def test_brick_count_keeps_an_int_and_reads_a_kept_tree(monkeypatch):
    """``brick_count`` keeps the count and drops its tree; after ``decompose``
    it reads the kept tree and sweeps nothing."""
    from cubicpm import decomposition

    g = named("prism")
    assert brick_count(g) == 1 and "decomposition" not in g._memo
    h = named("prism")
    tree = decompose(h)
    monkeypatch.setattr(decomposition, "tight_cuts", lambda g: pytest.fail("swept again"))
    assert brick_count(h) == 1 and h._memo["decomposition"] is tree


def _rank_deficit(g: Multigraph) -> int:
    """m - n + 2 - rank of g's perfect matchings: b(G) when g is matching-covered."""
    return g.edge_count - g.vertex_count + 2 - matching_rank(g)


def test_brick_count_is_the_matching_rank_deficit():
    """The tight-cut brick count equals the rank route, which reads no tight cut.

    On the named graphs, the seed-7 random corpus of the README batch run
    and Petersen minus an edge, whose two bricks refute LM_BB_3E.  The
    dodecahedron is past the decomposition cap, so its one brick is read
    from the brick characterization instead; exceptional6 is not
    matching-covered, so no identity applies to it.
    """
    dodecahedron = named("dodecahedron")
    assert dodecahedron.vertex_count > TIGHT_CAP
    assert is_brick(dodecahedron) and _rank_deficit(dodecahedron) == 1
    with pytest.raises(NotMatchingCovered):
        brick_count(named("exceptional6"))
    corpus = [named(name) for name in NAMED if name not in ("dodecahedron", "exceptional6")]
    corpus += [inst.graph for inst in random_instances(40, 4, 14, seed=7)]
    for g in corpus:
        assert _rank_deficit(g) == brick_count(g), g.edges
    petersen = named("petersen")
    minus_e = Multigraph(petersen.vertex_count, petersen.edges[1:])
    assert _rank_deficit(minus_e) == brick_count(minus_e) == 2


def test_prism_brick_count_respects_quarter_bound(named_graphs):
    # K4 with one vertex expanded to a triangle
    g = named_graphs["prism"]
    assert brick_count(g) <= g.vertex_count / 4


def test_both_selection_orders_agree(named_graphs):
    corpus = [named_graphs[k] for k in ("k4", "k33", "prism", "cube", "petersen")]
    corpus += [random_cubic_bridgeless(s, 12) for s in range(3)]
    for g in corpus:
        a = leaf_simple_multiset(decompose(g))
        b = leaf_simple_multiset(slow_decompose(g, "lex_max"))
        assert _multiset_isomorphic(a, b)


def _multiset_isomorphic(xs, ys):
    if len(xs) != len(ys):
        return False
    ys = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(ys) if is_isomorphic(x, y)), None)
        if hit is None:
            return False
        ys.pop(hit)
    return True


def test_leaf_multiset_invariant_under_relabeling(named_graphs):
    rng = random.Random(9)
    for name in ("prism", "petersen"):
        g = named_graphs[name]
        base = leaf_simple_multiset(decompose(g))
        for _ in range(5):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            other = leaf_simple_multiset(decompose(relabel(g, perm)))
            assert _multiset_isomorphic(base, other)


def test_tight_cut_projections_are_surjective(named_graphs):
    # every matching of g restricts to a matching of each child, onto
    g = named_graphs["cube"]
    e = g.edges.index((0, 1))
    ge = Multigraph(8, tuple(p for i, p in enumerate(g.edges) if i != e))
    for side_a in tight_cuts(ge):
        for side in (side_a, frozenset(range(8)) - side_a):
            child, trace = contract(ge, side)
            emap = trace.records[0].edge_map  # child edge -> parent edge
            inv = {src: out for out, src in enumerate(emap)}
            child_pms = {m.edge_ids for m in enumerate_matchings(child)}
            projected = set()
            for m in enumerate_matchings(ge):
                proj = frozenset(inv[e2] for e2 in m.edge_ids if e2 in inv)
                assert proj in child_pms
                projected.add(proj)
            assert projected == child_pms
