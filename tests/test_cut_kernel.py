"""The bipartition kernel ``connectivity.cut_sums`` against the loops it replaced.

Cut sizes, tight cuts and the odd-set constraints of the matching polytope
all read one weighted cut-sum array; each is compared with the per-edge,
per-matching or per-set loop kept in ``oracles``.  Cut cyclicity, read from
edge counts at the selected masks, is compared with a full ``build_cut`` per
mask, and so are the minimum cyclic cuts that ``cyclic_edge_connectivity``
leaves in the graph's memo; "no cyclic cut below k" is compared with the
connectivity value.  The verifier's bridge test for 3-edge-connectivity is
compared with the cut sweep it replaced.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import bridged_cubic, two_block_chain
from cubicpm import (
    Multigraph,
    cyclic_edge_connectivity,
    enumerate_cuts,
    enumerate_matchings,
    from_edge_list,
    is_matching_covered,
    named,
    polytope_membership,
    random_cubic_bridgeless,
    tight_cuts,
)
from cubicpm import connectivity
from cubicpm.connectivity import (
    _crossing_counts,
    _cycle_certificates,
    cut_sums,
    cyclic_cuts_up_to,
)
from cubicpm.errors import NotMatchingCovered
from cubicpm.matchings import matching_indicator, uniform_third
from cubicpm.verifier import _is_3ec
from oracles import (
    slow_crossing_counts,
    slow_cyclic_edge_connectivity,
    slow_enumerate_cuts,
    slow_is_3ec,
    slow_odd_set_ok,
    slow_tight_cuts,
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


@pytest.mark.parametrize("route", ["cuts", "tight", "polytope"])
@pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[name for name, _ in GRAPHS])
def test_kernel_agrees_with_the_replaced_loops(route, g):
    if route == "cuts":
        assert _crossing_counts(g).tolist() == slow_crossing_counts(g).tolist()
    elif route == "tight" and g.vertex_count <= 16:
        if is_matching_covered(g):
            assert [t.cut.side_a for t in tight_cuts(g)] == slow_tight_cuts(g)
        else:
            with pytest.raises(NotMatchingCovered):
                tight_cuts(g)
    elif route == "polytope":
        for w in _weight_vectors(g):
            assert polytope_membership(g, w, force_odd_set_check=True) == _in_polytope(g, w)


WITH_EMPTY = GRAPHS + [("empty", Multigraph(0, ()))]
CUT_SIZES = (2, 3, 4, 5)


@pytest.mark.parametrize("g", [g for _, g in WITH_EMPTY], ids=[name for name, _ in WITH_EMPTY])
def test_cyclicity_from_the_certificates_agrees_with_a_build_per_mask(g):
    slow = slow_enumerate_cuts(g, max(CUT_SIZES))
    for k in CUT_SIZES:
        want = [cut for cut in slow if cut.size <= k]
        assert enumerate_cuts(g, k, cyclic_only=False) == want
        assert enumerate_cuts(g, k, cyclic_only=True) == [cut for cut in want if cut.cyclic]
    assert cyclic_edge_connectivity(g).value == slow_cyclic_edge_connectivity(g)
    for k in range(1, 7):  # the form every cyclic-k-edge-connectivity test reads
        assert (not cyclic_cuts_up_to(g, k - 1)) == cyclic_edge_connectivity(g).at_least(k)


@pytest.mark.parametrize("g", [g for _, g in WITH_EMPTY], ids=[name for name, _ in WITH_EMPTY])
def test_connectivity_leaves_its_minimum_cyclic_cuts_in_the_memo(g, monkeypatch):
    g = Multigraph(g.vertex_count, g.edges)  # a new object, so its memo starts empty
    value = cyclic_edge_connectivity(g).value
    if value is None:
        return
    want = [cut for cut in slow_enumerate_cuts(g, value) if cut.cyclic]

    def no_second_sweep(_):
        raise AssertionError("swept again")

    monkeypatch.setattr(connectivity, "_crossing_counts", no_second_sweep)
    assert enumerate_cuts(g, value, cyclic_only=True) == want


def test_the_cyclicity_corpus_reaches_every_route():
    """Some cuts are certainly cyclic, some certainly acyclic, some go to the union-find."""
    certain = acyclic = undecided = 0
    for _, g in GRAPHS:
        counts = _crossing_counts(g)
        selected = counts <= max(CUT_SIZES)
        selected[-1] = False
        masks = np.flatnonzero(selected)
        sure, open_ = _cycle_certificates(g, masks, counts[masks])
        certain += int(sure.sum())
        undecided += int(open_.sum())
        acyclic += int((~sure & ~open_).sum())
    assert certain and acyclic and undecided


TWO_K4 = Multigraph(8, named("k4").edges + tuple((u + 4, v + 4) for u, v in named("k4").edges))


@pytest.mark.parametrize(
    "g", [g for _, g in GRAPHS] + [TWO_K4], ids=[name for name, _ in GRAPHS] + ["two_k4"],
)
def test_3_edge_connectivity_by_bridges_agrees_with_the_cut_sweep(g):
    assert _is_3ec(g) == slow_is_3ec(g)


def test_the_cross_check_meets_every_outcome():
    """The corpus has tight cuts, uncovered graphs, odd-set violations and 2-edge cuts."""
    by_name = dict(GRAPHS)
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
    assert cut_sums(g, []).size == 0
    assert enumerate_cuts(g, 3, cyclic_only=False) == []
    assert cyclic_edge_connectivity(g).is_unbounded
    assert tight_cuts(g) == []
    assert polytope_membership(g, {}, force_odd_set_check=True)  # the empty matching


P = 2**64 + 13  # a prime above 2^64


@pytest.mark.parametrize(
    "name,cycle,inside",
    [
        ("petersen", (0, 1, 6, 9, 7, 5), True),
        ("prism", (0, 1, 2, 5, 4, 3), True),  # crosses the triangle cut at + and -
        ("prism", (0, 1, 4, 3), False),  # crosses it twice at -1/P
    ],
)
def test_polytope_is_exact_beyond_int64(name, cycle, inside):
    """uniform_third moved by +-1/P around an even cycle keeps every vertex sum 1.

    The common denominator 3P and the scaled cut sums exceed int64.
    """
    g = named(name)
    w = uniform_third(g)
    for i, (u, v) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
        w[g.edges.index((min(u, v), max(u, v)))] += Fraction((-1) ** i, P)
    assert lcm(*[x.denominator for x in w.values()]) > 2**64
    assert slow_odd_set_ok(g, w) is inside
    assert polytope_membership(g, w, force_odd_set_check=True) is inside
