"""The frontier-ordered matching DP against the label-order recursion it replaced.

Every public matching query (count, existence, per-edge containment,
coverage, enumeration) reads one state DAG; each is compared with the
memoized recursion kept in ``oracles`` on every query kind, including
parallel edges, odd and disconnected graphs and the empty graph.
"""

from itertools import combinations

import pytest

from conftest import bridged_cubic, two_block_chain
from cubicpm import (
    CountQuery,
    Multigraph,
    count_matchings,
    enumerate_matchings,
    from_edge_list,
    has_matching,
    is_matching_covered,
    named,
    random_cubic_bridgeless,
)
from cubicpm.matchings import COUNT_CAP, ENUMERATE_CAP, containment_counts
from oracles import slow_count_matchings, slow_enumerate_matchings

K4 = named("k4")

GRAPHS = [(name, named(name)) for name in (
    "theta", "k4", "k33", "prism", "cube", "petersen",
    "moebius_kantor", "dodecahedron", "exceptional6",
)] + [(f"random{n}", random_cubic_bridgeless(n, n)) for n in range(4, 31, 2)] + [
    ("necklace", from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])),
    ("two_block_chain", two_block_chain()),
    ("bridged", bridged_cubic()),
    ("cube-e", Multigraph(8, named("cube").edges[1:])),
    ("triangle", from_edge_list(3, [(0, 1), (1, 2), (0, 2)])),
    ("petersen-v", Multigraph(9, tuple((u - 1, v - 1) for u, v in named("petersen").edges if u))),
    ("two_k4", Multigraph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges))),
    ("k4+isolated", Multigraph(5, K4.edges)),
    ("empty", Multigraph(0, ())),
]


def _queries(g: Multigraph) -> list[CountQuery]:
    """Each query kind once or a few times, with edges and vertices spread out."""
    n, m = g.vertex_count, g.edge_count
    edges, verts = range(0, m, max(1, m // 4)), range(0, n, max(1, n // 4))
    out = [CountQuery()]
    out += [CountQuery(forbidden=frozenset({e})) for e in edges]
    out += [CountQuery(forbidden=frozenset(p)) for p in combinations(edges, 2)]
    out += [CountQuery(missed_vertices=frozenset(p)) for p in combinations(verts, 2)]
    out += [CountQuery(missed_vertices=frozenset({v})) for v in verts]
    for e, f in combinations(range(m), 2):
        if set(g.endpoints(e)) & set(g.endpoints(f)):  # colliding required edges
            out.append(CountQuery(required=frozenset({e, f})))
            break
    for e, f in combinations(range(m), 2):
        if not set(g.endpoints(e)) & set(g.endpoints(f)):
            out.append(CountQuery(required=frozenset({e, f})))
            rest = sorted(set(range(n)) - set(g.endpoints(e)) - set(g.endpoints(f)))
            out.append(CountQuery(
                required=frozenset({e}),
                forbidden=frozenset({m - 1} - {e, f}),
                missed_vertices=frozenset(rest[:2]),
            ))
            break
    return out


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_dp_agrees_with_the_label_order_recursion(name, g):
    n = g.vertex_count
    for q in _queries(g):
        want = slow_count_matchings(g, q)
        assert count_matchings(g, q) == want, q
        assert has_matching(g, q) == (want > 0), q
        if n <= ENUMERATE_CAP:
            got = [tuple(sorted(m.edge_ids)) for m in enumerate_matchings(g, q)]
            assert got == slow_enumerate_matchings(g, q), q
    through = containment_counts(g)
    assert through == [
        slow_count_matchings(g, CountQuery(required=frozenset({e})))
        for e in range(g.edge_count)
    ]
    total = count_matchings(g)
    for v in range(n):
        assert sum(through[e] for e in g.incident(v)) == total
    assert is_matching_covered(g) == all(through)


def test_colliding_required_edges_and_the_empty_graph():
    assert count_matchings(K4, CountQuery(required=frozenset({0, 1}))) == 0
    assert enumerate_matchings(K4, CountQuery(required=frozenset({0, 1}))) == []
    empty = Multigraph(0, ())
    assert count_matchings(empty) == 1
    assert [m.edge_ids for m in enumerate_matchings(empty)] == [frozenset()]
    assert containment_counts(empty) == [] and is_matching_covered(empty)


def _widest_frontier(g: Multigraph) -> int:
    """Most unplaced neighbours of placed vertices along ``g.frontier_order``."""
    placed: set[int] = set()
    widest = 0
    for v in g.frontier_order:
        placed.add(v)
        boundary = {w for u in placed for w in g.neighbors(u)} - placed
        widest = max(widest, len(boundary))
    return widest


def test_frontier_order_is_a_permutation_with_a_small_frontier():
    for n in (10, 30, COUNT_CAP):
        g = random_cubic_bridgeless(2, n)
        assert sorted(g.frontier_order) == list(range(n))
        # the label order reaches about n/2, and the DP's states grow as 2^width
        assert _widest_frontier(g) <= n // 4 + 2


@pytest.mark.parametrize("n", [40, COUNT_CAP])
def test_counts_beyond_the_recursion_reach_do_not_depend_on_labels(n):
    g = random_cubic_bridgeless(1, n)
    flipped = g.relabel([n - 1 - v for v in range(n)])
    # checked first: a wide order would make the DP below exhaust memory
    assert max(_widest_frontier(g), _widest_frontier(flipped)) <= n // 4 + 2
    assert g.frontier_order != tuple(n - 1 - v for v in flipped.frontier_order)
    total = count_matchings(g)
    assert total == count_matchings(flipped) > 0
    through = containment_counts(g)
    assert through == containment_counts(flipped)
    for v in range(n):
        assert sum(through[e] for e in g.incident(v)) == total
