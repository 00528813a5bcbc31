"""The frontier-ordered matching DP against the label-order recursion it replaced.

Every public matching query (count, existence, per-edge containment,
per-pair containment, coverage, enumeration) reads the graph's one DP
table, which only ``matchings._table`` builds; an enumeration with a query
reads the table of the graph the query leaves.  Each is compared with the
memoized recursion kept in ``oracles`` on every query kind, including
parallel edges, odd and disconnected graphs and the empty graph, and the
table's moves and state cap are pinned.  So are the lemma checks that read
avoided and contained edges from per-edge and per-pair counts instead of
one count per slot.  The DP's frontier order is compared with a greedy
that recounts every cost at each step, and it leaves no neighbour table on
the graph; the enumerated matchings keep only their sorted edge-id tuples.
"""

from itertools import combinations, permutations

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
from cubicpm.connectivity import (
    CUT_CAP,
    cyclic_edge_connectivity,
    enumerate_cuts,
)
from cubicpm import connectivity, matchings
from cubicpm.errors import TooLarge
from cubicpm.matchings import (
    ENUMERATE_CAP,
    containment_counts,
    pair_counts,
    special_pair,
)
from cubicpm.verifier import Instance, _avoid_count, _check_thm_ef
from oracles import (
    relabel,
    slow_avoid_count,
    slow_contain_avoid,
    slow_count_matchings,
    slow_enumerate_matchings,
    slow_frontier_order,
    slow_neighbors,
    slow_worst_avoided_pair,
)

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
    edges, verts = list(edges), list(verts)
    out = [CountQuery()]
    out += [CountQuery(forbidden=frozenset({e})) for e in edges]
    out += [CountQuery(forbidden=frozenset(p)) for p in combinations(edges, 2)]
    out += [CountQuery(forbidden=frozenset(edges[:k])) for k in (3, 4)]
    out += [CountQuery(missed_vertices=frozenset(p)) for p in combinations(verts, 2)]
    out += [CountQuery(missed_vertices=frozenset({v})) for v in verts]
    out += [CountQuery(missed_vertices=frozenset(verts[:k])) for k in (3, 4)]  # 3 is odd
    if n:  # the edges at the first vertex of the frontier order share their earlier end
        at_first = g.incident(g.frontier_order[0])
        out.append(CountQuery(forbidden=frozenset(at_first[:2]) | {edges[-1]}))
        out.append(CountQuery(forbidden=frozenset(at_first) | set(edges[1:2])))
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
            out.append(CountQuery(  # e and the edges at a missed vertex are forbidden
                required=frozenset({f}),
                forbidden=frozenset({e, *g.incident(rest[0])} - {f}),
                missed_vertices=frozenset(rest[:3:2]),
            ) if rest else CountQuery(required=frozenset({f}), forbidden=frozenset({e})))
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
            ms = enumerate_matchings(g, q)
            assert [m.edges for m in ms] == slow_enumerate_matchings(g, q), q
            for m in ms:  # the sorted tuple is the set and the JSON form
                assert m.edges == tuple(sorted(m.edge_ids)) and m.to_json() == list(m.edges), q
    through = containment_counts(g)
    assert through == [
        slow_count_matchings(g, CountQuery(required=frozenset({e})))
        for e in range(g.edge_count)
    ]
    total = count_matchings(g)
    for v in range(n):
        assert sum(through[e] for e in g.incident(v)) == total
    assert is_matching_covered(g) == all(through)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_constrained_counts_do_not_depend_on_what_the_table_holds(name, g):
    """A constrained count reads the graph's one DP table: the same answers
    on a fresh graph object (the count builds the table), after
    ``count_matchings`` (forward pass only) and after ``containment_counts``
    (backward pass too)."""
    queries = _queries(g)[1:]

    def fresh() -> Multigraph:
        return Multigraph(g.vertex_count, g.edges)

    alone = [count_matchings(fresh(), q) for q in queries]
    counted, covered = fresh(), fresh()
    count_matchings(counted)
    containment_counts(covered)
    assert counted._memo["dp"]._outside is None is not covered._memo["dp"]._outside
    assert [count_matchings(counted, q) for q in queries] == alone
    assert [count_matchings(covered, q) for q in queries] == alone
    assert list(counted._memo) == ["dp"]  # constrained counts are not kept


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_pair_counts_agree_with_one_count_per_pair(name, g):
    m = g.edge_count
    total, through, pairs = count_matchings(g), containment_counts(g), pair_counts(g)
    assert [pairs[f][f] for f in range(m)] == through
    # every ordered pair where n <= 12, so e comes before, at and after f's position
    step = 1 if g.vertex_count <= 12 else max(1, m // 6)
    for e, f in permutations(range(0, m, step), 2):
        assert pairs[f][e] == slow_count_matchings(g, CountQuery(required=frozenset({e, f})))
        avoid_both = slow_count_matchings(g, CountQuery(forbidden=frozenset({e, f})))
        assert total - through[e] - through[f] + pairs[e][f] == avoid_both
        assert through[f] - pairs[f][e] == slow_contain_avoid(g, f, e)
    assert [_avoid_count(g, e) for e in range(m)] == [slow_avoid_count(g, e) for e in range(m)]
    if 2 <= m and g.vertex_count <= 20:  # the oracle counts every pair
        worst, pair = slow_worst_avoided_pair(g)
        report = _check_thm_ef(Instance(name, g), None)
        assert (report["measured"], report["slot"]) == (worst, (pair,))
    if g.is_cubic and 0 < g.vertex_count <= CUT_CAP and cyclic_edge_connectivity(g).at_least(4):
        for e, f in permutations(range(0, m, max(1, m // 6)), 2):
            assert special_pair(g, e, f).pm_exists == (slow_contain_avoid(g, f, e) > 0)


def test_colliding_required_edges_and_the_empty_graph():
    assert count_matchings(K4, CountQuery(required=frozenset({0, 1}))) == 0
    assert enumerate_matchings(K4, CountQuery(required=frozenset({0, 1}))) == []
    empty = Multigraph(0, ())
    assert count_matchings(empty) == 1
    assert [m.edge_ids for m in enumerate_matchings(empty)] == [frozenset()]
    assert containment_counts(empty) == [] and is_matching_covered(empty)


def test_the_dp_stops_before_a_level_past_the_state_cap(monkeypatch):
    """The table expands its group p only while the states it holds plus the
    group's size times its move count stay within ``STATE_CAP``.  The states
    held before group p is expanded are those reached from the start by the
    groups before it; ``need`` is the most the cube's table asks for."""
    g = named("cube")
    pos = {v: p for p, v in enumerate(g.frontier_order)}
    reached, need = {0}, 0
    for p in range(g.vertex_count):
        group = [s for s in reached if (~s & (s + 1)).bit_length() - 1 == p]
        later = [max(pos[u], pos[v]) for u, v in g.edges if min(pos[u], pos[v]) == p]
        need = max(need, len(reached) + len(group) * len(later))
        reached |= {s | 1 << p | 1 << z for s in group for z in later if not s >> z & 1}
    assert len(reached) == sum(map(len, matchings._table(g).groups))  # the whole table
    missed = CountQuery(missed_vertices=frozenset({0, 1}))
    monkeypatch.setattr(matchings, "STATE_CAP", need)
    assert count_matchings(named("cube")) == len(enumerate_matchings(named("cube"))) == 9
    assert containment_counts(named("cube")) == [3] * 12  # the cube is edge-transitive
    assert count_matchings(named("cube"), missed) == slow_count_matchings(g, missed)
    monkeypatch.setattr(matchings, "STATE_CAP", need - 1)
    for query in (
        count_matchings, containment_counts, enumerate_matchings,
        lambda g: count_matchings(g, missed),
    ):
        with pytest.raises(TooLarge, match=f"capped at {need - 1} DP states"):
            query(named("cube"))


def test_each_edge_is_one_move_at_its_earlier_end():
    """Each edge is one move of the table, kept at the earlier of its ends'
    frontier positions and pointing to the later one; the table keeps each
    vertex's position."""
    for name, g in GRAPHS:
        dag = matchings._table(g)
        pos = {v: p for p, v in enumerate(g.frontier_order)}
        assert dag.pos == [pos[v] for v in range(g.vertex_count)], name
        moves = [(e, p, b) for p, at in enumerate(dag.moves) for e, b in at]
        assert sorted(e for e, _, _ in moves) == list(range(g.edge_count)), name
        for e, p, b in moves:
            assert [p, b.bit_length() - 1] == sorted(pos[v] for v in g.endpoints(e)), name


def _widest_frontier(g: Multigraph) -> int:
    """Most unplaced neighbours of placed vertices along ``g.frontier_order``."""
    placed: set[int] = set()
    widest = 0
    for v in g.frontier_order:
        placed.add(v)
        boundary = {w for u in placed for w in g.neighbors(u)} - placed
        widest = max(widest, len(boundary))
    return widest


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_the_neighbour_table_equals_the_per_call_route(name, g):
    vertices = range(g.vertex_count)
    assert [g.neighbors(v) for v in vertices] == [slow_neighbors(g, v) for v in vertices]


@pytest.mark.parametrize("name,g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_frontier_order_is_the_recounted_greedy_and_keeps_no_neighbour_table(name, g):
    fresh = Multigraph(g.vertex_count, g.edges)
    assert fresh.frontier_order == slow_frontier_order(g)
    assert "_neighbors" not in vars(fresh)


def test_matching_and_cut_queries_leave_no_neighbour_table():
    """A one-shot graph asked for its count and its cuts keeps no neighbour table."""
    g = random_cubic_bridgeless(3, 16)
    assert count_matchings(g) > 0 and enumerate_cuts(g, 3, cyclic_only=False)
    assert cyclic_edge_connectivity(g).value and containment_counts(g)
    assert "frontier_order" in vars(g) and "sweep" in g._memo
    assert "_neighbors" not in vars(g)


def test_frontier_order_is_a_permutation_with_a_small_frontier():
    for n in (10, 30, 64):
        g = random_cubic_bridgeless(2, n)
        assert sorted(g.frontier_order) == list(range(n))
        # the label order reaches about n/2, and the DP's states grow as 2^width
        assert _widest_frontier(g) <= n // 4 + 2


@pytest.mark.parametrize("n", [40, 64])
def test_counts_beyond_the_recursion_reach_do_not_depend_on_labels(n):
    g = random_cubic_bridgeless(1, n)
    flipped = relabel(g, [n - 1 - v for v in range(n)])
    # checked first: a wide order would make the DP below exhaust memory
    assert max(_widest_frontier(g), _widest_frontier(flipped)) <= n // 4 + 2
    assert g.frontier_order != tuple(n - 1 - v for v in flipped.frontier_order)
    total = count_matchings(g)
    assert total == count_matchings(flipped) > 0
    through = containment_counts(g)
    assert through == containment_counts(flipped)
    for v in range(n):
        assert sum(through[e] for e in g.incident(v)) == total


CUT_QUERIES = {  # each lists the objects it hands out
    "cyclic_edge_connectivity": lambda h: [cyclic_edge_connectivity(h)],
    "enumerate_cuts cyclic_only": lambda h: enumerate_cuts(h, 4, cyclic_only=True),
    "enumerate_cuts": lambda h: enumerate_cuts(h, 3, cyclic_only=False),
}


def test_the_memo_belongs_to_one_graph_object_and_not_to_its_equality():
    """The counts and the cyclic connectivity are kept on the graph object
    asked; its cut lists are built afresh on each call from the one sweep
    that object keeps.  An equal graph object keeps nothing."""
    g, twin = random_cubic_bridgeless(3, 12), random_cubic_bridgeless(3, 12)
    pairs = pair_counts(g)
    assert g == twin and hash(g) == hash(twin)
    assert g._memo and not twin._memo
    assert pair_counts(g) is pairs and pair_counts(twin) == pairs
    for name, query in CUT_QUERIES.items():
        twin, kept = random_cubic_bridgeless(3, 12), len(g._memo)
        got = query(g)
        assert got and not twin._memo, name
        if name == "cyclic_edge_connectivity":
            assert len(g._memo) > kept, name
            assert all(a is b for a, b in zip(query(g), got)), name
        else:  # the kept object is the sweep, and each call builds new cuts from it
            sweep = g._memo["sweep"]
            again = query(g)
            assert g._memo["sweep"] is sweep is connectivity._unit_sweep(g, 4), name
            assert again == got and not any(a is b for a, b in zip(again, got)), name
        fresh = query(twin)
        assert fresh == got and not any(a is b for a, b in zip(fresh, got)), name
        assert twin._memo["sweep"] is not g._memo["sweep"], name
