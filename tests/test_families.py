import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_block_chain
from cubicpm import (
    CountQuery,
    bridges,
    corners,
    count_matchings,
    from_edge_list,
    is_isomorphic,
    is_klee,
    klee,
    ladder,
    named,
    random_cubic_bridgeless,
    random_klee,
    random_twisted_net,
    recognize_ladder,
    recognize_twisted_net,
    semiblocks,
    twisted_net,
)
from cubicpm import Multigraph, connectivity, families
from cubicpm.errors import (
    BadDegrees,
    BadSize,
    Bridged,
    CubicpmError,
    GenerationFailed,
    TooLarge,
    UnknownName,
    UnreachableParity,
)
from cubicpm.families import (
    Increment,
    KleeRecipe,
    Multiply,
    TwistedNetRecipe,
)
from cubicpm.matchings import is_bipartite
from cubicpm.verifier import named_instances, random_instances, twisted_instances
from oracles import (
    slow_random_cubic_bridgeless,
    slow_random_twisted_net,
    slow_semiblocks,
    slow_twisted_net,
)

C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _girth(g):
    import itertools

    best = None
    # parallel pair = 2-cycle
    from collections import Counter

    if any(c > 1 for c in Counter(g.edges).values()):
        return 2
    for k in range(3, g.vertex_count + 1):
        for cyc in itertools.permutations(range(g.vertex_count), k):
            if cyc[0] != min(cyc):
                continue
            if all(g.multiplicity(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                return k
    return best


def test_named_catalog(named_graphs):
    p = named_graphs["petersen"]
    assert p.vertex_count == 10 and p.edge_count == 15 and _girth(p) == 5
    th = named_graphs["theta"]
    assert th.vertex_count == 2 and th.edge_count == 3
    assert named_graphs["moebius_kantor"].vertex_count == 16
    assert named_graphs["dodecahedron"].vertex_count == 20
    with pytest.raises(UnknownName):
        named("heptagon")


def test_exceptional6_structure(named_graphs):
    g = named_graphs["exceptional6"]
    assert g.vertex_count == 6 and g.edge_count == 7
    assert corners(g) == (0, 1, 2, 3)
    assert not is_bipartite(g)
    recipe = recognize_twisted_net(g)
    assert recipe is not None
    assert is_isomorphic(twisted_net(recipe), g)
    # near-perfect counts: one corner pair leaves two matchings, the rest one
    vals = sorted(
        count_matchings(g, CountQuery(missed_vertices=frozenset(p)))
        for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    assert vals == [1, 1, 1, 1, 1, 2]


def test_corners(named_graphs):
    assert corners(C4) == (0, 1, 2, 3)
    assert corners(named_graphs["petersen"]) == ()
    with pytest.raises(BadDegrees):
        corners(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))


# --- ladders ------------------------------------------------------------------


def test_ladder_small():
    assert is_isomorphic(ladder(2), C4)
    assert count_matchings(ladder(2)) == 2
    assert count_matchings(ladder(3)) == 3
    assert count_matchings(ladder(10)) == 89


def test_ladder_recognizer():
    for k in (1, 2, 3, 5, 8):
        ends = recognize_ladder(ladder(k))
        assert ends is not None
        g = ladder(k)
        for e in set(ends):
            u, v = g.endpoints(e)
            assert g.degree(u) == g.degree(v) <= 2
    assert recognize_ladder(named("cube")) is None
    assert recognize_ladder(named("petersen")) is None
    with pytest.raises(BadSize):
        ladder(0)


# --- Klee graphs ------------------------------------------------------------------


def test_klee_base_cases(named_graphs):
    assert klee(KleeRecipe()) == named_graphs["k4"]
    six = klee(KleeRecipe((0,)))
    assert six.vertex_count == 6
    assert is_isomorphic(six, named_graphs["prism"])


def test_the_six_vertex_klee_graph_is_the_prism(named_graphs):
    # K4 with one vertex replaced by a triangle is exactly the triangular prism
    assert is_klee(named_graphs["prism"])


def test_klee_recognizer_rejects(named_graphs):
    assert not is_klee(named_graphs["petersen"])
    assert not is_klee(named_graphs["k33"])
    assert not is_klee(named_graphs["cube"])
    assert not is_klee(named_graphs["theta"])


def test_random_klee_sizes_and_recognition():
    for seed in range(100):
        n = 4 + 2 * (seed % 6)
        g = random_klee(seed, n)
        assert g.vertex_count == n and g.is_cubic
        assert is_klee(g)
    with pytest.raises(BadSize):
        random_klee(0, 7)


def test_klee_needs_backtracking():
    # greedy triangle contraction can pick a triangle that strands the search;
    # these graphs have several candidate triangles at once
    g = random_klee(17, 14)
    assert is_klee(g)


# --- twisted nets ---------------------------------------------------------------------


def test_twisted_net_base_and_increment():
    assert twisted_net(TwistedNetRecipe()) == C4
    g, recipe = random_twisted_net(0, 6)
    assert g.vertex_count == 6 and len(corners(g)) == 4


def test_twisted_recipe_round_trip():
    for seed in range(60):
        n = 4 + 2 * (seed % 10)
        g, recipe = random_twisted_net(seed, n)
        assert g.vertex_count == n
        assert g.vertex_count % 2 == 0
        assert len(corners(g)) == 4
        assert twisted_net(recipe) == g


def test_twisted_recipe_json_round_trip():
    g, recipe = random_twisted_net(12, 16)
    assert TwistedNetRecipe.from_json(recipe.to_json()) == recipe


def test_twisted_recognizer_on_generated():
    for seed in range(25):
        n = 4 + 2 * (seed % 7)
        g, _ = random_twisted_net(seed, n)
        recipe = recognize_twisted_net(g)
        assert recipe is not None
        assert is_isomorphic(twisted_net(recipe), g)


def test_twisted_recognizer_rejects(named_graphs):
    assert recognize_twisted_net(named_graphs["cube"]) is None
    assert recognize_twisted_net(named_graphs["k4"]) is None
    assert recognize_twisted_net(ladder(3)) is not None  # the 2x3 grid qualifies


def test_twisted_bipartite_steering():
    g, _ = random_twisted_net(3, 12, want_bipartite=True)
    assert is_bipartite(g)
    g, _ = random_twisted_net(3, 12, want_bipartite=False)
    assert not is_bipartite(g)
    with pytest.raises(UnreachableParity):
        random_twisted_net(3, 4, want_bipartite=False)
    with pytest.raises(BadSize):
        random_twisted_net(3, 7)


def _generated(generate, seed, n, want):
    try:
        g, recipe = generate(seed, n, want)
    except CubicpmError as exc:
        return type(exc), str(exc)
    return g.edges, recipe.to_json()


@pytest.mark.parametrize("seed", range(16))
def test_twisted_generation_equals_the_replaying_generator(seed):
    """Each step applied once gives the recipes and graphs of a replay per step."""
    for n in range(4, 31, 2):
        for want in (None, True, False):
            assert _generated(random_twisted_net, seed, n, want) == _generated(
                slow_random_twisted_net, seed, n, want
            ), (seed, n, want)


C4_RECIPE = TwistedNetRecipe()
INCREMENTED = TwistedNetRecipe((Increment(0, 1),))  # 0 and 1 are no longer corners
BAD_INCREMENT = TwistedNetRecipe((Increment(1, 1),))


@pytest.mark.parametrize("recipe", [
    BAD_INCREMENT,
    TwistedNetRecipe((Increment(0, 1), Increment(0, 2))),
    TwistedNetRecipe((Increment(0, 1), Increment(4, 4))),
    TwistedNetRecipe((Multiply(C4_RECIPE, 0, 0, 0, 1),)),
    TwistedNetRecipe((Multiply(C4_RECIPE, 0, 1, 2, 2),)),
    TwistedNetRecipe((Increment(0, 1), Multiply(C4_RECIPE, 0, 2, 0, 1))),
    TwistedNetRecipe((Multiply(INCREMENTED, 2, 3, 0, 2),)),
    TwistedNetRecipe((Multiply(BAD_INCREMENT, 0, 1, 0, 1),)),
])
def test_an_invalid_step_raises_bad_degrees(recipe):
    with pytest.raises(BadDegrees) as fast:
        twisted_net(recipe)
    with pytest.raises(BadDegrees) as slow:
        slow_twisted_net(recipe)
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("step", [Increment(0, 4), Increment(0, -1)])
def test_a_step_outside_the_net_raises_bad_degrees(step):
    with pytest.raises(BadDegrees):
        twisted_net(TwistedNetRecipe((step,)))


def test_generating_the_corpus_builds_one_graph_per_try(monkeypatch):
    """The README corpus's 60 nets take 334 tries; the replaying generator built 6,906 graphs."""
    built, tries, depth = [], [], []
    init = Multigraph.__init__
    monkeypatch.setattr(Multigraph, "__init__", lambda g, *a: init(g, *a) or built.append(g))
    random_net = families._random_net

    def counted(rng, target_n):
        tries.extend([target_n] * (not depth))
        depth.append(target_n)
        try:
            return random_net(rng, target_n)
        finally:
            depth.pop()

    monkeypatch.setattr(families, "_random_net", counted)
    twisted_instances(60, seed=8, n_lo=4, n_hi=26)
    assert len(built) == len(tries) == 334

    built.clear()
    monkeypatch.setattr(families, "random_twisted_net", slow_random_twisted_net)
    twisted_instances(60, seed=8, n_lo=4, n_hi=26)
    assert len(built) == 6906


# --- semiblocks ------------------------------------------------------------------------


def test_semiblocks_three_edge_connected(named_graphs):
    sides, s = semiblocks(named_graphs["petersen"])
    assert s == 1 and sides == (frozenset(range(10)),)


def test_semiblocks_two_block_chain():
    g = two_block_chain()
    sides, s = semiblocks(g)
    assert s == 2
    assert all(len(side) == 4 for side in sides)
    assert not (sides[0] & sides[1])
    # every edge avoided by at least s+1 matchings
    for e in range(g.edge_count):
        avoid = count_matchings(g, CountQuery(forbidden=frozenset({e})))
        assert avoid >= s + 1


def test_semiblocks_disjoint_on_random_two_cut_instances():
    rng = random.Random(1)
    found = 0
    for seed in range(200):
        g = random_cubic_bridgeless(seed, 10)
        from cubicpm import enumerate_cuts

        if not any(c.size == 2 for c in enumerate_cuts(g, 2, cyclic_only=False)):
            continue
        sides, s = semiblocks(g)  # raises internally if sides overlap
        found += 1
        if found >= 10:
            break
    assert found >= 5


def test_semiblocks_read_the_sweep_and_build_no_edge_cut(monkeypatch):
    """``semiblocks`` decodes only the sides of the sweep's size-2 masks: with
    ``_edge_cut`` raising it answers what the ``EdgeCut`` route answers on
    the catalog corpus, refusals included."""
    corpus = named_instances() + random_instances(40, 4, 14, seed=7)
    corpus += twisted_instances(60, seed=8, n_lo=4, n_hi=26)
    graphs = [inst.graph for inst in corpus] + [random_cubic_bridgeless(3, 26)]

    def outcome(find, g):
        try:
            return find(Multigraph(g.vertex_count, g.edges))  # a fresh memo
        except (BadDegrees, TooLarge) as exc:
            return type(exc).__name__

    expected = [outcome(slow_semiblocks, g) for g in graphs]
    counts = [x[1] for x in expected if isinstance(x, tuple)]
    assert {"BadDegrees", "TooLarge"} <= set(expected) and 1 in counts and max(counts) >= 3

    def refuse(*args):
        raise AssertionError("an EdgeCut was built")

    monkeypatch.setattr(connectivity, "_edge_cut", refuse)
    assert [outcome(semiblocks, g) for g in graphs] == expected


def test_semiblocks_reject_bridged():
    from conftest import bridged_cubic

    with pytest.raises(Bridged):
        semiblocks(bridged_cubic())


# --- random cubic bridgeless sampler ---------------------------------------------------


def test_sampler_postconditions():
    for seed in range(100):
        g = random_cubic_bridgeless(seed, 10)
        assert g.is_cubic and g.is_connected() and not bridges(g)


def test_sampler_equals_the_probe_graph_route():
    """Testing each pairing on its list of pairs accepts the pairings that a
    probe graph accepts: the same graph for every seed and size."""
    for n in range(4, 32, 2):
        for seed in range(50):
            assert random_cubic_bridgeless(seed, n) == slow_random_cubic_bridgeless(seed, n)


def test_sampler_gives_up_as_the_probe_graph_route_does(monkeypatch):
    """With one try per call, a seed whose first pairing is refused raises the
    same ``GenerationFailed`` on both routes."""
    monkeypatch.setattr(families, "PAIRING_TRIES", 1)

    def outcome(sample, seed, n):
        try:
            return sample(seed, n).edges
        except GenerationFailed as exc:
            return str(exc)

    for n in (4, 6, 10, 16, 30):
        got = [outcome(random_cubic_bridgeless, seed, n) for seed in range(50)]
        assert got == [outcome(slow_random_cubic_bridgeless, seed, n) for seed in range(50)]
        assert "no admissible pairing after 1 tries" in got
        assert any(isinstance(x, tuple) for x in got)


def test_sampler_deterministic():
    assert random_cubic_bridgeless(7, 12) == random_cubic_bridgeless(7, 12)


# sha256 of the compact JSON of [seed, n, edges] for seeds 0..39 and n = 4..24,
# recorded while the sampler still tested connectivity on the graph it returned
SAMPLER_DIGEST = "b494a3173196344bd6cf9e330b6abf52781641fcd7084eec7a51cd185dd74387"


def test_sampler_edges_are_pinned_and_no_incidence_table_is_left_cached():
    rows, cached = [], []
    for seed in range(40):
        for n in range(4, 26, 2):
            g = random_cubic_bridgeless(seed, n)
            rows.append([seed, n, [list(pair) for pair in g.edges]])
            cached += [key for key in ("_incidence", "_memo") if key in vars(g)]
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_DIGEST
    assert cached == []


def test_sampler_distribution_sanity(named_graphs):
    hits = {"k33": 0, "prism": 0, "multi": 0}
    for seed in range(2000):
        g = random_cubic_bridgeless(seed, 6)
        if len(set(g.edges)) != g.edge_count:
            hits["multi"] += 1
        elif is_isomorphic(g, named_graphs["k33"]):
            hits["k33"] += 1
        elif is_isomorphic(g, named_graphs["prism"]):
            hits["prism"] += 1
    assert all(v > 0 for v in hits.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_sampler_bad_size(seed):
    with pytest.raises(BadSize):
        random_cubic_bridgeless(seed, 7)
