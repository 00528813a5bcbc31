"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the lines.  Criterion 10 is
split in two.  10a covers the splitting lemmas that hold on the corpus.  10b
pins the machine refutation of the LM_SPLIT5_DIFF disjunction: the check
stays faithful to the stated 4-almost budget and reports honest Fail
verdicts, and the test requires (a) both Pass and Fail verdicts on the
corpus, (b) agreement with the slow exhaustive oracle on every exercised path
pair, (c) every Fail on one 12-vertex graph up to isomorphism (the graph
pinned in `test_split5_diff_counterexample_is_genuine`), and (d) the
disjunction at budget 6 on every exercised path pair.
"""

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    NAMED_CUBIC_BRIDGELESS,
    bridged_cubic,
    circular_ladder,
    ladder_host,
    moebius_ladder,
    pendant_triangle_chain,
)
from cubicpm import (
    CountQuery,
    bridges,
    count_matchings,
    enumerate_matchings,
    fractional_pm_via_flow,
    from_edge_list,
    is_isomorphic,
    ladder,
    named,
    polytope_membership,
    random_cubic_bridgeless,
    random_klee,
    split_off,
)
from cubicpm.connectivity import cyclic_edge_connectivity, is_k_almost_cyclically_4ec
from cubicpm.decomposition import brick_count, decompose
from cubicpm.matchings import is_bipartite, is_matching_covered, uniform_third
from cubicpm.verifier import Instance, LemmaId, check, named_instances, sweep, twisted_instances
from oracles import (
    all_cubic_multigraphs,
    biadjacency,
    brute_pm_count,
    flow_contraction_instance,
    ladder_pm_count,
    leaf_simple_multiset,
    permanent,
    relabel,
    slow_k_almost_c4ec,
)

SIXTHS = {Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)}

# The 12-vertex cyclically 5-edge-connected cubic graph on which the
# split-5-diff disjunction fails (path pair 11-0-3-9 / 11-0-6-5).
SPLIT5_DIFF_REFUTER = [
    (0, 11), (0, 3), (5, 10), (0, 6), (3, 8), (4, 7), (1, 2), (1, 11), (5, 6),
    (6, 7), (10, 11), (7, 8), (2, 8), (1, 4), (2, 5), (9, 10), (3, 9), (4, 9),
]


def _criterion(num, desc, ok):
    print(f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _find_instances(predicate, sizes, budget, want):
    out = []
    for seed in range(budget):
        n = sizes[seed % len(sizes)]
        g = random_cubic_bridgeless(seed, n)
        if predicate(g):
            out.append((f"search(seed={seed},n={n})", g))
            if len(out) >= want:
                break
    return out


@pytest.mark.acceptance
def test_criterion_1_named_counts():
    t0 = time.time()
    assert count_matchings(named("theta")) == 3
    assert count_matchings(named("k4")) == 3
    # independent permanent oracle for the bipartite instances
    for name, want in (("k33", 6), ("cube", 9)):
        g = named(name)
        mat, _, _ = biadjacency(g)
        assert permanent(mat) == want
        assert count_matchings(g) == want
    # exhaustive subset enumeration for the Petersen graph
    assert brute_pm_count(named("petersen")) == 6
    assert count_matchings(named("petersen")) == 6
    elapsed = time.time() - t0
    _criterion(1, f"named counts in {elapsed:.2f}s", elapsed < 1.0)


@pytest.mark.acceptance
def test_criterion_2_half_order_bound():
    t0 = time.time()
    checked = 0
    # full pairing-model support (stub symmetry collapsed) for n <= 8;
    # n = 10 is sampled: the support has tens of millions of labeled graphs
    for n in (2, 4, 6, 8):
        for edges in all_cubic_multigraphs(n):
            g = from_edge_list(n, edges)
            if bridges(g):
                continue
            checked += 1
            assert count_matchings(g) >= Fraction(n, 2), f"n={n} edges={edges}"
    for seed in range(500):
        g = random_cubic_bridgeless(seed, 10)
        assert count_matchings(g) >= 5
        checked += 1
    for i in range(500):
        n = (12, 14, 16)[i % 3]
        g = random_cubic_bridgeless(10_000 + i, n)
        assert count_matchings(g) >= Fraction(n, 2)
        checked += 1
    elapsed = time.time() - t0
    _criterion(
        2,
        f"half-order bound on {checked} instances in {elapsed:.0f}s "
        "(exhaustive n<=8, sampled n=10 per ledger)",
        elapsed < 120,
    )


@pytest.mark.acceptance
def test_criterion_3_bipartite_avoidance_bound():
    corpus = [
        ("theta", named("theta")),
        ("k33", named("k33")),
        ("cube", named("cube")),
        ("CL6", circular_ladder(6)),
        ("CL8", circular_ladder(8)),
        ("M5", moebius_ladder(5)),
        ("M7", moebius_ladder(7)),
        ("moebius_kantor", named("moebius_kantor")),
    ]
    failures = []
    for name, g in corpus:
        assert g.is_cubic and not bridges(g) and is_bipartite(g)
        assert g.vertex_count <= 16
        half = g.vertex_count // 2
        bound = Fraction(4**half, 3**half)
        for e in range(g.edge_count):
            avoided = count_matchings(g, CountQuery(forbidden=frozenset({e})))
            if avoided < bound:
                failures.append((name, e, avoided))
    _criterion(3, f"bipartite avoidance bound, failures={failures}", not failures)


@pytest.mark.acceptance
def test_criterion_4_brick_brace_suite():
    import random as _random

    corpus = [(k, named(k)) for k in NAMED_CUBIC_BRIDGELESS]
    corpus += [
        (f"random({s},{n})", random_cubic_bridgeless(s, n))
        for s, n in ((0, 10), (1, 10), (2, 12), (3, 12), (4, 14), (5, 14))
    ]
    rng = _random.Random(20260810)
    ok = True
    for name, g in corpus:
        if not is_matching_covered(g):
            continue
        b = brick_count(g)
        bound = g.edge_count - g.vertex_count + 1 - b
        ok &= count_matchings(g) >= bound
        if g.is_cubic and not bridges(g):
            ok &= Fraction(b) <= Fraction(g.vertex_count, 4)
        if is_bipartite(g):
            ok &= b == 0
        base = leaf_simple_multiset(decompose(g))
        for _ in range(20):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            other = leaf_simple_multiset(decompose(relabel(g, perm)))
            ok &= len(base) == len(other)
            rest = list(other)
            for leaf in base:
                hit = next((i for i, h in enumerate(rest) if is_isomorphic(leaf, h)), None)
                if hit is None:
                    ok = False
                    break
                rest.pop(hit)
    _criterion(4, "decomposition bound, b<=n/4, bipartite b=0, relabel invariance", ok)


@pytest.mark.acceptance
def test_criterion_5_third_connected_avoidance():
    t0 = time.time()
    corpus = named_instances(["k4", "k33", "prism", "cube", "petersen"])
    from cubicpm import enumerate_cuts

    corpus += [
        Instance(name, g)
        for name, g in _find_instances(
            lambda g: not enumerate_cuts(g, 2, cyclic_only=False),
            [10, 12, 14], budget=60, want=6,
        )
    ]
    reports = sweep([LemmaId.LM_3CONN], corpus, fail_fast=False)
    fails = [r for r in reports if r.verdict == "Fail"]
    passes = [r for r in reports if r.verdict == "Pass"]
    elapsed = time.time() - t0
    _criterion(
        5,
        f"n/8 avoidance on {len(passes)} admissible edges in {elapsed:.0f}s",
        not fails and len(passes) > 30 and elapsed < 300,
    )


@pytest.mark.acceptance
def test_brick_bounds_on_deleted_edge_graphs():
    """End-to-end brick counts for G minus one or two edges on the 3EC corpus.

    The companion-edge bound (n/4 - 1 when G-e is not matching-covered)
    holds everywhere.  The stated single-edge bound 3n/8 - 2 is refuted by
    the Petersen graph: deleting any edge leaves two multiples of K4 in the
    decomposition (b = 2 > 1.75), which is exactly the tight 4-diamond case
    of the underlying inductive argument; the bound that argument actually
    delivers is 3n/8 - 7/4, and that one holds on the whole corpus.  The
    checker stays faithful to the stated bound, so Petersen yields honest
    Fail verdicts here.
    """
    from cubicpm import enumerate_cuts

    corpus = named_instances(["k4", "k33", "prism", "cube", "petersen"])
    corpus += [
        Instance(name, g)
        for name, g in _find_instances(
            lambda g: not enumerate_cuts(g, 2, cyclic_only=False),
            [10, 12, 14], budget=60, want=6,
        )
    ]
    reports = sweep([LemmaId.LM_BB_3E, LemmaId.LM_BB_3EF], corpus, fail_fast=False)
    assert not [r for r in reports if r.lemma is LemmaId.LM_BB_3EF and r.verdict == "Fail"]
    threes = [r for r in reports if r.lemma is LemmaId.LM_BB_3E and r.verdict != "Skipped"]
    assert any(r.verdict == "Pass" for r in threes)
    for r in threes:
        g = next(i.graph for i in corpus if i.name == r.instance)
        # the proof-accurate bound holds without exception
        assert Fraction(r.measured) <= Fraction(3 * g.vertex_count, 8) - Fraction(7, 4)
        if r.verdict == "Fail":
            # only the n = 2 (mod 8) slack cases may exceed the stated bound
            assert Fraction(r.measured) > Fraction(3 * g.vertex_count, 8) - 2
    petersen_fails = [
        r for r in threes if r.instance == "petersen" and r.verdict == "Fail"
    ]
    assert petersen_fails and all(r.measured == 2 for r in petersen_fails)


@pytest.mark.acceptance
def test_criterion_6_twisted_net_suite():
    t0 = time.time()
    insts = twisted_instances(300, seed=2025, n_lo=4, n_hi=26)
    lemmas = [
        LemmaId.LM_TWISTED_NUM,
        LemmaId.LM_TWISTED_BIS,
        LemmaId.LM_TWISTED_BIP,
        LemmaId.LM_TWISTED_NONBIP,
    ]
    reports = sweep(lemmas, insts, fail_fast=False)
    fails = [r for r in reports if r.verdict == "Fail"]
    per_lemma_pass = {
        lemma: sum(1 for r in reports if r.lemma is lemma and r.verdict == "Pass")
        for lemma in lemmas
    }
    elapsed = time.time() - t0
    _criterion(
        6,
        f"300 twisted recipes, passes per lemma {sorted((k.value, v) for k, v in per_lemma_pass.items())} in {elapsed:.0f}s",
        not fails and all(v > 0 for v in per_lemma_pass.values()) and elapsed < 300,
    )


@pytest.mark.acceptance
def test_criterion_7_ladder_counts():
    ok = ladder_pm_count(1) == 1 and ladder_pm_count(2) == 2
    for k in range(3, 21):
        ok &= ladder_pm_count(k) == ladder_pm_count(k - 1) + ladder_pm_count(k - 2)
    for k in range(1, 16):  # counting engine is exact up to its 30-vertex cap
        ok &= count_matchings(ladder(k)) == ladder_pm_count(k)
    for k in range(1, 11):
        ok &= len(enumerate_matchings(ladder(k))) == ladder_pm_count(k)
    _criterion(7, "ladder counts match the transfer-matrix oracle", ok)


@pytest.mark.acceptance
def test_criterion_8_special_pair_biconditional():
    corpus = named_instances(["cube", "petersen"])
    corpus += [
        Instance(name, g)
        for name, g in _find_instances(
            lambda g: cyclic_edge_connectivity(g).at_least(4) and g.vertex_count <= 12,
            [10, 12], budget=60, want=2,
        )
    ]
    reports = sweep([LemmaId.LM_SPECIAL], corpus, fail_fast=False)
    cube_reports = [r for r in reports if r.instance == "cube"]
    ok = (
        len(cube_reports) == 66
        and all(r.verdict == "Pass" for r in reports)
        and len(corpus) >= 4
    )
    _criterion(8, f"avoid/contain biconditional on {len(reports)} pairs", ok)


@pytest.mark.acceptance
def test_criterion_9_polytope():
    ok = True
    corpus = [named(k) for k in NAMED_CUBIC_BRIDGELESS]
    corpus += [random_cubic_bridgeless(s, n) for s, n in ((0, 10), (1, 12), (2, 14))]
    for g in corpus:
        ok &= polytope_membership(g, uniform_third(g))
    ok &= not polytope_membership(bridged_cubic(), uniform_third(bridged_cubic()))
    # flow-built vectors from genuine contraction scenarios
    scenarios = [(named("k4"), 0), (named("prism"), 0)]
    for seed, n in ((11, 8), (3, 10)):
        g = random_klee(seed, n)
        from cubicpm.connectivity import enumerate_cuts

        bad = set()
        for cut in enumerate_cuts(g, 3, cyclic_only=True):
            if cut.size == 3:
                bad |= cut.crossing_edges
        for e in range(g.edge_count):
            if e in bad:
                continue
            ge = from_edge_list(
                g.vertex_count, [p for i, p in enumerate(g.edges) if i != e]
            )
            if not is_matching_covered(ge):
                scenarios.append((g, e))
                break
    assert len(scenarios) >= 4
    for g, e in scenarios:
        h, u, u2, v, v2 = flow_contraction_instance(g, e)
        w = fractional_pm_via_flow(h, u, u2, v, v2)
        ok &= set(w.values()) <= SIXTHS
        ok &= polytope_membership(h, w, force_odd_set_check=True)
    _criterion(9, f"polytope membership plus {len(scenarios)} flow scenarios", ok)


@functools.cache
def _splitting_corpus():
    """Built once for both criterion-10 tests.

    It holds two isomorphic searched graphs, search(seed=1280,n=12) and
    search(seed=2710,n=12); both stay, since the refutation counts are
    stated over this exact corpus.
    """
    corpus = named_instances(["petersen", "dodecahedron", "moebius_kantor", "cube"])
    corpus += [
        Instance(name, g)
        for name, g in _find_instances(
            lambda g: cyclic_edge_connectivity(g).at_least(5),
            [12, 14], budget=4000, want=3,
        )
    ]
    corpus += [
        Instance(name, g)
        for name, g in _find_instances(
            lambda g: cyclic_edge_connectivity(g).value == 4,
            [10, 12], budget=200, want=3,
        )
    ]
    return tuple(corpus)


@pytest.mark.acceptance
def test_criterion_10_splitting_suite():
    t0 = time.time()
    corpus = _splitting_corpus()
    lemmas = [
        LemmaId.LM_SPLITOFF,
        LemmaId.LM_SPLIT5_SAME,
        LemmaId.LM_SPLIT4A,
        LemmaId.LM_SPLIT4B,
    ]
    reports = sweep(lemmas, corpus, fail_fast=False)
    fails = [r for r in reports if r.verdict == "Fail"]
    nonskipped = {
        lemma: sum(1 for r in reports if r.lemma is lemma and r.verdict == "Pass")
        for lemma in lemmas
    }
    elapsed = time.time() - t0
    # never silently pass: each lemma must be exercised on real parameters
    _criterion(
        "10a",
        f"split-off, split-5-same, split-4A/4B: passes {sorted((k.value, v) for k, v in nonskipped.items())} in {elapsed:.0f}s",
        not fails and all(v > 0 for v in nonskipped.values()),
    )


@pytest.mark.acceptance
def test_criterion_10_split5_diff_faithful():
    """Pin the machine refutation of the split-5-diff disjunction.

    LM_SPLIT5_DIFF checks the stated claim (at least one of the two split
    results is 4-almost cyclically 4-edge-connected) and reports honest Fail
    verdicts where it is refuted.  The test requires:
    (a) at least one Pass and at least one Fail on the corpus;
    (b) for every exercised path pair, the verdict equals the slow
        exhaustive oracle applied to both split results at budget 4;
    (c) every Fail lies on a graph isomorphic to `SPLIT5_DIFF_REFUTER`,
        so a refutation anywhere else turns the test red;
    (d) at least one split result is 6-almost on every exercised path pair,
        which pins how far the refutation reaches.
    """
    corpus = _splitting_corpus()
    graphs = {inst.name: inst.graph for inst in corpus}
    reports = sweep([LemmaId.LM_SPLIT5_DIFF], corpus, fail_fast=False)
    exercised = [r for r in reports if r.verdict != "Skipped"]
    fails = [r for r in exercised if r.verdict == "Fail"]
    refuter = from_edge_list(12, SPLIT5_DIFF_REFUTER)
    disagree, beyond6 = [], []
    for r in exercised:
        g = graphs[r.instance]
        v1, v2 = r.params["v1"], r.params["v2"]
        v3, v3p = sorted(x for x in g.neighbors(v2) if x != v1)
        splits = [
            split_off(g, (v1, v2, v3, r.params["v4"])),
            split_off(g, (v1, v2, v3p, r.params["v4p"])),
        ]
        if any(slow_k_almost_c4ec(h, 4) for h in splits) != (r.verdict == "Pass"):
            disagree.append((r.instance, r.params, r.verdict))
        if not any(is_k_almost_cyclically_4ec(h, 6)[0] for h in splits):
            beyond6.append((r.instance, r.params))
    elsewhere = sorted(
        name for name in {r.instance for r in fails}
        if not is_isomorphic(graphs[name], refuter)
    )
    ok = (
        len(exercised) > len(fails) > 0
        and not disagree
        and not elsewhere
        and not beyond6
    )
    desc = (
        f"split-5-diff refuted on {len(fails)} of {len(exercised)} path pairs; "
        f"oracle disagreements {disagree[:4]}, refuted off the pinned graph "
        f"{elsewhere}, not 6-almost {beyond6[:4]}"
    )
    _criterion("10b", desc, ok)


@pytest.mark.acceptance
def test_split5_diff_counterexample_is_genuine():
    """Pin the refuting instance with self-contained code (no package reuse).

    Confirms: the 12-vertex graph below is cubic and cyclically
    5-edge-connected, and for the path pair 11-0-3-9 / 11-0-6-5 neither
    split-off result can reach cyclic 4-edge-connectivity by contracting
    cyclic-3-cut sides while losing at most four vertices.
    """
    from itertools import combinations

    edges_g = SPLIT5_DIFF_REFUTER
    n = 12
    deg = [0] * n
    for u, v in edges_g:
        deg[u] += 1
        deg[v] += 1
    assert deg == [3] * n

    def has_cycle(vs, edges):
        vs = set(vs)
        parent = {v: v for v in vs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges:
            if u in vs and v in vs:
                ru, rv = find(u), find(v)
                if ru == rv:
                    return True
                parent[ru] = rv
        return False

    def cyclic_cut_sides(nv, edges, maxsize):
        sides = set()
        for r in range(1, nv // 2 + 1):
            for side in combinations(range(nv), r):
                s = set(side)
                cross = sum(1 for u, v in edges if (u in s) != (v in s))
                if cross <= maxsize:
                    comp = [v for v in range(nv) if v not in s]
                    if has_cycle(s, edges) and has_cycle(comp, edges):
                        sides.add(frozenset(s))
        return sides

    assert not cyclic_cut_sides(n, edges_g, 4)  # cyclically 5-edge-connected

    def split(nv, edges, path):
        v1, v2, v3, v4 = path
        nb = {v: [] for v in range(nv)}
        for a, b in edges:
            nb[a].append(b)
            nb[b].append(a)
        (w1,) = [x for x in nb[v2] if x not in (v1, v3)]
        (w4,) = [x for x in nb[v3] if x not in (v2, v4)]
        keep = [e for e in edges if v2 not in e and v3 not in e]
        keep += [(v1, v4), (w1, w4)]
        vs = sorted(set(range(nv)) - {v2, v3})
        remap = {v: i for i, v in enumerate(vs)}
        return len(vs), [(remap[a], remap[b]) for a, b in keep]

    def contract(nv, edges, side):
        side = set(side)
        vs = sorted((set(range(nv)) - side) | {min(side)})
        remap = {v: (vs.index(min(side)) if v in side else vs.index(v)) for v in range(nv)}
        out = [(remap[a], remap[b]) for a, b in edges if remap[a] != remap[b]]
        return len(vs), out

    def four_almost(nv, edges, budget=4):
        sides = cyclic_cut_sides(nv, edges, 3)
        if not sides:
            return True
        if budget < 2:
            return False
        allv = frozenset(range(nv))
        for s in sides | {allv - s for s in sides}:
            if len(s) - 1 > budget:
                continue
            n2, e2 = contract(nv, edges, s)
            if four_almost(n2, e2, budget - (len(s) - 1)):
                return True
        return False

    for path in ((11, 0, 3, 9), (11, 0, 6, 5)):
        nh, h = split(n, edges_g, path)
        dh = [0] * nh
        for u, v in h:
            dh[u] += 1
            dh[v] += 1
        assert dh == [3] * nh
        assert not four_almost(nh, h)
    # both splits are 6-almost, so the failure is tight at budget 4
    g = from_edge_list(n, edges_g)
    for path in ((11, 0, 3, 9), (11, 0, 6, 5)):
        assert is_k_almost_cyclically_4ec(split_off(g, path), 6)[0]


@pytest.mark.acceptance
def test_criterion_11_determinism():
    lemmas = [LemmaId.TH_HALF, LemmaId.LM_SEMIBLOCK]
    from cubicpm.verifier import random_instances

    a = json.dumps(
        [r.to_json() for r in sweep(lemmas, random_instances(10, 4, 12, seed=3))],
        sort_keys=True,
    )
    b = json.dumps(
        [r.to_json() for r in sweep(lemmas, random_instances(10, 4, 12, seed=3))],
        sort_keys=True,
    )
    argv = [
        sys.executable, "-m", "cubicpm.cli", "verify",
        "--lemma", "TH_HALF,LM_SEMIBLOCK", "--random", "8", "--n", "4..12",
        "--seed", "3", "--json",
    ]
    r1 = subprocess.run(argv, capture_output=True)
    r2 = subprocess.run(argv, capture_output=True)
    ok = a == b and r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
    _criterion(11, "byte-identical sweeps across runs", ok)


@pytest.mark.acceptance
def test_sweep_example_random_corpus():
    # the catalog's standing example: 200 seeded instances, two lemmas, all green
    from cubicpm.verifier import random_instances

    reports = sweep(
        [LemmaId.TH_HALF, LemmaId.THM_EF],
        random_instances(200, 4, 14, seed=7),
        fail_fast=True,
    )
    assert len(reports) == 400
    assert all(r.verdict == "Pass" for r in reports)


@pytest.mark.acceptance
def test_every_lemma_exercised():
    """Coverage assertion: every LemmaId earns at least one Pass somewhere."""
    passes = set()

    def run(lemma, g, instance, params=None, known_twisted=False):
        rep = check(lemma, g, params=params, instance=instance, known_twisted=known_twisted)
        if rep.verdict == "Pass":
            passes.add(lemma)
        return rep

    petersen = named("petersen")
    cube = named("cube")
    prism = named("prism")
    run(LemmaId.TH_HALF, petersen, "petersen")
    run(LemmaId.THM_BIP, cube, "cube")
    run(LemmaId.THM_KLEE, prism, "prism")
    run(LemmaId.THM_EF, petersen, "petersen")
    run(LemmaId.LM_DOUBLE, petersen, "petersen")
    run(LemmaId.LM_TRIPLE, cube, "cube")
    run(LemmaId.LM_SPECIAL, named("k4"), "k4")
    run(LemmaId.LM_BRIDGE, pendant_triangle_chain(), "pendant_chain")
    run(LemmaId.LM_3CONN, petersen, "petersen")
    run(LemmaId.LM_SEMIBLOCK, petersen, "petersen")
    run(LemmaId.THM_BB, petersen, "petersen")
    run(LemmaId.LM_BB_CUBIC, petersen, "petersen")
    run(LemmaId.LM_BB_BIP, cube, "cube")
    run(LemmaId.LM_BB_3E, cube, "cube", params={"edge": 0})
    run(LemmaId.LM_BB_3EF, prism, "prism", params={"edge": 0})
    run(LemmaId.LM_SPLITOFF, petersen, "petersen")
    dodeca = named("dodecahedron")
    run(LemmaId.LM_SPLIT5_SAME, dodeca, "dodecahedron", params={"triple": [1, 0, 10]})
    v4 = next(w for w in dodeca.neighbors(10) if w != 0)
    v4p = next(w for w in dodeca.neighbors(19) if w != 0)
    run(
        LemmaId.LM_SPLIT5_DIFF, dodeca, "dodecahedron",
        params={"v1": 1, "v2": 0, "v4": v4, "v4p": v4p},
    )
    run(LemmaId.LM_SPLIT4A, cube, "cube")
    host = ladder_host(3)
    run(LemmaId.LM_SPLIT4B, host, "ladder_host3")
    run(LemmaId.LM_ORDERED, cube, "cube")
    run(LemmaId.LM_LADDER, host, "ladder_host3",
        params={"side": list(range(6))})
    from cubicpm import random_twisted_net

    bip, _ = random_twisted_net(5, 12, want_bipartite=True)
    non, _ = random_twisted_net(5, 12, want_bipartite=False)
    run(LemmaId.LM_TWISTED_NUM, bip, "twisted_bip", known_twisted=True)
    run(LemmaId.LM_TWISTED_BIP, bip, "twisted_bip", known_twisted=True)
    run(LemmaId.LM_TWISTED_NONBIP, non, "twisted_nonbip", known_twisted=True)
    run(LemmaId.LM_TWISTED_BIS, non, "twisted_nonbip", known_twisted=True)
    run(LemmaId.LM_TWISTED_STRUC, host, "ladder_host3")
    missing = [l.value for l in LemmaId if l not in passes]
    assert not missing, f"lemmas without a passing instance: {missing}"
