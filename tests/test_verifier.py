import functools
import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from conftest import circular_ladder, ladder_host, moebius_ladder, pendant_triangle_chain
from oracles import (
    identity_group,
    relabel,
    slow_4cut_chain,
    slow_check_lm_bb_3ef,
    slow_cut_slots,
    slow_is_solid_side,
    slow_opposite_sides,
    slow_params_dicts,
    slow_violating_side,
)
from cubicpm import check, named, random_cubic_bridgeless
from cubicpm import Multigraph, connectivity, decomposition, matchings, verifier
from cubicpm.connectivity import ALMOST_CAP, CUT_CAP, build_cut, is_k_almost_cyclically_4ec
from cubicpm.families import random_twisted_net
from cubicpm.matchings import EMPTY_QUERY, count_matchings
from cubicpm.errors import ChainViolation, CubicpmError
from cubicpm.multigraph import from_edge_list, split_off, split_off_ends
from cubicpm.verifier import (
    Bound,
    Instance,
    LemmaFailure,
    LemmaId,
    LemmaReport,
    named_instances,
    params_for,
    random_instances,
    sweep,
    tally_csv,
    twisted_instances,
)


# --- exact bound arithmetic -----------------------------------------------------


def test_rational_bounds():
    b = Bound.rational(Fraction(5, 2))
    assert b.holds_lower(3) and not b.holds_lower(2)
    assert b.holds_upper(2) and not b.holds_upper(3)
    assert b.holds_lower(Fraction(5, 2))


def test_pow2_bounds_basic():
    b = Bound.pow2(Fraction(8, 9))  # 2^(8/9) ~ 1.85
    assert b.holds_lower(2) and not b.holds_lower(1) and not b.holds_lower(0)
    assert Bound.pow2(Fraction(-1, 2)).holds_lower(1)
    assert Bound.pow2(Fraction(0, 1)).holds_lower(1)


def test_pow2_bounds_boundary_exact():
    # 3^12 = 531441 vs 2^19 = 524288 and 2^20 = 1048576
    assert Bound.pow2(Fraction(19, 12)).holds_lower(3)
    assert not Bound.pow2(Fraction(20, 12)).holds_lower(3)
    # an exactly-tight power
    assert Bound.pow2(Fraction(3, 1)).holds_lower(8)
    assert not Bound.pow2(Fraction(3, 1)).holds_lower(7)


def test_pow2_huge_denominator_fast_path():
    # the planar-bound exponent: any count >= 2 passes instantly
    b = Bound.pow2(Fraction(30, 655978752))
    assert b.holds_lower(2)
    assert not b.holds_lower(1)


def test_bound_json_shape():
    assert Bound.rational(Fraction(3, 2)).to_json() == {
        "num": 3, "den": 2, "log2_num": None, "log2_den": None,
    }
    assert Bound.pow2(Fraction(5, 18)).to_json() == {
        "num": None, "den": None, "log2_num": 5, "log2_den": 18,
    }


def test_bounds_compare_equal_but_refuse_to_order():
    """Field order is not value order: ("rational", 1, 2) > ("rational", 1, 1)."""
    half, one = Bound.rational(Fraction(1, 2)), Bound.rational(1)
    assert half == Bound.rational(Fraction(2, 4)) and half != one
    assert hash(half) == hash(Bound.rational(Fraction(1, 2)))
    for op in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            op(half, one)
    with pytest.raises(TypeError):
        sorted([one, half])


# --- individual checks against hand values -----------------------------------------


def test_th_half_petersen(named_graphs):
    r = check(LemmaId.TH_HALF, named_graphs["petersen"], instance="petersen")
    assert r.verdict == "Pass" and r.measured == 6
    assert (r.bound.num, r.bound.den) == (5, 1)


def test_thm_bip_k33_edge0(named_graphs):
    r = check(LemmaId.THM_BIP, named_graphs["k33"], params={"edge": 0}, instance="k33")
    assert r.verdict == "Pass" and r.measured == 4
    assert (r.bound.num, r.bound.den) == (64, 27)


def test_lm_twisted_num_c4():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    r = check(LemmaId.LM_TWISTED_NUM, c4, instance="C4")
    assert r.verdict == "Pass" and r.measured == 2
    assert (r.bound.num, r.bound.den) == (8, 9)  # 2^(16/18) reduced
    # the exact comparison: 2^9 = 512 >= 2^8 = 256
    assert 2**9 >= 2 ** (4 // 2 + 6)


def test_twisted_bounds_are_tight_on_the_exceptional_graph(named_graphs):
    g = named_graphs["exceptional6"]
    r = check(LemmaId.LM_TWISTED_NUM, g, instance="exc6")
    assert r.verdict == "Pass" and r.measured == 2 and (r.bound.num, r.bound.den) == (1, 1)
    r = check(LemmaId.LM_TWISTED_NONBIP, g, instance="exc6")
    assert r.verdict == "Pass" and r.measured == 2


def test_thm_klee_records_constant_provenance(named_graphs):
    r = check(LemmaId.THM_KLEE, named_graphs["prism"], instance="prism")
    assert r.verdict == "Pass"
    assert "655978752" in r.note
    assert Fraction(r.bound.num, r.bound.den) == Fraction(6, 655978752)


def test_skip_reports_carry_reasons(named_graphs):
    r = check(LemmaId.LM_TRIPLE, named_graphs["petersen"], instance="petersen")
    assert r.verdict == "Skipped" and r.hypothesis_met is False and r.reason
    r = check(LemmaId.LM_SPLIT5_SAME, named_graphs["petersen"], instance="petersen")
    assert r.verdict == "Skipped"  # ten vertices is below the hypothesis floor
    r = check(LemmaId.LM_BRIDGE, named_graphs["k4"], instance="k4")
    assert r.verdict == "Skipped" and "unique" in r.reason


def test_lm_bridge_pass():
    g = pendant_triangle_chain()
    r = check(LemmaId.LM_BRIDGE, g, instance="chain")
    assert r.verdict == "Pass" and "bridge=" in r.note


def test_lm_bb_3ef_finds_companion(named_graphs):
    r = check(LemmaId.LM_BB_3EF, named_graphs["prism"], params={"edge": 0}, instance="prism")
    assert r.verdict == "Pass"
    assert r.params["companion"] == 3  # first edge making the rest matching-covered
    assert r.direction == "<="


def test_a_params_dict_becomes_the_slot_it_renders_as(named_graphs):
    g = named_graphs["dodecahedron"]
    v3, v3p = (w for w in g.neighbors(0) if w != 1)
    v4, v4p = (next(w for w in g.neighbors(v) if w != 0) for v in (v3, v3p))
    params = {"v4p": v4p, "v4": v4, "v2": 0, "v1": 1}  # any key order
    r = check(LemmaId.LM_SPLIT5_DIFF, g, params=params, instance="dodecahedron")
    assert r.slot == (1, 0, v4, v4p) and r.params == params and r.verdict == "Pass"
    r = check(LemmaId.LM_SPLIT5_SAME, g, params={"triple": [1, 0, 10]}, instance="dodecahedron")
    assert r.slot == ((1, 0, 10),) and r.params == {"triple": [1, 0, 10]}
    for lemma, params in [
        (LemmaId.LM_BB_3EF, {"companion": 3}),  # a later key without the leading one
        (LemmaId.LM_SPECIAL, {"e": 0, "g": 1}),
        (LemmaId.TH_HALF, {"edge": 0}),
    ]:
        with pytest.raises(KeyError, match=lemma.value):
            check(lemma, named_graphs["prism"], params=params)


def test_lm_bb_3e_on_cube(named_graphs):
    r = check(LemmaId.LM_BB_3E, named_graphs["cube"], params={"edge": 0}, instance="cube")
    assert r.verdict == "Pass" and r.direction == "<="
    assert Fraction(r.bound.num, r.bound.den) == Fraction(3 * 8, 8) - 2


def test_lm_split4b_on_ladder_host():
    g = ladder_host(3)
    reports = sweep([LemmaId.LM_SPLIT4B], [Instance("ladder_host3", g)], fail_fast=True)
    assert any(r.verdict == "Pass" for r in reports)


def test_lm_ladder_branch_fires_on_ladder_host():
    g = ladder_host(3)
    n = g.vertex_count
    cut = build_cut(g, frozenset(range(6)))  # the grid side
    r = check(LemmaId.LM_LADDER, g, {"side": sorted(cut.side_a)}, "ladder_host3")
    assert r.verdict == "Pass"
    assert "zero case verified" in r.note


def test_lm_ladder_all_positive_branch(named_graphs):
    g = ladder_host(4)
    cut = build_cut(g, frozenset(range(8, 12)))  # the closing 4-cycle side
    r = check(LemmaId.LM_LADDER, g, {"side": sorted(cut.side_a)}, "ladder_host4")
    assert r.verdict in ("Pass", "Skipped")


def test_lm_twisted_struc_on_ladder_host():
    g = ladder_host(3)
    reports = sweep([LemmaId.LM_TWISTED_STRUC], [Instance("ladder_host3", g)], fail_fast=True)
    passed = [r for r in reports if r.verdict == "Pass"]
    assert passed
    assert any("sides checked" in (r.note or "") and not r.note.startswith("0") for r in passed)


def test_lm_ordered_skips_without_4cuts(named_graphs):
    r = check(LemmaId.LM_ORDERED, named_graphs["petersen"], instance="petersen")
    assert r.verdict == "Skipped"


# --- sweeps -------------------------------------------------------------------------


def test_sweep_is_deterministic():
    lemmas = [LemmaId.TH_HALF, LemmaId.THM_EF]
    insts = random_instances(8, 4, 10, seed=7)
    a = [r.to_json() for r in sweep(lemmas, insts, fail_fast=True)]
    b = [r.to_json() for r in sweep(lemmas, random_instances(8, 4, 10, seed=7), fail_fast=True)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_example_random_corpus():
    reports = sweep(
        [LemmaId.TH_HALF, LemmaId.THM_EF],
        random_instances(20, 4, 14, seed=1),
        fail_fast=True,
    )
    assert all(r.verdict == "Pass" for r in reports)


def test_sweep_lm_special_on_cube_covers_all_pairs(named_graphs):
    reports = sweep([LemmaId.LM_SPECIAL], named_instances(["cube"]), fail_fast=True)
    assert len(reports) == 66
    assert all(r.verdict == "Pass" for r in reports)


def test_fail_fast_raises_with_instance_dump():
    # two triangles joined by an edge have four corners but are not a twisted
    # net; known_twisted forces the hypothesis so the bound genuinely fails
    # (1 matching against 2^(18/18))
    dumbbell = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    inst = Instance("dumbbell", dumbbell, known_twisted=True)
    with pytest.raises(LemmaFailure) as exc:
        sweep([LemmaId.LM_TWISTED_NUM], [inst], fail_fast=True)
    msg = str(exc.value)
    assert "LM_TWISTED_NUM" in msg and "6 7" in msg  # edge-list dump included
    assert exc.value.report.verdict == "Fail"
    reports = sweep([LemmaId.LM_TWISTED_NUM], [inst], fail_fast=False)
    assert [r.verdict for r in reports] == ["Fail"]


def test_csv_summary():
    reports = sweep([LemmaId.TH_HALF], named_instances(["petersen", "k4"]), fail_fast=True)
    csv = tally_csv((r.lemma.value, r.verdict) for r in reports)
    assert csv.splitlines()[0] == "lemma,total,pass,fail,skipped"
    assert "TH_HALF,2,2,0,0" in csv


def test_every_lemma_id_has_a_check(named_graphs):
    g = named_graphs["petersen"]
    for lemma in LemmaId:
        inst = Instance("petersen", g)
        ps = params_for(lemma, inst)
        assert ps, f"{lemma} produced no parameter slots at all"
        rep = check(lemma, g, instance="petersen")
        assert rep.verdict in ("Pass", "Fail", "Skipped")


def test_twisted_instances_are_hinted():
    insts = twisted_instances(6, seed=3, n_lo=4, n_hi=12)
    assert all(i.known_twisted for i in insts)
    reports = sweep([LemmaId.LM_TWISTED_NUM, LemmaId.LM_TWISTED_BIS], insts, fail_fast=True)
    assert all(r.verdict == "Pass" for r in reports)


# Lemmas whose params come from a cut sweep.
CUT_SWEEPING = [
    LemmaId.LM_3CONN,
    LemmaId.LM_BB_3E,
    LemmaId.LM_BB_3EF,
    LemmaId.LM_SPLIT4A,
    LemmaId.LM_SPLIT4B,
    LemmaId.LM_ORDERED,
    LemmaId.LM_LADDER,
    LemmaId.LM_TWISTED_STRUC,
]


def test_cut_sweeping_lemmas_skip_above_the_cut_cap():
    # the n = 26 twisted nets of the README corpus: no params, so a skip, not TooLarge
    big = [
        inst for inst in twisted_instances(60, seed=8, n_lo=4, n_hi=26)
        if inst.graph.vertex_count == 26
    ]
    assert len(big) == 5 and 26 > CUT_CAP
    reports = sweep(CUT_SWEEPING, big, fail_fast=True)
    assert len(reports) == len(CUT_SWEEPING) * len(big)
    assert all(r.verdict == "Skipped" and r.params is None for r in reports)


# Lemmas whose hypothesis sweeps cuts: above the cut cap they raised TooLarge.
HYPOTHESIS_SWEEPS = [
    LemmaId.LM_SPECIAL,
    LemmaId.LM_SEMIBLOCK,
    LemmaId.LM_SPLITOFF,
    LemmaId.LM_SPLIT5_SAME,
    LemmaId.LM_SPLIT5_DIFF,
]


@pytest.mark.parametrize("seed,double", [
    (3, "Klee recognizer size cap"),
    (4, "not cyclically 3-edge-connected cubic"),  # 3-edge-connectivity needs no sweep
])
def test_hypotheses_skip_above_the_cut_cap_and_name_it(seed, double):
    g = random_cubic_bridgeless(seed, 26)
    reports = sweep(list(LemmaId), [Instance("n26", g)], fail_fast=False)
    for lemma in HYPOTHESIS_SWEEPS:
        mine = [r for r in reports if r.lemma == lemma]
        assert mine and all(r.verdict == "Skipped" for r in mine)
        # LM_SPLIT5_SAME's per-slot tail guard comes before its hypothesis
        reasons = {r.reason for r in mine} - {"tail neighbors not distinct"}
        assert reasons == {f"cut sweep capped at {CUT_CAP} vertices"}
    (r,) = [r for r in reports if r.lemma == LemmaId.LM_DOUBLE]
    assert (r.verdict, r.reason) == ("Skipped", double)


def test_split5_lemmas_skip_above_the_k_almost_cap():
    # GP(12, 5) has 24 vertices and cyclic connectivity 6; splitting leaves 22
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(i, 12 + i) for i in range(12)]
    edges += [(12 + i, 12 + (i + 5) % 12) for i in range(12)]
    g = from_edge_list(24, edges)
    reports = sweep([LemmaId.LM_SPLIT5_SAME, LemmaId.LM_SPLIT5_DIFF], [Instance("gp12_5", g)],
                    fail_fast=False)
    assert len(reports) == 144 + 288 and 24 - 2 > ALMOST_CAP
    assert {r.reason for r in reports} == {
        f"split graph over the k-almost search cap of {ALMOST_CAP} vertices"
    }


def test_mirrored_splitoff_paths_share_one_sweep(monkeypatch):
    """Mirrored paths split off one graph, and one orbit of Aut(g) shares one verdict.

    Möbius-Kantor's 96 paths fall into 2 orbits, so 2 split graphs are swept
    (48 when only mirrored paths shared).
    """
    g = named("moebius_kantor")
    swept = []
    crossing_counts = connectivity._crossing_counts
    monkeypatch.setattr(
        connectivity, "_crossing_counts",
        lambda h, bound: swept.append(h) or crossing_counts(h, bound),
    )
    reports = sweep([LemmaId.LM_SPLITOFF], [Instance("moebius_kantor", g)], fail_fast=True)
    assert len(reports) == 96 and sum(h is not g for h in swept) == 2
    monkeypatch.setattr(connectivity, "_crossing_counts", crossing_counts)
    monkeypatch.setattr(verifier, "automorphisms", identity_group)
    for r in reports:  # each verdict is the one a fresh graph, judged alone, gives
        path = {"path": r.params["path"]}
        alone = check(LemmaId.LM_SPLITOFF, Multigraph(g.vertex_count, g.edges), params=path)
        assert (alone.verdict, alone.params) == (r.verdict, r.params)


def test_split5_lemmas_split_no_kept_path_and_test_the_hypothesis_once(monkeypatch):
    """On the dodecahedron: 2 splits for 360 slots, and one hypothesis test per lemma.

    Its split signatures fall into 2 orbits of Aut(g), and a path is split
    only while its orbit keeps no verdict.
    """
    g = named("dodecahedron")
    kept, hypotheses = [], []
    split = verifier.split_off

    def counted(h, p):
        kept.append(verifier._split_key(h, "split5", verifier._split_signature(h, p)) in h._memo)
        return split(h, p)

    monkeypatch.setattr(verifier, "split_off", counted)
    lemmas = [LemmaId.LM_SPLIT5_SAME, LemmaId.LM_SPLIT5_DIFF]
    for lemma in lemmas:  # count the hypothesis calls through each table entry
        entry = verifier._LEMMAS[lemma]
        monkeypatch.setitem(verifier._LEMMAS, lemma, entry._replace(
            hypothesis=lambda inst, h=entry.hypothesis, lemma=lemma: (
                hypotheses.append((lemma, inst.name)) or h(inst)
            ),
        ))
    reports = sweep(lemmas, [Instance("dodecahedron", g)], fail_fast=True)
    assert len(reports) == 120 + 240 and {r.verdict for r in reports} == {"Pass"}
    assert len(kept) == 2 and not any(kept)
    assert hypotheses == [(lemma, "dodecahedron") for lemma in lemmas]  # one per lemma
    monkeypatch.undo()

    @functools.cache
    def almost(path):  # the verdict on a split of a graph with an empty memo
        fresh = Multigraph(g.vertex_count, g.edges)
        return is_k_almost_cyclically_4ec(split_off(fresh, path), 4)[0]

    for r in reports:  # each shared verdict is the one its own paths give
        if r.lemma is LemmaId.LM_SPLIT5_SAME:
            v1, v2, v3 = r.params["triple"]
            paths = [(v1, v2, v3, t) for t in g.neighbors(v3) if t != v2]
        else:
            v1, v2 = r.params["v1"], r.params["v2"]
            v3, v3p = (x for x in g.neighbors(v2) if x != v1)
            paths = [(v1, v2, v3, r.params["v4"]), (v1, v2, v3p, r.params["v4p"])]
        assert r.verdict == ("Pass" if any(almost(min(p, p[::-1])) for p in paths) else "Fail")


def _catalog_corpus():
    corpus = named_instances() + random_instances(40, 4, 14, seed=7)
    return corpus + twisted_instances(60, seed=8, n_lo=4, n_hi=26)


def test_orbit_shared_results_equal_the_per_slot_reports(monkeypatch):
    """The lemmas that share results across an orbit of Aut(g) report what
    judging every slot alone (the identity group) reports, byte for byte;
    so do the edge-slot lemmas, which share one slot table per graph."""
    keyed = [LemmaId.LM_SPLITOFF, LemmaId.LM_SPLIT5_SAME, LemmaId.LM_SPLIT5_DIFF, LemmaId.LM_SPECIAL]
    edge_slots = [
        LemmaId.LM_BB_3E, LemmaId.LM_BB_3EF, LemmaId.THM_BIP, LemmaId.LM_3CONN,
        LemmaId.LM_ORDERED, LemmaId.LM_TWISTED_STRUC,
    ]
    corpus = _catalog_corpus()
    shared = [r.to_json() for r in sweep(keyed + edge_slots, corpus, fail_fast=False)]
    assert sum(len(verifier.automorphisms(inst.graph)) > 1 for inst in corpus) > 50
    monkeypatch.setattr(verifier, "automorphisms", identity_group)
    alone = [r.to_json() for r in sweep(keyed + edge_slots, _catalog_corpus(), fail_fast=False)]
    assert shared == alone

    def verdicts(lemmas):
        names = {lemma.value for lemma in lemmas}
        return Counter(r["verdict"] for r in alone if r["lemma"] in names)

    assert verdicts(keyed) == {"Pass": 2478, "Skipped": 40778}
    assert verdicts(edge_slots) == {"Pass": 628, "Fail": 18, "Skipped": 3893}


def test_a_catalog_sweep_keeps_no_cut_list():
    """A graph keeps its one sweep and builds its cut lists from it afresh."""
    corpus = _catalog_corpus()
    sweep(list(LemmaId), corpus, fail_fast=False)
    keys = [key for inst in corpus for key in inst.graph._memo]
    assert "sweep" in keys
    assert not [key for key in keys if isinstance(key, tuple) and key[0] == "cuts"]


def test_cut_emptiness_tests_build_no_edge_cut(monkeypatch):
    """``_c4ec``, ``special_pair`` and the LM_SPLIT5 hypothesis read sizes and
    flags from the sweep: with ``_edge_cut`` raising they answer as before."""
    graphs = [named(name) for name in (
        "theta", "k4", "k33", "prism", "cube", "petersen", "moebius_kantor", "dodecahedron",
    )] + [circular_ladder(5), moebius_ladder(4), ladder_host(3), random_cubic_bridgeless(5, 12)]
    graphs = [g for g in graphs if g.is_cubic and g.vertex_count <= CUT_CAP]

    def outcome(call):
        try:
            return call()
        except CubicpmError as exc:
            return type(exc).__name__

    def answers():
        out = []
        for g in (Multigraph(g.vertex_count, g.edges) for g in graphs):  # fresh memos
            out.append(verifier._c4ec(g))
            out.append(verifier._split5_hypothesis(Instance("g", g)))
            out += [outcome(lambda: matchings.special_pair(g, 0, f).verdict)
                    for f in range(1, g.edge_count)]
        return out

    expected = answers()
    assert False in expected and True in expected and "NotCyclically4EC" in expected

    def refuse(*args):
        raise AssertionError("an EdgeCut was built")

    monkeypatch.setattr(connectivity, "_edge_cut", refuse)
    assert answers() == expected


def test_cut_sweeping_slots_build_no_edge_cut(monkeypatch):
    """The cut-side and edge slots of the cut-sweeping generators are read
    from the sweep's masks: with ``_edge_cut`` raising they equal the slots
    that a loop over each ``EdgeCut`` gives, on the catalog corpus."""
    graphs = [inst.graph for inst in _catalog_corpus()]
    expected = [slow_cut_slots(g) for g in graphs]
    assert all(any(slots[kind] for slots in expected) for kind in expected[0])

    def refuse(*args):
        raise AssertionError("an EdgeCut was built")

    monkeypatch.setattr(connectivity, "_edge_cut", refuse)
    for g, want in zip(graphs, expected):
        g = Multigraph(g.vertex_count, g.edges)  # a fresh memo
        assert {
            "sides": [list(side) for side, in verifier._cut_side_params(g)],
            "3ec": [e for e, in verifier._3ec_edge_params(g)],
            "in 4-cut": [e for e, in verifier._4cut_edge_params(inside=True)(g)],
            "no 4-cut": [e for e, in verifier._4cut_edge_params(inside=False)(g)],
        } == want


def test_chain_and_solid_side_build_only_the_cuts_they_return(monkeypatch):
    """``ordered_4cut_chain`` builds an ``EdgeCut`` only for a cut through e,
    and ``_is_solid_side`` reads the induced side's 2-cuts from its sweep and
    builds none; on the LM_ORDERED and LM_TWISTED_STRUC slots of the catalog
    corpus they answer what the loops over every ``EdgeCut`` answer."""
    corpus = _catalog_corpus()

    def slots(lemma):
        return [
            (inst.graph, slot[0])
            for inst in corpus for slot in params_for(lemma, inst) if slot is not None
        ]

    chains = [(g, e) for g, e in slots(LemmaId.LM_ORDERED) if verifier._c4ec(g)]
    sides = [
        (g, side) for g, e in slots(LemmaId.LM_TWISTED_STRUC)
        for side in verifier._opposite_sides(g, e)
    ]
    through = [slow_4cut_chain(g, e) for g, e in chains]
    want_chains = [
        cuts if all(a.side_a <= b.side_a for a, b in zip(cuts, cuts[1:])) else "ChainViolation"
        for cuts in through
    ]
    want_solid = [slow_is_solid_side(g, side) for g, side in sides]
    assert "ChainViolation" in want_chains and sum(map(bool, want_chains)) > 20
    assert True in want_solid and False in want_solid

    def chain(g, e):
        try:
            return connectivity.ordered_4cut_chain(g, e)
        except ChainViolation:
            return "ChainViolation"

    built = []
    edge_cut = connectivity._edge_cut
    monkeypatch.setattr(connectivity, "_edge_cut", lambda *args: built.append(args) or edge_cut(*args))
    fresh = {}  # one fresh memo per graph, as a sweep has
    for (g, e), want in zip(chains, want_chains):
        h = fresh.setdefault(id(g), Multigraph(g.vertex_count, g.edges))
        assert chain(h, e) == want
    assert len(built) == sum(map(len, through))
    assert [verifier._is_solid_side(g, side) for g, side in sides] == want_solid
    assert len(built) == sum(map(len, through))


def test_splitoff_reads_violating_sides_from_the_sweep(monkeypatch):
    """LM_SPLITOFF reads the violating side of a split graph from its sweep's
    masks: with ``_edge_cut`` raising, its catalog reports equal those of the
    ``EdgeCut`` loop, also when a cut of exactly ell - 2 edges violates too."""
    violating_side = verifier._violating_side

    def reports(side, shift):
        monkeypatch.setattr(verifier, "_violating_side", lambda h, ell: side(h, ell + shift))
        return [
            r.to_json()
            for r in sweep([LemmaId.LM_SPLITOFF], _catalog_corpus(), fail_fast=False)
        ]

    def refuse(*args):
        raise AssertionError("an EdgeCut was built")

    for shift in (0, 1):
        want = reports(slow_violating_side, shift)
        with monkeypatch.context() as patched:
            patched.setattr(connectivity, "_edge_cut", refuse)
            assert reports(violating_side, shift) == want
        judged = Counter(r["verdict"] for r in want if r["hypothesis_met"])
        assert judged["Pass"] and bool(judged["Fail"]) == bool(shift)


EXTENDED = {LemmaId.THM_EF: "worst_pair", LemmaId.LM_BB_3EF: "companion", LemmaId.LM_SPLITOFF: "ell"}


def test_reports_hold_slot_tuples_and_render_the_generators_params_dicts():
    """Every lemma over the catalog corpus, twisted nets included: the params
    a report renders are the dicts that the dict-building generators gave,
    plus the one key its check appends; each slot is a tuple of ints and
    int tuples; and ``params`` returns a fresh dict on every read."""
    corpus = _catalog_corpus()
    reports = sweep(list(LemmaId), corpus, fail_fast=False)
    by_run = {}
    for r in reports:
        by_run.setdefault((r.lemma, r.instance), []).append(r)
    appended = Counter()
    for inst in corpus:
        want = slow_params_dicts(inst.graph)
        for lemma in LemmaId:
            key = EXTENDED.get(lemma)
            got = []
            for r in by_run[lemma, inst.name]:
                params = r.params
                if params and key in params:
                    assert r.hypothesis_met
                    appended[lemma] += 1
                    del params[key]
                got.append(params or None)
            assert got == want.get(lemma.value, [None]), (lemma, inst.name)
    assert set(appended) == set(EXTENDED)
    for r in reports:
        if r.slot is not None:
            assert type(r.slot) is tuple and all(
                type(v) is int or type(v) is tuple and all(type(x) is int for x in v)
                for v in r.slot
            ), r
    listed = next(r for r in reports if r.lemma is LemmaId.LM_SPLITOFF and r.slot)
    first, second = listed.params, listed.params
    first["path"].append(-1)
    assert first is not second and first["path"] is not second["path"]
    assert listed.params == second != first


def test_twisted_struc_sides_equal_the_per_cut_loop():
    """LM_TWISTED_STRUC takes its opposite sides from the cut-side slots; on
    every slot of the catalog corpus (the twisted corpus among it) they are
    the sides that listing the cyclic 4-cuts per slot gives, in order."""
    slots = with_sides = 0
    for inst in _catalog_corpus():
        g = inst.graph
        for slot in params_for(LemmaId.LM_TWISTED_STRUC, inst):
            if slot is None:
                continue
            sides = verifier._opposite_sides(g, slot[0])
            assert sides == slow_opposite_sides(g, slot[0]), (inst.name, slot)
            slots += 1
            with_sides += bool(sides)
    assert slots > 300 and with_sides > 50


@pytest.mark.parametrize("lemmas,size", [
    ([LemmaId.LM_SPLIT4A, LemmaId.LM_SPLIT4B, LemmaId.LM_LADDER], 4),
    ([LemmaId.LM_3CONN, LemmaId.LM_BB_3E, LemmaId.LM_BB_3EF], 3),
], ids=["cut-side", "3ec-edge"])
def test_lemmas_that_share_a_cut_sweeping_generator_share_its_slots(monkeypatch, lemmas, size):
    """The generator reads g's cyclic cuts once, and the lemmas' reports hold
    one set of slot tuples."""
    g = named("cube")
    inst, reads = Instance("cube", g), []
    cuts_of_size = verifier._cyclic_cuts_of_size
    monkeypatch.setattr(verifier, "_cyclic_cuts_of_size", lambda h, k: (
        reads.append(k) if h is g else None
    ) or cuts_of_size(h, k))
    reports = sweep(lemmas, [inst], fail_fast=False)
    assert reads.count(size) == 1
    by_lemma = [[r.slot for r in reports if r.lemma is lemma] for lemma in lemmas]
    first = by_lemma[0]
    assert first and None not in first and "Pass" in {r.verdict for r in reports}
    for slots in by_lemma[1:]:
        assert len(slots) == len(first) and all(p is q for p, q in zip(slots, first))
    assert params_for(lemmas[0], inst) is not params_for(lemmas[1], inst)  # fresh lists


@pytest.mark.parametrize("name,slots", [("petersen", 15), ("moebius_kantor", 24), ("cube", 12)])
def test_lm_bb_3e_decomposes_once_per_edge_orbit(monkeypatch, name, slots):
    """On an edge-transitive graph every G - e is one graph up to isomorphism,
    so LM_BB_3E finds its brick count once for all of its slots."""
    calls = []
    tight_cuts = decomposition.tight_cuts
    monkeypatch.setattr(decomposition, "tight_cuts", lambda h: calls.append(h) or tight_cuts(h))
    reports = sweep([LemmaId.LM_BB_3E], [Instance(name, named(name))], fail_fast=False)
    assert len(reports) == slots and all(r.hypothesis_met for r in reports)
    assert len({r.measured for r in reports}) == 1 and len(calls) == 1


def test_edge_slot_lemmas_hand_out_one_params_dict_per_edge():
    """THM_BIP, LM_3CONN, LM_BB_3E, LM_BB_3EF, LM_ORDERED and LM_TWISTED_STRUC
    take their slots from one table per graph: the same tuple for an edge."""
    lemmas = [
        LemmaId.THM_BIP, LemmaId.LM_3CONN, LemmaId.LM_BB_3E, LemmaId.LM_BB_3EF,
        LemmaId.LM_ORDERED, LemmaId.LM_TWISTED_STRUC,
    ]
    seen = set()
    for inst in _catalog_corpus():
        table = {}
        for lemma in lemmas:
            for slot in params_for(lemma, inst):
                if slot is not None:
                    assert table.setdefault(slot[0], slot) is slot
                    seen.add(lemma)
    assert seen == set(lemmas)


def test_orbit_images_take_their_edge_pairs_from_the_graph():
    """Every kept image pair that is an edge is the ``g.edges`` tuple itself;
    a split signature's new edges are kept as they are."""
    g = named("moebius_kantor")
    sweep([LemmaId.LM_SPECIAL, LemmaId.LM_SPLITOFF], [Instance("moebius_kantor", g)])
    edges, ids = set(g.edges), {id(pair) for pair in g.edges}

    def kept_pairs(kind):
        reps = g._memo[("orbits", kind)]
        return [pair for image in (*reps, *reps.values()) for pair in image]

    special, split = kept_pairs("edge pair"), kept_pairs("split")
    assert set(special) == edges and any(p not in edges for p in split)
    assert all(id(p) in ids for p in special + split if p in edges)


def test_split5_same_names_its_tail_guard_ahead_of_the_hypothesis(monkeypatch):
    """A triple whose v3 has no two tails is Skipped for that, whether the
    hypothesis holds or not, and only the other slots name the hypothesis."""
    g = next(
        h for h in (random_cubic_bridgeless(seed, 8) for seed in range(100))
        if len(set(h.edges)) < h.edge_count
    )
    inst, entry = Instance("parallel", g), verifier._LEMMAS[LemmaId.LM_SPLIT5_SAME]
    tails = "tail neighbors not distinct"
    reasons = [r.reason for r in sweep([LemmaId.LM_SPLIT5_SAME], [inst], fail_fast=False)]
    why = entry.hypothesis(inst)
    assert why and set(reasons) == {tails, why}
    monkeypatch.setitem(
        verifier._LEMMAS, LemmaId.LM_SPLIT5_SAME,
        entry._replace(hypothesis=lambda inst: None),
    )
    held = sweep([LemmaId.LM_SPLIT5_SAME], [inst], fail_fast=False)
    assert [r.reason == tails for r in held] == [reason == tails for reason in reasons]


def test_lm_bb_3ef_tries_only_stuck_companions_and_reports_what_every_edge_gave(monkeypatch):
    """An edge of G - e in no perfect matching stays uncovered in G - e - f
    unless it is f, so only those edges are tried as companions: one
    decomposition per orbit of the judged (edge, companion) pairs' ends, and
    the reports of trying every edge."""
    decomposed = []
    bricks = verifier._bricks
    monkeypatch.setattr(verifier, "_bricks", lambda h: decomposed.append(h) or bricks(h))
    corpus = _catalog_corpus()
    stuck = [r.to_json() for r in sweep([LemmaId.LM_BB_3EF], corpus, fail_fast=False)]
    judged = [r for r in stuck if r["verdict"] != "Skipped"]
    graphs = {inst.name: inst.graph for inst in corpus}
    orbits = set()
    for r in judged:
        g = graphs[r["instance"]]
        ends = [g.edges[r["params"]["edge"]], g.edges[r["params"]["companion"]]]
        orbits.add((r["instance"], min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in ends))
            for p in verifier.automorphisms(g)
        )))
    assert judged and len(decomposed) == len(orbits) < len(judged)
    entry = verifier._LEMMAS[LemmaId.LM_BB_3EF]
    monkeypatch.setitem(
        verifier._LEMMAS, LemmaId.LM_BB_3EF, entry._replace(check=slow_check_lm_bb_3ef),
    )
    every = [r.to_json() for r in sweep([LemmaId.LM_BB_3EF], _catalog_corpus(), fail_fast=False)]
    assert every == stuck
    assert len(decomposed) > 2 * len(judged)  # the every-edge route decomposes more


def test_twisted_corner_pairs_are_counted_once_per_graph(monkeypatch):
    """LM_TWISTED_NONBIP and LM_TWISTED_BIS read one memo of corner-pair counts."""
    pairs = Counter()
    count = verifier.count_matchings

    def counted(g, q=EMPTY_QUERY):
        if len(q.missed_vertices) == 2:
            pairs[id(g), q.missed_vertices] += 1
        return count(g, q)

    monkeypatch.setattr(verifier, "count_matchings", counted)
    corpus = twisted_instances(60, seed=8, n_lo=4, n_hi=26)
    lemmas = [LemmaId.LM_TWISTED_NONBIP, LemmaId.LM_TWISTED_BIS, LemmaId.LM_TWISTED_BIP]
    reports = sweep(lemmas, corpus, fail_fast=False)
    judged = {r.instance for r in reports if r.verdict != "Skipped"}
    per_graph = Counter(graph for graph, _ in pairs)
    assert judged and set(pairs.values()) == {1}  # each pair of 4 corners counted once
    assert len(per_graph) == len(judged) and set(per_graph.values()) == {6}


def test_failures_that_name_ids_are_found_for_each_slot(monkeypatch):
    """A violating side and a broken ``special_pair`` assertion name ids, so
    each slot finds its own: the reports equal the identity group's."""
    violating_side, special_pair = verifier._violating_side, verifier.special_pair

    def broken(g, e, f):  # fails on every pair of edges that meet, naming them
        if set(g.edges[e]) & set(g.edges[f]):
            raise AssertionError(f"edges {e} and {f} meet")
        return special_pair(g, e, f)

    # a cut of exactly ell - 2 edges, through no new edge, now violates too
    monkeypatch.setattr(verifier, "_violating_side", lambda h, ell: violating_side(h, ell + 1))
    monkeypatch.setattr(verifier, "special_pair", broken)
    lemmas = [LemmaId.LM_SPLITOFF, LemmaId.LM_SPECIAL]
    shared = [r.to_json() for r in sweep(lemmas, named_instances(), fail_fast=False)]
    monkeypatch.setattr(verifier, "automorphisms", identity_group)
    alone = [r.to_json() for r in sweep(lemmas, named_instances(), fail_fast=False)]
    assert shared == alone
    tally = Counter((r["lemma"], r["verdict"]) for r in alone)
    assert all(tally[lemma.value, verdict] for lemma in lemmas for verdict in ("Pass", "Fail"))


def test_theta_shares_one_special_pair_verdict_across_its_parallel_edges(monkeypatch):
    """An automorphism may shuffle parallel edges, so theta's 3 LM_SPECIAL
    slots form one orbit and make 2 ``special_pair`` calls.  The reports are
    those of the identity group, and each slot's note holds its own edges'
    verdicts."""
    calls = []
    special_pair = verifier.special_pair
    monkeypatch.setattr(
        verifier, "special_pair", lambda g, e, f: calls.append((e, f)) or special_pair(g, e, f),
    )

    def reports():
        return [r.to_json() for r in sweep([LemmaId.LM_SPECIAL], named_instances(["theta"]))]

    shared = reports()
    assert len(shared) == 3 and len(calls) == 2
    monkeypatch.setattr(verifier, "automorphisms", identity_group)
    assert reports() == shared and {r["verdict"] for r in shared} == {"Pass"}
    g = named("theta")
    for r in shared:
        e, f = r["params"]["e"], r["params"]["f"]
        assert r["note"] == f"{special_pair(g, e, f).verdict}/{special_pair(g, f, e).verdict}"


def _three_edge_paths(g):
    """Every walk v1 v2 v3 v4 along three edges, degenerate ones included."""
    return sorted({
        (v1, v2, v3, v4)
        for v2, v3 in g.edges + tuple((b, a) for a, b in g.edges)
        for v1 in g.neighbors(v2) for v4 in g.neighbors(v3)
    })


def _outcome(split, g, path):
    """What ``split(g, path)`` returns, or the type and message of its error."""
    try:
        return split(g, path)
    except CubicpmError as exc:
        return type(exc), str(exc)


def test_split_off_ends_raise_exactly_where_splitting_off_fails():
    """Every 3-edge walk of the catalog's cubic graphs: the same error type and
    message, and otherwise the ends of the last new edge of the split graph."""
    degenerate = Counter()
    for inst in _catalog_corpus():
        g = inst.graph
        if not g.is_cubic:
            continue
        for path in _three_edge_paths(g):
            h, ends = _outcome(split_off, g, path), _outcome(split_off_ends, g, path)
            degenerate[isinstance(h, tuple)] += 1
            if isinstance(h, tuple):
                assert ends == h, (inst.name, path)
            else:
                keep = [v for v in range(g.vertex_count) if v not in path[1:3]]
                assert h.edges[-1] == tuple(sorted(keep.index(w) for w in ends))
    assert degenerate[True] and degenerate[False]


def test_equal_split_signatures_split_off_equal_graphs(monkeypatch):
    """The premise that lets LM_SPLITOFF and the two LM_SPLIT5 lemmas share
    results per split signature.

    Every path their checks hand to the splitting step on the catalog's cubic
    graphs, with the LM_SPLIT5 hypothesis waived so that every slot reaches
    it: a path and its reverse have one signature, and the signature gives
    the split graph up to the order of its two new edges.
    """
    paths = []
    monkeypatch.setattr(verifier, "_split5", lambda g, ps: paths.extend((g, p) for p in ps))
    monkeypatch.setattr(verifier, "_split5_hypothesis", lambda inst: None)
    for inst in (inst for inst in _catalog_corpus() if inst.graph.is_cubic):
        g = inst.graph
        paths += [(g, path) for path, in verifier._path_params(g)]
        for lemma in (LemmaId.LM_SPLIT5_SAME, LemmaId.LM_SPLIT5_DIFF):
            entry = verifier._LEMMAS[lemma]
            for slot in entry.params(g):
                entry.check(inst, slot)

    by_signature, degenerate = {}, 0
    for g, path in paths:
        try:
            signature = verifier._split_signature(g, path)
        except CubicpmError:
            degenerate += 1
            continue
        assert verifier._split_signature(g, path[::-1]) == signature
        (v2, v3), *new = signature
        keep = [v for v in range(g.vertex_count) if v not in (v2, v3)]

        def moved(a, b):
            return tuple(sorted((keep.index(a), keep.index(b))))

        h = split_off(g, path)
        assert h.edges[:-2] == tuple(moved(a, b) for a, b in g.edges if {a, b}.isdisjoint((v2, v3)))
        assert sorted(h.edges[-2:]) == sorted(moved(a, b) for a, b in new)
        by_signature.setdefault((id(g), signature), set()).add(min(path, path[::-1]))
    assert degenerate and any(len(ps) > 1 for ps in by_signature.values())


def test_counting_lemmas_skip_above_the_counting_cap(monkeypatch):
    """A count refused at the DP's state cap Skips its slot with the DP's own message."""
    net, _ = random_twisted_net(5, 20)
    cubic = random_cubic_bridgeless(0, 20)
    corpus = [Instance("cubic", cubic), Instance("net", net, known_twisted=True)]
    monkeypatch.setattr(matchings, "STATE_CAP", 8)
    lemmas = [LemmaId.TH_HALF, LemmaId.THM_EF, LemmaId.LM_TWISTED_NUM, LemmaId.LM_TWISTED_BIS]
    reports = sweep(lemmas, corpus, fail_fast=True)
    assert {(r.lemma, r.instance): (r.verdict, r.reason) for r in reports} == {
        (LemmaId.TH_HALF, "cubic"): ("Skipped", "counting capped at 8 DP states"),
        (LemmaId.TH_HALF, "net"): ("Skipped", "not cubic bridgeless"),
        (LemmaId.THM_EF, "cubic"): ("Skipped", "counting capped at 8 DP states"),
        (LemmaId.THM_EF, "net"): ("Skipped", "not cubic bridgeless"),
        # an unflagged graph goes to the recognizer, which names its own cap
        (LemmaId.LM_TWISTED_NUM, "cubic"): ("Skipped", "recognizer capped at 16 vertices"),
        (LemmaId.LM_TWISTED_NUM, "net"): ("Skipped", "counting capped at 8 DP states"),
        (LemmaId.LM_TWISTED_BIS, "cubic"): ("Skipped", "recognizer capped at 16 vertices"),
        (LemmaId.LM_TWISTED_BIS, "net"): ("Skipped", "counting capped at 8 DP states"),
    }
    assert len(reports) == 8 and all(r.params is None for r in reports)


def test_no_sweep_lets_a_kernel_refusal_escape(monkeypatch):
    """Beyond the cut, recognizer and state caps a sweep of every lemma completes.

    The 66-vertex graph is counted, past the old vertex cap of the DP, and
    its count does not depend on the labels; under a small state cap its
    counting lemmas are Skipped at that cap instead.
    """
    big = [random_cubic_bridgeless(3, 26), random_cubic_bridgeless(0, 66)]
    reports = sweep(list(LemmaId), [Instance(f"n{g.vertex_count}", g) for g in big], False)
    (half,) = [r for r in reports if r.lemma == LemmaId.TH_HALF and r.instance == "n66"]
    assert half.verdict == "Pass" and half.measured > 33
    flipped = relabel(big[1], [65 - v for v in range(66)])
    assert count_matchings(flipped) == half.measured
    monkeypatch.setattr(matchings, "STATE_CAP", 8)
    fresh = [Instance(f"n{g.vertex_count}", Multigraph(g.vertex_count, g.edges)) for g in big]
    capped = sweep(list(LemmaId), fresh, fail_fast=False)
    assert len(capped) == len(reports)
    counted = {LemmaId.TH_HALF, LemmaId.THM_EF}
    for before, after in zip(reports, capped):
        assert (before.lemma, before.instance) == (after.lemma, after.instance)
        if after.lemma in counted:
            assert (after.verdict, after.reason) == ("Skipped", "counting capped at 8 DP states")
        else:
            assert after == before


TWISTED = [LemmaId.LM_TWISTED_NUM, LemmaId.LM_TWISTED_BIP, LemmaId.LM_TWISTED_NONBIP,
           LemmaId.LM_TWISTED_BIS]


def test_a_flagged_twisted_net_without_four_corners_is_skipped():
    """A graph flagged as a twisted net that has no four corners (degree 2,
    the rest degree 3) is Skipped by every twisted-net lemma, and a sweep
    of all lemmas on it raises nothing; before, the cube reported a false
    Fail and the 66-vertex graph raised ValueError out of ``sweep``.  The
    bowtie has four degree-2 vertices and one of degree 4."""
    bowtie = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    corpus = [
        Instance(name, g, known_twisted=True)
        for name, g in (
            ("cube", named("cube")), ("n66", random_cubic_bridgeless(0, 66)), ("bowtie", bowtie),
        )
    ]
    reports = sweep(list(LemmaId), corpus, fail_fast=False)
    twisted = [r for r in reports if r.lemma in TWISTED]
    assert len(twisted) == 12
    for r in twisted:
        assert (r.verdict, r.reason) == ("Skipped", "flagged twisted net without four corners")


def test_a_refused_dp_table_is_built_once(monkeypatch):
    """Every edge slot of THM_BIP on a graph past the state cap reads the
    refusal kept in the graph's memo instead of building the table again."""
    built = []
    init = matchings._StateDag.__init__
    monkeypatch.setattr(
        matchings._StateDag, "__init__", lambda dag, g: built.append(g) or init(dag, g),
    )
    monkeypatch.setattr(matchings, "STATE_CAP", 40)
    ladder = circular_ladder(20)
    reports = sweep([LemmaId.THM_BIP], [Instance("cl20", ladder)], fail_fast=False)
    assert len(reports) == ladder.edge_count == 60
    assert {(r.verdict, r.reason) for r in reports} == {
        ("Skipped", "counting capped at 40 DP states")
    }
    assert len(built) == 1


def test_no_exception_escapes_on_disconnected_or_empty_graphs():
    k4, c4 = named("k4").edges, ((0, 1), (1, 2), (2, 3), (0, 3))
    corpus = [
        Instance("two_k4", from_edge_list(8, k4 + tuple((u + 4, v + 4) for u, v in k4))),
        Instance("two_c4", from_edge_list(8, c4 + tuple((u + 4, v + 4) for u, v in c4))),
        Instance("empty", from_edge_list(0, [])),
    ]
    reports = sweep(list(LemmaId), corpus, fail_fast=False)
    reasons = {(r.lemma, r.instance): r.reason for r in reports}
    assert {reasons[LemmaId.THM_BB, "two_k4"], reasons[LemmaId.THM_BB, "two_c4"]} == {
        "not connected"
    }
    assert reasons[LemmaId.LM_BB_BIP, "two_c4"] == "not connected"
    assert reasons[LemmaId.LM_SEMIBLOCK, "empty"] == "no edges"
    assert reasons[LemmaId.LM_BRIDGE, "empty"] == "no edges"


def test_the_hypothesis_runs_once_per_lemma_and_instance(monkeypatch):
    entry = verifier._LEMMAS[LemmaId.LM_SPECIAL]
    calls = []

    def counted(inst):
        calls.append(inst.name)
        return entry.hypothesis(inst)

    monkeypatch.setitem(
        verifier._LEMMAS, LemmaId.LM_SPECIAL, entry._replace(hypothesis=counted),
    )
    reports = sweep([LemmaId.LM_SPECIAL], named_instances(["prism"]), fail_fast=True)
    assert len(reports) == 36 and all(r.verdict == "Skipped" for r in reports)
    assert calls == ["prism"]
    assert check(LemmaId.LM_SPECIAL, named("prism"), instance="prism").verdict == "Skipped"
    assert calls == ["prism", "prism"]


def test_a_fail_fast_sweep_runs_no_check_after_the_first_fail(monkeypatch):
    entry = verifier._LEMMAS[LemmaId.THM_BIP]
    calls = []

    def failing(inst, p):
        calls.append(p)
        return verifier._fail(Bound.rational(1), 0)

    monkeypatch.setitem(
        verifier._LEMMAS, LemmaId.THM_BIP, entry._replace(check=failing),
    )
    cube = named_instances(["cube"])
    slots = params_for(LemmaId.THM_BIP, cube[0])
    assert len(slots) == 12
    with pytest.raises(LemmaFailure) as caught:
        sweep([LemmaId.THM_BIP], cube, fail_fast=True)
    assert calls == slots[:1] and caught.value.report.slot == slots[0]
    calls.clear()
    reports = sweep([LemmaId.THM_BIP], cube, fail_fast=False)
    assert calls == slots and [r.verdict for r in reports] == ["Fail"] * 12


def test_a_report_is_an_immutable_tuple_whose_defaults_match_the_full_form():
    half = Bound.rational(Fraction(1, 2))
    cases = [
        (
            LemmaReport(lemma=LemmaId.TH_HALF, instance="cube", slot=None,
                        hypothesis_met=True, bound=half, measured=9),
            LemmaReport(LemmaId.TH_HALF, "cube", None, True, half, 9, ">=", "Pass", None, None),
            {"measured": 9, "verdict": "Pass", "reason": None},
        ),
        (
            LemmaReport(lemma=LemmaId.LM_BB_3E, instance="theta", slot=(0,),
                        hypothesis_met=True, bound=half, measured=Fraction(1, 3),
                        verdict="Fail", note="refuted"),
            LemmaReport(LemmaId.LM_BB_3E, "theta", (0,), True, half, Fraction(1, 3),
                        ">=", "Fail", None, "refuted"),
            {"params": {"edge": 0}, "measured": [1, 3], "verdict": "Fail", "note": "refuted"},
        ),
        (
            LemmaReport(lemma=LemmaId.LM_SPECIAL, instance="prism", slot=(0, 1),
                        hypothesis_met=False, bound=None, measured=None,
                        verdict="Skipped", reason="not cyclically 4-edge-connected cubic"),
            LemmaReport(LemmaId.LM_SPECIAL, "prism", (0, 1), False, None, None,
                        ">=", "Skipped", "not cyclically 4-edge-connected cubic", None),
            {"params": {"e": 0, "f": 1}, "bound": None, "verdict": "Skipped", "direction": ">="},
        ),
    ]
    for by_keyword, positional, expected in cases:
        assert by_keyword == positional
        assert by_keyword.to_json() == positional.to_json()
        assert expected.items() <= by_keyword.to_json().items()
        with pytest.raises(AttributeError):
            by_keyword.verdict = "Pass"
    assert cases[0][0].to_json()["bound"] == {"num": 1, "den": 2, "log2_num": None, "log2_den": None}


def test_3ec_and_the_twisted_net_verdict_are_kept_in_the_graph_memo(monkeypatch):
    sweeps, recognizer_calls = [], []
    sweep, recognize = connectivity._crossing_counts, verifier.fam.recognize_twisted_net
    monkeypatch.setattr(
        connectivity, "_crossing_counts", lambda g, *rest: sweeps.append(g) or sweep(g, *rest),
    )
    monkeypatch.setattr(
        verifier.fam, "recognize_twisted_net",
        lambda g: recognizer_calls.append(g) or recognize(g),
    )
    for name in ("prism", "cube", "petersen"):
        inst = Instance(name, named(name))
        verdicts = verifier._is_3ec(inst.graph), verifier._twisted_skip(inst)
        calls = len(sweeps), len(recognizer_calls)
        assert sweeps == [inst.graph] and calls[1] == 1
        assert (verifier._is_3ec(inst.graph), verifier._twisted_skip(inst)) == verdicts
        assert (len(sweeps), len(recognizer_calls)) == calls
        sweeps.clear()
        recognizer_calls.clear()


# sha256 of the canonical JSON of every catalog report on a small corpus
# (n <= 24) with Pass, Fail and Skipped verdicts.  It was recorded while
# params_for still held one branch per lemma; a change that alters any
# report must re-record it and say why.
CATALOG_DIGEST = "2001a0f242e8c0e4ecc02d6321d4105f0769e0f88e08dff8510e361f9d2b95c3"


def test_catalog_reports_match_the_recorded_digest():
    corpus = named_instances(["theta", "k4", "k33", "prism", "cube", "petersen", "exceptional6"])
    corpus += random_instances(12, 4, 12, seed=3)
    corpus += twisted_instances(12, seed=4, n_lo=4, n_hi=24)
    reports = sweep(list(LemmaId), corpus, fail_fast=False)
    assert Counter(r.verdict for r in reports) == {"Pass": 767, "Fail": 19, "Skipped": 10942}
    text = json.dumps([r.to_json() for r in reports], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST
