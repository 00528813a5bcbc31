"""The lemma catalog: each claim becomes a named check producing reports.

Every quantitative bound is compared exactly.  Rational bounds use
Fractions; bounds of the form 2^(p/q) are decided by integer
cross-powering (is measured^q >= 2^p), never by floating point.

Each lemma's table entry declares its hypothesis once: a test of the
instance that returns why the lemma does not apply, or None.  It runs once
per (lemma, instance), ahead of the parameter slots, and a reason becomes
the same Skipped report in every slot, so sweeps can never pass silently by
checking nothing.  A graph above a size cap is Skipped with a reason naming
the cap.  The checks do only per-slot work.

The lemmas are statements about a graph up to isomorphism, so five checks
keep the results that hold no vertex or edge id once per orbit of Aut(g),
under the orbit's least key.  The splitting lemmas key by the split
signature, the graph that splitting off a path builds: LM_SPLIT5_SAME and
LM_SPLIT5_DIFF keep its k-almost verdict and LM_SPLITOFF its "no violating
side" bit.  The other keys are edge ends, since an automorphism may shuffle
parallel edges: LM_SPECIAL keeps its verdict pair per ordered pair of edge
ends, and LM_BB_3E and LM_BB_3EF keep b(G - e) and b(G - e - f) per
multiset of the deleted edges' ends.  What names ids is never shared across
an orbit: a violating side (kept per split signature), a broken
``special_pair`` assertion, a degenerate path's Skipped message and the
companion that LM_BB_3EF names are found for the slot itself.  The group is
searched only when one of these checks first needs it.

A slot is a plain tuple of values, one per key that the lemma's table
entry names, and a report renders it as its params dict only when read.
The edge-slot lemmas (THM_BIP, LM_3CONN, LM_BB_3E, LM_BB_3EF, LM_ORDERED
and LM_TWISTED_STRUC) take their slots from one table per graph, so a
sweep's reports hold one slot per edge.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from . import decomposition as dc
from . import families as fam
from .connectivity import (
    ALMOST_CAP,
    CUT_CAP,
    EdgeCut,
    _capped_sweep,
    _crossing_edges,
    _least_cyclic_size,
    _unit_sweep,
    bridges,
    build_cut,
    cut_surgery_pair,
    cyclic_edge_connectivity,
    is_k_almost_cyclically_4ec,
    mask_sides,
    mask_sizes,
    ordered_4cut_chain,
)
from .errors import BadSize, ChainViolation, CubicpmError, NotMatchingCovered
from .formats import write_edge_list
from .matchings import (
    COUNT_CAP,
    ENUMERATE_CAP,
    CountQuery,
    containment_counts,
    count_matchings,
    is_bipartite,
    kotzig_bridge,
    pair_counts,
    special_pair,
)
from .multigraph import (
    Multigraph,
    _memoized,
    automorphisms,
    find_isomorphism,
    induced_subgraph,
    split_off,
    split_off_ends,
    two_coloring,
)


class LemmaId(Enum):
    TH_HALF = "TH_HALF"
    THM_BIP = "THM_BIP"
    THM_KLEE = "THM_KLEE"
    THM_EF = "THM_EF"
    LM_DOUBLE = "LM_DOUBLE"
    LM_TRIPLE = "LM_TRIPLE"
    LM_SPECIAL = "LM_SPECIAL"
    LM_BRIDGE = "LM_BRIDGE"
    LM_3CONN = "LM_3CONN"
    LM_SEMIBLOCK = "LM_SEMIBLOCK"
    THM_BB = "THM_BB"
    LM_BB_CUBIC = "LM_BB_CUBIC"
    LM_BB_BIP = "LM_BB_BIP"
    LM_BB_3E = "LM_BB_3E"
    LM_BB_3EF = "LM_BB_3EF"
    LM_SPLITOFF = "LM_SPLITOFF"
    LM_SPLIT5_SAME = "LM_SPLIT5_SAME"
    LM_SPLIT5_DIFF = "LM_SPLIT5_DIFF"
    LM_SPLIT4A = "LM_SPLIT4A"
    LM_SPLIT4B = "LM_SPLIT4B"
    LM_ORDERED = "LM_ORDERED"
    LM_LADDER = "LM_LADDER"
    LM_TWISTED_NUM = "LM_TWISTED_NUM"
    LM_TWISTED_BIP = "LM_TWISTED_BIP"
    LM_TWISTED_NONBIP = "LM_TWISTED_NONBIP"
    LM_TWISTED_BIS = "LM_TWISTED_BIS"
    LM_TWISTED_STRUC = "LM_TWISTED_STRUC"


KLEE_DENOMINATOR = 655978752  # exponent denominator from the planar cubic bound


class Bound(NamedTuple):
    """A rational value p/q, or the power 2^(p/q)."""

    kind: str  # "rational" | "pow2"
    num: int
    den: int

    @staticmethod
    def rational(x) -> "Bound":
        f = Fraction(x)
        return Bound("rational", f.numerator, f.denominator)

    @staticmethod
    def pow2(exponent) -> "Bound":
        f = Fraction(exponent)
        return Bound("pow2", f.numerator, f.denominator)

    def holds_lower(self, measured) -> bool:
        """measured >= bound, decided exactly."""
        if self.kind == "rational":
            return Fraction(measured) >= Fraction(self.num, self.den)
        p, q = self.num, self.den
        m = int(measured)
        if m <= 0:
            return False
        if p <= 0:
            return True  # 2^(p/q) <= 1 <= m
        if m == 1:
            return False  # p > 0 here
        bl = m.bit_length()  # 2^(bl-1) <= m < 2^bl
        if q * (bl - 1) >= p:
            return True
        if q * bl <= p:
            return False
        return m**q >= (1 << p)

    def holds_upper(self, measured) -> bool:
        assert self.kind == "rational", "upper bounds are rational here"
        return Fraction(measured) <= Fraction(self.num, self.den)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"num": self.num, "den": self.den, "log2_num": None, "log2_den": None}
        return {"num": None, "den": None, "log2_num": self.num, "log2_den": self.den}

    def __str__(self):
        if self.kind == "rational":
            return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)
        return f"2^({self.num}/{self.den})"

    def _unordered(self, other):
        # a tuple orders by its fields, (kind, num, den), which is not the
        # order of the values: ("rational", 1, 2) > ("rational", 1, 1)
        raise TypeError("Bound values are not ordered; use holds_lower or holds_upper")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class LemmaReport(NamedTuple):
    """One verdict of one lemma on one instance and parameter choice.

    An immutable tuple, so a sweep's tens of thousands of reports, most of
    them Skipped copies of one reason, cost one tuple each.  ``slot`` holds
    the parameter values as a plain tuple, in the order of the lemma's
    ``keys``, the slot generators' own tuples where the check added nothing;
    ``params`` renders it as a dict on each read.
    """

    lemma: LemmaId
    instance: str
    slot: tuple | None
    hypothesis_met: bool
    bound: Bound | None
    measured: int | Fraction | None
    direction: str = ">="
    verdict: str = "Pass"  # Pass | Fail | Skipped
    reason: str | None = None
    note: str | None = None

    @property
    def params(self) -> dict | None:
        """A fresh dict of the slot under the lemma's keys, each tuple value as a list."""
        if self.slot is None:
            return None
        keys = _LEMMAS[self.lemma].keys
        return {k: list(v) if isinstance(v, tuple) else v for k, v in zip(keys, self.slot)}

    def to_json(self) -> dict:
        meas = self.measured
        if isinstance(meas, Fraction):
            meas = [meas.numerator, meas.denominator]
        return {
            "lemma": self.lemma.value,
            "instance": self.instance,
            "params": self.params,
            "hypothesis_met": self.hypothesis_met,
            "bound": self.bound.to_json() if self.bound else None,
            "measured": meas,
            "direction": self.direction,
            "verdict": self.verdict,
            "reason": self.reason,
            "note": self.note,
        }


class LemmaFailure(CubicpmError):
    """Raised by fail-fast sweeps; carries the report and the instance dump."""

    def __init__(self, report: LemmaReport, graph: Multigraph):
        self.report = report
        self.graph = graph
        super().__init__(
            f"{report.lemma.value} failed on {report.instance} "
            f"(params={report.params}, measured={report.measured}, "
            f"bound={report.bound}, direction={report.direction})\n"
            f"instance dump:\n{write_edge_list(graph)}"
        )


class Instance(NamedTuple):
    """A corpus entry: a name, a graph, and whether it is known to be a twisted net."""

    name: str
    graph: Multigraph
    known_twisted: bool = False


# A check takes the instance and its slot tuple and returns the verdict
# fields of its report; the dispatcher adds the lemma, the instance name and
# the slot, unless the check names its own "slot" (an aggregate's argument,
# or the slot with what it derived appended).


def _skip(reason: str) -> dict:
    return {
        "hypothesis_met": False, "bound": None, "measured": None,
        "verdict": "Skipped", "reason": reason,
    }


def _judge(bound: Bound, measured, direction=">=", note=None) -> dict:
    ok = bound.holds_lower(measured) if direction == ">=" else bound.holds_upper(measured)
    return {
        "hypothesis_met": True, "bound": bound, "measured": measured,
        "direction": direction, "verdict": "Pass" if ok else "Fail", "note": note,
    }


def _fail(bound: Bound, measured, direction=">=", note=None) -> dict:
    return {**_judge(bound, measured, direction, note), "verdict": "Fail"}


# ---------------------------------------------------------------------------
# shared hypothesis predicates


def _is_bridgeless_cubic(g: Multigraph) -> bool:
    return g.is_cubic and g.is_connected() and not bridges(g)


def _is_3ec(g: Multigraph) -> bool:
    """No cut of at most two edges: n >= 2, and no proper bipartition in g's
    unit sweep is crossed by 2 edges or fewer.

    The sweep is read at bound 3, so the cyclic 3-cuts asked of the same
    graph are read from it unswept.  Kept in g's memo.
    """
    return _memoized(g, "3ec", lambda: (
        g.vertex_count >= 2 and all(size > 2 for size in _unit_sweep(g, 3).sizes)
    ))


def _is_3ec_cubic(g: Multigraph) -> bool:
    return g.is_cubic and _is_3ec(g)


def _cyclic_cuts_of_size(g: Multigraph, k: int) -> list[frozenset[int]]:
    """Side A of each cyclic cut of exactly k edges, in the order of g's sweep.

    Read from the sweep's masks, sizes and flags; no ``EdgeCut`` is built.
    """
    sweep = _unit_sweep(g, k)
    masks = [
        mask for mask, size, flag in zip(sweep.masks, sweep.sizes, sweep.cyclic)
        if flag and size == k
    ]
    return list(mask_sides(masks, g.vertex_count))


def _cyclic_cut_edges(g: Multigraph, k: int) -> frozenset[int]:
    """Edges crossing some cyclic cut of exactly k edges, kept in g's memo."""
    return _memoized(g, ("cyclic cut edges", k), lambda: frozenset().union(
        *(_crossing_edges(g, side) for side in _cyclic_cuts_of_size(g, k))
    ))


def _avoid_count(g: Multigraph, e: int) -> int:
    """Perfect matchings avoiding e: N - c(e)."""
    return count_matchings(g) - containment_counts(g)[e]


def _delete_edges(g: Multigraph, drop: set[int]) -> Multigraph:
    return Multigraph(
        g.vertex_count,
        tuple(p for i, p in enumerate(g.edges) if i not in drop),
    )


def _twisted_skip(inst: Instance) -> str | None:
    """Why the instance is not taken as a twisted net; a known twisted net bypasses the recognizer.

    The recognizer's verdict is kept in the graph's memo.
    """
    if inst.known_twisted:
        return None
    g = inst.graph
    if g.vertex_count > fam.TWISTED_CAP:
        return f"recognizer capped at {fam.TWISTED_CAP} vertices"

    def verdict():
        try:
            ok = fam.recognize_twisted_net(g) is not None
        except CubicpmError:
            return "recognizer rejected the instance"
        return None if ok else "not a twisted net"

    return _memoized(g, "twisted net", verdict)


def _is_c4(g: Multigraph) -> bool:
    return (
        g.vertex_count == 4
        and g.edge_count == 4
        and all(d == 2 for d in g.degrees)
        and len(set(g.edges)) == 4
        and g.is_connected()
    )


def _corner_pair_counts(g: Multigraph) -> tuple[int, ...]:
    """The perfect matchings of g minus each pair of its corners, kept in g's memo."""
    return _memoized(g, "corner pairs", lambda: tuple(
        count_matchings(g, CountQuery(missed_vertices=frozenset(pair)))
        for pair in combinations(fam.corners(g), 2)
    ))


def _on_cut_side(check):
    """A check of one side of a cyclic 4-cut, handed the graph, the cut and its anchors.

    The anchors are the side's ends of the four cut edges, in cut-edge id
    order.  A side that defines no cyclic 4-cut, or whose cut edges share a
    side vertex, is Skipped.
    """

    def run(inst, slot):
        g = inst.graph
        cut = build_cut(g, slot[0])
        if not (cut.size == 4 and cut.cyclic):
            return _skip("side does not define a cyclic 4-cut")
        ends = (g.endpoints(e) for e in sorted(cut.crossing_edges))
        anchors = [u if u in cut.side_a else v for u, v in ends]
        if len(set(anchors)) != 4:
            return _skip("two cut edges share a side vertex")
        return check(g, cut, anchors)

    return run


def _surgery_graphs(g: Multigraph, cut: EdgeCut):
    """Subdivided and paired closures for pairings (1i), i in {2,3,4}.

    Returns ({i: subdivided}, {i: paired}).
    """
    es = sorted(cut.crossing_edges)
    sub = {}
    paired = {}
    others = {2: (2, 3), 3: (1, 3), 4: (1, 2)}  # indices of the complement pair
    for i in (2, 3, 4):
        j, k = others[i]
        pairing = ((es[0], es[i - 1]), (es[j], es[k]))
        p, s = cut_surgery_pair(g, cut, pairing)
        paired[i] = p
        sub[i] = s
    return sub, paired


def _attach_edge_ids(subdivided: Multigraph) -> list[int]:
    """Ids of the four attachment edges in a subdivided closure."""
    m_inner = subdivided.edge_count - 5
    return [m_inner, m_inner + 1, m_inner + 2, m_inner + 3]


def _c4ec(g: Multigraph) -> bool:
    return _least_cyclic_size(g, 3) is None


def _is_solid_side(g: Multigraph, side: frozenset[int]) -> bool:
    """No 2-edge-cut of the induced side with two or more vertices per part.

    Read from the sizes and masks of the side's sweep; no ``EdgeCut`` is built.
    """
    sub, _, _ = induced_subgraph(g, side)
    n = sub.vertex_count
    if n < 4:
        return False
    sweep = _capped_sweep(sub, 2)
    return not any(
        size == 2 and 2 <= part <= n - 2
        for part, size in zip(mask_sizes(sweep.masks), sweep.sizes)
    )


# ---------------------------------------------------------------------------
# slot generators: the admissible slots per graph, each a tuple of values in
# the order of the lemma's keys; none means one parameterless slot, Skipped
# with the entry's no-slot reason


def _edge_slots(g: Multigraph) -> tuple[tuple[int], ...]:
    """One ``(e,)`` slot per edge id, kept in g's memo.

    Every edge-slot generator picks its slots from this table, so the
    reports of the six edge-slot lemmas hold one slot tuple per edge.
    """
    return _memoized(g, "edge slots", lambda: tuple((e,) for e in range(g.edge_count)))


def _edge_params(g: Multigraph) -> list[tuple]:
    return list(_edge_slots(g))


def _edge_pair_params(g: Multigraph) -> list[tuple]:
    return [
        (e, f)
        for e in range(g.edge_count)
        for f in range(e + 1, g.edge_count)
    ]


def _path_params(g: Multigraph) -> list[tuple]:
    ps = []
    for v2, v3 in g.edges:
        for e1 in g.incident(v2):
            v1 = g.other_end(e1, v2)
            if v1 in (v2, v3):
                continue
            for e4 in g.incident(v3):
                v4 = g.other_end(e4, v3)
                if v4 in (v1, v2, v3):
                    continue
                ps.append(((v1, v2, v3, v4),))
    return ps


def _triple_params(g: Multigraph) -> list[tuple]:
    ps = []
    for v2 in range(g.vertex_count):
        nbrs = g.neighbors(v2)
        for v1 in nbrs:
            for v3 in nbrs:
                if v3 != v1:
                    ps.append(((v1, v2, v3),))
    return ps


def _branch_params(g: Multigraph) -> list[tuple]:
    ps = []
    for v2 in range(g.vertex_count):
        for v1 in g.neighbors(v2):
            rest = [x for x in g.neighbors(v2) if x != v1]
            if len(rest) != 2:
                continue
            v3, v3p = sorted(rest)
            for v4 in g.neighbors(v3):
                if v4 == v2:
                    continue
                for v4p in g.neighbors(v3p):
                    if v4p == v2:
                        continue
                    ps.append((v1, v2, v4, v4p))
    return ps


def _cut_sweeping(params: Callable[[Multigraph], list[tuple]]):
    """A generator that sweeps cuts: no slots above the sweep cap, and its
    slots kept in g's memo, keyed by the generator.

    Each call returns a fresh list of the kept slot tuples, so the lemmas
    that share a generator (LM_SPLIT4A, LM_SPLIT4B and LM_LADDER; LM_3CONN,
    LM_BB_3E and LM_BB_3EF) share one set of slot tuples per graph, which
    their reports hold, and sweep its cuts for them once.  The other
    generators keep nothing: each serves one lemma, and keeping its slots
    would only hold them longer.
    """

    def kept(g: Multigraph) -> list[tuple]:
        if g.vertex_count > CUT_CAP:
            return []
        return list(_memoized(g, ("slots", params), lambda: tuple(params(g))))

    return kept


@_cut_sweeping
def _3ec_edge_params(g: Multigraph) -> list[tuple]:
    """On 3-edge-connected cubic graphs, the edges in no cyclic 3-cut."""
    if not _is_3ec_cubic(g):
        return []
    bad = _cyclic_cut_edges(g, 3)
    return [slot for e, slot in enumerate(_edge_slots(g)) if e not in bad]


@_cut_sweeping
def _cut_side_params(g: Multigraph) -> list[tuple]:
    """One ``(side,)`` slot per (cyclic 4-cut, side), each side a sorted
    vertex tuple: side A, then its complement."""
    everything = frozenset(range(g.vertex_count))
    return [
        (tuple(sorted(side)),)
        for side_a in _cyclic_cuts_of_size(g, 4)
        for side in (side_a, everything - side_a)
    ]


def _4cut_edge_params(inside: bool):
    """The edges that do (inside) or do not cross some cyclic 4-cut."""

    @_cut_sweeping
    def params(g: Multigraph) -> list[tuple]:
        in4 = _cyclic_cut_edges(g, 4)
        return [slot for e, slot in enumerate(_edge_slots(g)) if (e in in4) == inside]

    return params


# ---------------------------------------------------------------------------
# hypotheses: why an instance is outside a lemma, or None


_Hypothesis = Callable[[Instance], "str | None"]


def _needs(reason: str, test: Callable[[Multigraph], bool]) -> _Hypothesis:
    """Holds when ``test`` accepts the graph, and otherwise gives ``reason``."""
    return lambda inst: None if test(inst.graph) else reason


def _cap(limit: int, reason: str) -> _Hypothesis:
    """Gives ``reason`` above ``limit`` vertices."""
    return lambda inst: reason if inst.graph.vertex_count > limit else None


def _first(*hypotheses: _Hypothesis) -> _Hypothesis:
    """The reason of the first hypothesis that fails, tested in order."""
    return lambda inst: next(filter(None, (h(inst) for h in hypotheses)), None)


_CUT_SWEEP = _cap(CUT_CAP, f"cut sweep capped at {CUT_CAP} vertices")
_COUNTING = _cap(COUNT_CAP, f"counting capped at {COUNT_CAP} vertices")
_DECOMPOSITION = _cap(dc.TIGHT_CAP, "decomposition size cap")
_BRIDGELESS_CUBIC = _needs("not cubic bridgeless", _is_bridgeless_cubic)
# the decomposition contracts shores that must induce connected parts
_CONNECTED = _needs("not connected", Multigraph.is_connected)


def _swept(reason: str, test, swept) -> _Hypothesis:
    """``test``, then the cut-sweeping ``swept``, which is not run above the sweep cap."""
    return _first(_needs(reason, test), _CUT_SWEEP, _needs(reason, swept))


def _is_cubic(g: Multigraph) -> bool:
    return g.is_cubic


def _effective_connectivity(g: Multigraph) -> int | None:
    """min(cyclic edge-connectivity, (n - 2) // 2), or None with no cyclic cut."""
    cec = cyclic_edge_connectivity(g)
    return None if cec.is_unbounded else min(cec.value, (g.vertex_count - 2) // 2)


def _splitoff_connectivity(inst: Instance) -> str | None:
    ell = _effective_connectivity(inst.graph)
    if ell is None:
        return "no cyclic structure"
    return f"effective connectivity {ell} below 3" if ell < 3 else None


_split5_hypothesis = _first(
    _swept(
        "needs cyclically 5-edge-connected cubic, >= 12 vertices",
        lambda g: g.is_cubic and g.vertex_count >= 12,
        lambda g: _least_cyclic_size(g, 4) is None,
    ),
    # splitting off drops two vertices before the k-almost search
    _cap(ALMOST_CAP + 2, f"split graph over the k-almost search cap of {ALMOST_CAP} vertices"),
)


def _bricks(g: Multigraph) -> int | None:
    """The brick count, or None if g is not matching-covered (found by the root cut sweep)."""
    try:
        return dc.brick_count(g)
    except NotMatchingCovered:
        return None


# ---------------------------------------------------------------------------
# slots up to symmetry: a result that holds no vertex or edge id is kept once
# per orbit of Aut(g), under the orbit's least key


def _orbit_rep(g: Multigraph, kind: str, key, image):
    """The least image of ``key`` under Aut(g), where ``image(perm, key)`` maps
    it to a tuple of vertex pairs.

    Each ``kind`` of key has its own map in g's memo: "edge pair" for
    LM_SPECIAL's ordered pairs of edge ends, "edge set" for the sorted ends
    of the one or two edges that LM_BB_3E and LM_BB_3EF delete, and "split"
    for split signatures.  The first key asked for in an orbit maps the
    whole orbit, and the map keeps the least image for each of its keys.
    Each kept image takes its pairs that are edges from one per-graph table
    of the ``g.edges`` tuples, so the images of an orbit share them; a pair
    that is not an edge, such as a split signature's new edges, is kept as
    it is.  With the trivial group the key is its own representative, and
    ``image`` is not called.
    """
    group = automorphisms(g)
    if len(group) == 1:
        return key
    reps = _memoized(g, ("orbits", kind), dict)
    if key not in reps:
        edge = _memoized(g, "edge table", lambda: {pair: pair for pair in g.edges}).get
        images = {tuple(edge(pair, pair) for pair in image(perm, key)) for perm in group}
        reps.update(dict.fromkeys(images, min(images)))
    return reps[key]


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _image(perm, pairs) -> tuple:
    """The vertex pairs ``pairs`` moved by ``perm``, each with its lesser end first."""
    return tuple(_pair(perm[a], perm[b]) for a, b in pairs)


def _set_image(perm, pairs) -> tuple:
    """``_image`` of a sorted tuple of pairs, sorted: the image of their multiset."""
    return tuple(sorted(_image(perm, pairs)))


def _bricks_without(g: Multigraph, drop: tuple[int, ...]) -> int | None:
    """``_bricks`` of g minus the edges ``drop``, kept in g's memo once per orbit.

    Deleting edges whose multiset of end pairs lies in one orbit of Aut(g)
    leaves isomorphic graphs, since an automorphism may shuffle parallel
    edges, so the key is that orbit's least multiset.  The count names no
    id, and a graph that is not matching-covered keeps its None.
    """
    ends = tuple(sorted(g.edges[e] for e in drop))
    key = ("bricks without", _orbit_rep(g, "edge set", ends, _set_image))
    return _memoized(g, key, lambda: _bricks(_delete_edges(g, set(drop))))


# ---------------------------------------------------------------------------
# the checks: per-slot work on an instance whose hypothesis holds


def _check_th_half(inst, slot):
    g = inst.graph
    return _judge(Bound.rational(Fraction(g.vertex_count, 2)), count_matchings(g))


def _check_thm_bip(inst, slot):
    g = inst.graph
    half = g.vertex_count // 2
    return _judge(Bound.rational(Fraction(4**half, 3**half)), _avoid_count(g, slot[0]))


def _check_thm_klee(inst, slot):
    g = inst.graph
    return _judge(
        Bound.pow2(Fraction(g.vertex_count, KLEE_DENOMINATOR)), count_matchings(g),
        note=f"exponent denominator {KLEE_DENOMINATOR} per the Chudnovsky-Seymour planar bound",
    )


def _check_thm_ef(inst, slot):
    g = inst.graph
    total, p = count_matchings(g), pair_counts(g)
    worst, pair = min(  # the first pair in edge order among the tightest
        (total - p[e][e] - p[f][f] + p[e][f], (e, f))  # N - c(e) - c(f) + P[e][f]
        for e, f in combinations(range(g.edge_count), 2)
    )
    return {**_judge(Bound.rational(1), worst), "slot": (pair,)}


def _check_lm_double(inst, slot):
    return _judge(Bound.rational(2), min(containment_counts(inst.graph)))


def _check_lm_triple(inst, slot):
    return _judge(Bound.rational(3), min(containment_counts(inst.graph)))


def _check_lm_special(inst, slot):
    g = inst.graph
    e, f = slot
    # an automorphism may shuffle each set of parallel edges, so two ordered
    # edge pairs share an orbit exactly when their pairs of ends do
    key = ("special", _orbit_rep(g, "edge pair", (g.edges[e], g.edges[f]), _image))
    try:  # an AssertionError keeps nothing, so each slot names its own edges
        note = _memoized(g, key, lambda: (
            f"{special_pair(g, e, f).verdict}/{special_pair(g, f, e).verdict}"
        ))
    except AssertionError as exc:
        return _fail(Bound.rational(1), 0, note=str(exc))
    return _judge(Bound.rational(1), 1, note=note)


def _check_lm_bridge(inst, slot):
    g = inst.graph
    try:
        e = kotzig_bridge(g)
    except AssertionError as exc:
        return _fail(Bound.rational(1), 0, note=str(exc))
    ok = e in bridges(g) and count_matchings(g, CountQuery(required=frozenset({e}))) == 1
    return _judge(Bound.rational(1), int(ok), note=f"bridge={e}")


def _check_lm_3conn(inst, slot):
    g = inst.graph
    return _judge(Bound.rational(Fraction(g.vertex_count, 8)), _avoid_count(g, slot[0]))


def _check_lm_semiblock(inst, slot):
    g = inst.graph
    _, s = fam.semiblocks(g)
    worst = count_matchings(g) - max(containment_counts(g))  # the least N - c(e)
    return _judge(Bound.rational(s + 1), worst, note=f"s={s}")


def _check_thm_bb(inst, slot):
    g = inst.graph
    b = _bricks(g)
    if b is None:
        return _skip("not matching-covered")
    bound = g.edge_count - g.vertex_count + 1 - b
    return _judge(Bound.rational(bound), count_matchings(g), note=f"b={b}")


def _check_lm_bb_cubic(inst, slot):
    g = inst.graph
    b = _bricks(g)
    if b is None:
        return _skip("not matching-covered")
    return _judge(Bound.rational(Fraction(g.vertex_count, 4)), b, direction="<=")


def _check_lm_bb_bip(inst, slot):
    b = _bricks(inst.graph)
    if b is None:
        return _skip("not matching-covered")
    return _judge(Bound.rational(0), b, direction="<=")


def _check_lm_bb_3e(inst, slot):
    g = inst.graph
    b = _bricks_without(g, slot[:1])
    if b is None:
        return _skip("graph minus edge: not matching-covered")
    return _judge(Bound.rational(Fraction(3 * g.vertex_count, 8) - 2), b, direction="<=")


def _check_lm_bb_3ef(inst, slot):
    g = inst.graph
    e, p = slot[0], pair_counts(g)
    # f lies in no perfect matching of G - e when each one through f meets e
    stuck = [f for f in range(g.edge_count) if f != e and p[f][f] == p[f][e]]
    if not stuck:
        return _skip("graph minus edge is matching-covered")
    bound = Bound.rational(Fraction(g.vertex_count, 4) - 1)
    # deleting any other edge leaves a stuck one, so only these can be companions
    for f in stuck:
        b = _bricks_without(g, (e, f))
        if b is not None:
            return {**_judge(bound, b, direction="<="), "slot": (e, f)}
    return _fail(
        bound, g.edge_count, direction="<=",
        note="no companion edge makes the graph matching-covered",
    )


def _split_signature(g: Multigraph, path) -> tuple:
    """What ``split_off(g, path)`` builds, up to the order of its two new edges.

    The deleted edge v2v3, then the new edges v1v4 and w1w4 in order, where
    w1 and w4 are the third neighbours of v2 and v3.  Raises exactly where
    ``split_off`` does, so a degenerate path never shares a result.
    """
    v1, v2, v3, v4 = path
    w1, w4 = split_off_ends(g, path)
    return (_pair(v2, v3), *sorted((_pair(v1, v4), _pair(w1, w4))))


def _split_key(g: Multigraph, kind: str, signature) -> tuple:
    """The memo key of a ``kind`` result on the graph split off with ``signature``.

    Paths in one orbit of Aut(g) split off isomorphic graphs, so the key
    is the orbit's least signature.
    """
    return (kind, _orbit_rep(g, "split", signature, _split_image))


def _split_image(perm, signature):
    mid, *new = _image(perm, signature)
    return (mid, *sorted(new))


def _violating_side(h: Multigraph, ell: int) -> list[int] | None:
    """Side A of the first cyclic cut of h, in sweep order, of at most
    ell - 1 edges that has fewer than ell - 2 or is crossed by a new edge,
    or None.

    Read from the masks, sizes and flags of h's sweep; no ``EdgeCut`` is
    built.
    """
    sweep, n = _capped_sweep(h, ell - 1), h.vertex_count
    new_ends = [h.endpoints(e) for e in (h.edge_count - 2, h.edge_count - 1)]
    for mask, size, flag in zip(sweep.masks, sweep.sizes, sweep.cyclic):
        if not flag or size > ell - 1:
            continue
        side = mask << 1 | 1  # side A over all vertices: vertex 0 and bit v for vertex v
        if size < ell - 2 or any((side >> u ^ side >> v) & 1 for u, v in new_ends):
            return [v for v in range(n) if side >> v & 1]
    return None


def _check_lm_splitoff(inst, slot):
    g = inst.graph
    ell = _effective_connectivity(g)
    path = slot[0]
    try:  # the paths (a, v2, v3, c) and (b, v2, v3, d) split off one graph
        signature = _split_signature(g, path)
    except CubicpmError as exc:
        return _skip(f"degenerate path: {exc}")
    key = _split_key(g, "splitoff", signature)
    if g._memo.get(key):  # a graph split off in this orbit has no violating side
        worst = None
    else:
        # it names vertex ids, so only the paths that split off this graph share it
        worst = _memoized(
            g, ("splitoff side", signature), lambda: _violating_side(split_off(g, path), ell),
        )
        g._memo[key] = worst is None
    ok = worst is None
    return {
        **_judge(Bound.rational(1), int(ok), note=None if ok else f"violating side {worst}"),
        "slot": (path, ell),
    }


def _split5(g: Multigraph, paths):
    """Is either path's split graph 4-almost cyclically 4-edge-connected?

    Paths share verdicts by the orbit of their split signature in g's memo,
    and a path is split only while its orbit keeps no verdict.  Both
    signatures are read before any verdict: a degenerate path skips the slot
    whatever the other path gives.
    """
    try:
        keys = [_split_key(g, "split5", _split_signature(g, p)) for p in paths]
    except CubicpmError as exc:
        return _skip(f"degenerate path: {exc}")
    return _judge(Bound.rational(1), int(any(
        _memoized(g, key, lambda: is_k_almost_cyclically_4ec(split_off(g, p), 4)[0])
        for key, p in zip(keys, paths)
    )))


def _tail_guard(g: Multigraph, slot) -> str | None:
    """Why the triple (v1, v2, v3) has no two paths to split off: v3 has not
    two neighbours (tails) besides v2."""
    _, v2, v3 = slot[0]
    return None if sum(w != v2 for w in g.neighbors(v3)) == 2 else "tail neighbors not distinct"


def _check_lm_split5_same(inst, slot):
    g = inst.graph
    why = _tail_guard(g, slot)
    if why:
        return _skip(why)
    v1, v2, v3 = slot[0]
    return _split5(g, [(v1, v2, v3, tail) for tail in g.neighbors(v3) if tail != v2])


def _check_lm_split5_diff(inst, slot):
    g = inst.graph
    v1, v2, v4, v4p = slot
    rest = sorted(x for x in g.neighbors(v2) if x != v1)
    if len(rest) != 2:
        return _skip("branch neighbors not distinct")
    v3, v3p = rest
    return _split5(g, [(v1, v2, v3, v4), (v1, v2, v3p, v4p)])


@_on_cut_side
def _check_lm_split4a(g, cut, anchors):
    sub, _ = _surgery_graphs(g, cut)
    c4_side = _is_c4(induced_subgraph(g, cut.side_a)[0])
    ok = all(
        _is_3ec(s) and _cyclic_cut_edges(s, 3).isdisjoint(_attach_edge_ids(s))
        for s in sub.values()
    ) and (c4_side or sum(1 for s in sub.values() if _c4ec(s)) >= 2)
    return _judge(
        Bound.rational(1), int(ok),
        note="4-cycle side, connectivity clause only" if c4_side else None,
    )


@_on_cut_side
def _check_lm_split4b(g, cut, anchors):
    side_graph, _, _ = induced_subgraph(g, cut.side_a)
    if _is_c4(side_graph):
        return _skip("side is a 4-cycle")
    if side_graph.vertex_count == 6 and find_isomorphism(
        side_graph, fam.named("exceptional6")
    ):
        return _skip("side is the exceptional 6-vertex graph")
    sub, paired = _surgery_graphs(g, cut)
    s = {i: _c4ec(sub[i]) for i in (2, 3, 4)}
    p = {i: _c4ec(paired[i]) for i in (2, 3, 4)}
    first = all(s.values())
    second = any(
        s[i] and p[i] and any(s[j] for j in (2, 3, 4) if j != i) for i in (2, 3, 4)
    )
    return _judge(
        Bound.rational(1), int(first or second), note=f"subdivided={s}, paired={p}",
    )


def _check_lm_ordered(inst, slot):
    try:
        chain = ordered_4cut_chain(inst.graph, slot[0])
    except ChainViolation as exc:
        return _fail(Bound.rational(1), 0, note=str(exc))
    return _judge(Bound.rational(1), 1, note=f"chain length {len(chain)}")


@_on_cut_side
def _check_lm_ladder(g, cut, anchors):
    sub, vmap, _ = induced_subgraph(g, cut.side_a)
    va = {i + 1: vmap[anchors[i]] for i in range(4)}  # cut-edge label -> side vertex

    def near(i, j):
        return count_matchings(
            sub, CountQuery(missed_vertices=frozenset({va[i], va[j]}))
        )

    counts = {(2, 3): near(2, 3), (2, 4): near(2, 4), (3, 4): near(3, 4)}
    zeros = [pair for pair, c in counts.items() if c == 0]
    if not zeros:
        return _judge(Bound.rational(1), 1, note=f"all positive {counts}")
    recognized = fam.recognize_ladder(sub)
    for z in zeros:
        others = [pair for pair in counts if pair != z]
        if all(counts[o] >= 2 for o in others):
            continue
        ok_branch = False
        for o in others:
            if counts[o] != 1:
                continue
            shared = set(z) & set(o)
            if len(shared) != 1:
                continue
            (s_lbl,) = shared
            (zj,) = set(z) - shared
            (ok_lbl,) = set(o) - shared
            want = {
                frozenset({va[1], va[s_lbl]}),
                frozenset({va[zj], va[ok_lbl]}),
            }
            if recognized is None:
                continue
            got = {
                frozenset(sub.endpoints(recognized[0])),
                frozenset(sub.endpoints(recognized[1])),
            }
            if got == want:
                ok_branch = True
                break
        if not ok_branch:
            return _judge(
                Bound.rational(1), 0, note=f"counts {counts}, ladder ends {recognized}",
            )
    return _judge(Bound.rational(1), 1, note=f"zero case verified {counts}")


def _check_lm_twisted_num(inst, slot):
    g = inst.graph
    return _judge(Bound.pow2(Fraction(g.vertex_count + 12, 18)), count_matchings(g))


def _check_lm_twisted_bip(inst, slot):
    g = inst.graph
    color = two_coloring(g)
    cs = fam.corners(g)
    us = [c for c in cs if color[c] == 0]
    vs = [c for c in cs if color[c] == 1]
    bound = Bound.pow2(Fraction(g.vertex_count - 4, 18))
    if len(us) != 2 or len(vs) != 2:
        return _fail(bound, 0, note="corners not split two per color class")
    if count_matchings(g, CountQuery(missed_vertices=frozenset(cs))) < 1:
        return _fail(bound, 0, note="no matching avoiding all four corners")
    by_pair = dict(zip(map(frozenset, combinations(cs, 2)), _corner_pair_counts(g)))
    cross = {(u, v): by_pair[frozenset({u, v})] for u in us for v in vs}
    if any(c < 1 for c in cross.values()):
        return _fail(bound, 0, note=f"a cross-class corner pair has no matching: {cross}")
    return _judge(bound, max(cross.values()))


def _check_lm_twisted_nonbip(inst, slot):
    g = inst.graph
    prod = 1
    for c in _corner_pair_counts(g):
        prod *= c
    return _judge(Bound.pow2(Fraction(g.vertex_count + 8, 18)), prod)


def _check_lm_twisted_bis(inst, slot):
    g = inst.graph
    best = max(_corner_pair_counts(g))
    return _judge(Bound.pow2(Fraction(g.vertex_count - 4, 108)), best)


def _opposite_sides(g: Multigraph, e: int) -> list[frozenset[int]]:
    """The side of each cyclic 4-cut that holds neither end of e, in cut order.

    Read from the cut-side slots, which give each cut's two sides in turn.
    The edge e crosses no cyclic 4-cut, so one side of each holds both of
    its ends and the other neither.
    """
    a, b = g.endpoints(e)
    sides = (slot[0] for slot in _cut_side_params(g))
    return [frozenset(side) for side in sides if a not in side and b not in side]


def _check_lm_twisted_struc(inst, slot):
    g = inst.graph
    sides = _opposite_sides(g, slot[0])
    for s in sides:
        if _is_solid_side(g, s):
            return _skip("an opposite side is solid")
        if len(s) > fam.TWISTED_CAP:
            return _skip("opposite side exceeds recognizer cap")
    bad = []
    for s in sides:
        sub, _, _ = induced_subgraph(g, s)
        if fam.recognize_twisted_net(sub) is None:
            bad.append(sorted(s))
    return _judge(
        Bound.rational(1), int(not bad),
        note=f"{len(sides)} sides checked" if not bad else f"unrecognized sides {bad}",
    )


# ---------------------------------------------------------------------------
# the registry: one entry per lemma


class _Lemma(NamedTuple):
    """A lemma's check, its hypothesis and the generator of its parameter slots.

    The hypothesis runs once per (lemma, instance), and its reason fills every
    slot with the same Skipped report.  A generator that yields nothing gives
    one parameterless slot, Skipped with ``no_slot`` before the hypothesis runs.
    A ``guard(g, slot)`` gives a per-slot reason that the reports name ahead
    of the hypothesis's; the check applies it too, so it is the same whether
    the hypothesis holds or not.  ``keys`` names a slot's values in order,
    the generator's first and then those a check appends.
    """

    check: Callable[[Instance, tuple | None], dict]
    hypothesis: _Hypothesis
    params: Callable[[Multigraph], list[tuple]] | None = None
    no_slot: str | None = None
    guard: Callable[[Multigraph, tuple], str | None] | None = None
    keys: tuple[str, ...] = ()


# reasons shared by a hypothesis and the empty parameter set of its lemma
_BIP = "not cubic bridgeless bipartite"
_C4EC_CUBIC = "not cyclically 4-edge-connected cubic"
_3EC_CUBIC = "needs a 3-edge-connected cubic graph with an admissible edge"
_3EC_EDGE = "needs 3-edge-connected cubic with admissible edge"
_PATH = "not cubic or no admissible path"
_4CUT = "needs cyclically 4-edge-connected cubic with a cyclic 4-cut"
_4CUT_EDGE = "needs cyclically 4-edge-connected cubic with the edge in a cyclic 4-cut"
_STRUC = "needs cyclically 4-edge-connected cubic with an admissible edge"
_needs_3ec_edge = _needs(_3EC_EDGE, _is_3ec_cubic)
_twisted_net = _first(_twisted_skip, _COUNTING)  # known nets skip the recognizer and its cap
_needs_4cut = _swept(_4CUT, _is_cubic, _c4ec)
_EDGE = ("edge",)
_SIDE = ("side",)

_LEMMAS: dict[LemmaId, _Lemma] = {
    LemmaId.TH_HALF: _Lemma(_check_th_half, _first(_BRIDGELESS_CUBIC, _COUNTING)),
    LemmaId.THM_BIP: _Lemma(_check_thm_bip, _first(
        _needs(_BIP, lambda g: _is_bridgeless_cubic(g) and is_bipartite(g)), _COUNTING,
    ), _edge_params, _BIP, keys=_EDGE),
    LemmaId.THM_KLEE: _Lemma(_check_thm_klee, _first(
        _cap(fam.KLEE_CAP, "recognizer size cap"),
        _needs("not a Klee graph", lambda g: g.is_cubic and fam.is_klee(g)),
    )),
    LemmaId.THM_EF: _Lemma(_check_thm_ef, _first(
        _BRIDGELESS_CUBIC, _COUNTING, _needs("fewer than two edges", lambda g: g.edge_count >= 2),
    ), keys=("worst_pair",)),
    LemmaId.LM_DOUBLE: _Lemma(_check_lm_double, _first(
        _needs("not cyclically 3-edge-connected cubic", _is_3ec_cubic),
        _cap(fam.KLEE_CAP, "Klee recognizer size cap"),
        _needs("Klee graphs are exempt", lambda g: not fam.is_klee(g)),
    )),
    LemmaId.LM_TRIPLE: _Lemma(_check_lm_triple, _swept(
        "needs a cyclically 4-edge-connected bipartite cubic graph on >= 8 vertices",
        lambda g: g.is_cubic and is_bipartite(g) and g.vertex_count >= 8, _c4ec,
    )),
    LemmaId.LM_SPECIAL: _Lemma(
        _check_lm_special, _swept(_C4EC_CUBIC, _is_cubic, _c4ec),
        _edge_pair_params, _C4EC_CUBIC, keys=("e", "f"),
    ),
    LemmaId.LM_BRIDGE: _Lemma(_check_lm_bridge, _first(
        _cap(ENUMERATE_CAP, "enumeration size cap"),
        _needs("perfect matching is not unique", lambda g: count_matchings(g) == 1),
        _needs("no edges", lambda g: g.edge_count >= 1),
    )),
    LemmaId.LM_3CONN: _Lemma(
        _check_lm_3conn, _needs(_3EC_CUBIC, _is_3ec_cubic), _3ec_edge_params, _3EC_CUBIC,
        keys=_EDGE,
    ),
    LemmaId.LM_SEMIBLOCK: _Lemma(_check_lm_semiblock, _first(
        _BRIDGELESS_CUBIC, _CUT_SWEEP, _needs("no edges", lambda g: g.edge_count >= 1),
    )),
    LemmaId.THM_BB: _Lemma(_check_thm_bb, _first(_CONNECTED, _DECOMPOSITION)),
    LemmaId.LM_BB_CUBIC: _Lemma(_check_lm_bb_cubic, _first(_BRIDGELESS_CUBIC, _DECOMPOSITION)),
    LemmaId.LM_BB_BIP: _Lemma(
        _check_lm_bb_bip,
        _first(_needs("not bipartite", is_bipartite), _CONNECTED, _DECOMPOSITION),
    ),
    LemmaId.LM_BB_3E: _Lemma(
        _check_lm_bb_3e,  # G - e keeps every vertex, so its cap is decided on G
        _first(_needs_3ec_edge, _cap(dc.TIGHT_CAP, "graph minus edge: decomposition size cap")),
        _3ec_edge_params, _3EC_EDGE, keys=_EDGE,
    ),
    LemmaId.LM_BB_3EF: _Lemma(
        _check_lm_bb_3ef, _first(_needs_3ec_edge, _DECOMPOSITION), _3ec_edge_params, _3EC_EDGE,
        keys=("edge", "companion"),
    ),
    LemmaId.LM_SPLITOFF: _Lemma(
        _check_lm_splitoff, _first(_needs(_PATH, _is_cubic), _CUT_SWEEP, _splitoff_connectivity),
        _path_params, _PATH, keys=("path", "ell"),
    ),
    LemmaId.LM_SPLIT5_SAME: _Lemma(
        _check_lm_split5_same, _split5_hypothesis, _triple_params, "no admissible path",
        _tail_guard, keys=("triple",),
    ),
    LemmaId.LM_SPLIT5_DIFF: _Lemma(
        _check_lm_split5_diff, _split5_hypothesis, _branch_params, "no admissible path",
        keys=("v1", "v2", "v4", "v4p"),
    ),
    LemmaId.LM_SPLIT4A: _Lemma(
        _check_lm_split4a, _needs_4cut, _cut_side_params, _4CUT, keys=_SIDE,
    ),
    LemmaId.LM_SPLIT4B: _Lemma(
        _check_lm_split4b, _needs_4cut, _cut_side_params, _4CUT, keys=_SIDE,
    ),
    LemmaId.LM_ORDERED: _Lemma(
        _check_lm_ordered, _swept(_4CUT_EDGE, _is_cubic, _c4ec),
        _4cut_edge_params(inside=True), _4CUT_EDGE, keys=_EDGE,
    ),
    LemmaId.LM_LADDER: _Lemma(
        _check_lm_ladder, _needs_4cut, _cut_side_params, _4CUT, keys=_SIDE,
    ),
    LemmaId.LM_TWISTED_NUM: _Lemma(_check_lm_twisted_num, _twisted_net),
    LemmaId.LM_TWISTED_BIP: _Lemma(
        _check_lm_twisted_bip, _first(_twisted_net, _needs("not bipartite", is_bipartite)),
    ),
    LemmaId.LM_TWISTED_NONBIP: _Lemma(
        _check_lm_twisted_nonbip,
        _first(_twisted_net, _needs("bipartite", lambda g: not is_bipartite(g))),
    ),
    LemmaId.LM_TWISTED_BIS: _Lemma(_check_lm_twisted_bis, _twisted_net),
    LemmaId.LM_TWISTED_STRUC: _Lemma(
        _check_lm_twisted_struc, _swept(_STRUC, _is_cubic, _c4ec),
        _4cut_edge_params(inside=False), _STRUC, keys=_EDGE,
    ),
}


def params_for(lemma: LemmaId, inst: Instance) -> list[tuple | None]:
    """The lemma's admissible slots on the instance, each a tuple of values in
    the order of the lemma's ``keys``, or one parameterless slot (None)."""
    entry = _LEMMAS[lemma]
    return (entry.params(inst.graph) if entry.params else []) or [None]


def _reports(lemma: LemmaId, inst: Instance, slots: list[tuple | None]) -> Iterable[LemmaReport]:
    """One report per slot, with the hypothesis tested once, before the first.

    A failed hypothesis gives the whole run of Skipped reports at once, each
    slot naming its guard's reason, if any, ahead of the hypothesis's.
    Otherwise the slots are checked lazily, one per report taken, so a
    caller that stops at a Fail runs no later check.
    """
    entry = _LEMMAS[lemma]
    name, g = inst.name, inst.graph
    no_slot = entry.params and slots == [None]  # this slot never reaches the guard
    why = entry.no_slot if no_slot else entry.hypothesis(inst)
    if why:
        guard = None if no_slot else entry.guard
        return [
            LemmaReport(lemma, name, p, False, None, None, ">=", "Skipped", (
                guard and guard(g, p) or why
            ))
            for p in slots
        ]
    return (
        LemmaReport(lemma=lemma, instance=name, **{"slot": p, **entry.check(inst, p)})
        for p in slots
    )


def check(
    lemma: LemmaId,
    g: Multigraph,
    params: dict | None = None,
    instance: str = "adhoc",
    known_twisted: bool = False,
) -> LemmaReport:
    """Run one lemma check; with no params, aggregate over all admissible ones.

    A params dict is taken as a report renders it: its values, in the order
    of the lemma's keys, become the slot, each list as a tuple.  Aggregation returns the worst report: any Fail wins, otherwise
    the tightest margin; if nothing is admissible the result is Skipped.
    """
    inst = Instance(instance, g, known_twisted)
    slots = params_for(lemma, inst) if params is None else [_slot(lemma, params)]
    return _aggregate(list(_reports(lemma, inst, slots)))


def _slot(lemma: LemmaId, params: dict) -> tuple:
    """The slot that renders as ``params``, whose keys must be the leading
    keys of the lemma, in any order; a KeyError names them otherwise."""
    keys = _LEMMAS[lemma].keys
    if set(params) != set(keys[:len(params)]):
        raise KeyError(f"{lemma.value} takes params keyed {keys}, not {tuple(params)}")
    return tuple(
        tuple(params[k]) if isinstance(params[k], list) else params[k]
        for k in keys[:len(params)]
    )


def check_lm_ladder(g: Multigraph, cut: EdgeCut, instance: str = "adhoc") -> LemmaReport:
    """The zero/one/ladder trichotomy for near-perfect counts on side A of a 4-cut.

    For the other side, pass ``cut.flipped(g)``.
    """
    return check(LemmaId.LM_LADDER, g, {"side": sorted(cut.side_a)}, instance)


def _aggregate(reports: list[LemmaReport]) -> LemmaReport:
    fails = [r for r in reports if r.verdict == "Fail"]
    if fails:
        return fails[0]
    passes = [r for r in reports if r.verdict == "Pass"]
    if passes:
        def margin(r):
            if r.bound is None or r.measured is None:
                return Fraction(0)
            if r.bound.kind == "rational":
                diff = Fraction(r.measured) - Fraction(r.bound.num, r.bound.den)
                return diff if r.direction == ">=" else -diff
            return Fraction(int(r.measured))
        return min(passes, key=margin)
    return reports[0]


def sweep(
    lemmas: Iterable[LemmaId],
    instances: Iterable[Instance],
    fail_fast: bool = True,
) -> list[LemmaReport]:
    """One report per (lemma, instance, admissible parameter choice).

    Deterministic order: lemmas as given, instances as given, parameters in
    enumeration order.  Each lemma's hypothesis is tested once per instance.
    With ``fail_fast`` the first Fail raises LemmaFailure with a full
    instance dump, and no check runs after the one that failed.
    """
    instances = list(instances)
    out: list[LemmaReport] = []
    for lemma in lemmas:
        for inst in instances:
            for rep in _reports(lemma, inst, params_for(lemma, inst)):
                out.append(rep)
                if rep.verdict == "Fail" and fail_fast:
                    raise LemmaFailure(rep, inst.graph)
    return out


def summarize_csv(reports: list[LemmaReport]) -> str:
    """Per-lemma pass/fail/skip tallies as CSV."""
    return tally_csv((r.lemma.value, r.verdict) for r in reports)


def tally_csv(verdicts: Iterable[tuple[str, str]]) -> str:
    """Per-lemma pass/fail/skip tallies as CSV, from (lemma id, verdict) pairs."""
    by: dict[str, Counter] = {}
    for lemma, verdict in verdicts:
        by.setdefault(lemma, Counter())[verdict] += 1
    rows = ["lemma,total,pass,fail,skipped"]
    for lemma in sorted(by):
        c = by[lemma]
        rows.append(f"{lemma},{sum(c.values())},{c['Pass']},{c['Fail']},{c['Skipped']}")
    return "\n".join(rows) + "\n"


def _members(obj: dict) -> str:
    """The members of ``obj`` as ``json.dumps(indent=2, sort_keys=True)``
    writes them inside an object that is an item of a top-level list."""
    return "  " + json.dumps(obj, indent=2, sort_keys=True)[2:-2].replace("\n", "\n  ")


def encode_reports(reports: Iterable[LemmaReport]) -> str:
    """``json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)``.

    The same text, with the parts that reports repeat encoded once each
    (an indent sends ``json`` to its pure-Python encoder) and joined in
    sorted-key order: the members that sort before ``params``, kept per
    lemma under the other fields they come from; ``params``, per lemma
    under the slot; and ``reason`` with ``verdict``.  A key is the repr of
    those values, which tells True from 1 and Fraction(3) from 3: values
    that compare equal but that JSON writes apart never share an entry.  A
    report renders its dict only where one of its parts is new.
    """
    by_lemma: dict = {}
    tails: dict = {}
    items = []
    lemma = None
    for r in reports:
        if r.lemma is not lemma:
            lemma = r.lemma
            heads, params = by_lemma.setdefault(lemma, ({}, {}))
        bound = r.bound and tuple(r.bound)  # the repr of a plain tuple is the faster
        head_key = repr((r.instance, r.hypothesis_met, bound, r.measured, r.direction, r.note))
        slot_key = repr(r.slot)
        tail_key = r.reason, r.verdict
        head, slot, tail = heads.get(head_key), params.get(slot_key), tails.get(tail_key)
        if head is None or slot is None or tail is None:
            d = r.to_json()
            if head is None:
                head = heads[head_key] = _members({k: v for k, v in d.items() if k < "params"})
            if slot is None:
                slot = params[slot_key] = _members({"params": d["params"]})
            if tail is None:
                tail = tails[tail_key] = _members({"reason": d["reason"], "verdict": d["verdict"]})
        items.append(f"  {{\n{head},\n{slot},\n{tail}\n  }}")
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


# ---------------------------------------------------------------------------
# corpus builders


def named_instances(names: Iterable[str] = fam.NAMED) -> list[Instance]:
    return [Instance(name, fam.named(name)) for name in names]


def random_instances(count: int, n_lo: int, n_hi: int, seed: int) -> list[Instance]:
    """Seeded pairing-model corpus; sizes cycle through the even values."""
    sizes = [n for n in range(n_lo, n_hi + 1) if n % 2 == 0 and n >= 4]
    if not sizes:
        raise BadSize(f"no even size of at least 4 in {n_lo}..{n_hi}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        sub = rng.getrandbits(32)
        g = fam.random_cubic_bridgeless(sub, n)
        out.append(Instance(f"random(seed={seed},i={i},n={n},sub={sub})", g))
    return out


def twisted_instances(
    count: int, seed: int, n_lo: int = 4, n_hi: int = 26
) -> list[Instance]:
    """Random twisted-net corpus with a bipartite / non-bipartite mix."""
    sizes = [n for n in range(n_lo, n_hi + 1) if n % 2 == 0]
    if not sizes:
        raise BadSize(f"no even size in {n_lo}..{n_hi}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        want = None
        if n >= 6:
            roll = i % 4
            want = True if roll == 1 else False if roll == 2 else None
        sub = rng.getrandbits(32)
        g, _recipe = fam.random_twisted_net(sub, n, want)
        out.append(Instance(f"twisted(seed={seed},i={i},n={n},sub={sub})", g, known_twisted=True))
    return out
