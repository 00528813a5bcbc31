"""The two workloads, each a fixed list of ops generated from a seed.

``build(workload, seed)`` generates every graph up front (that cost belongs
to set-up) and returns ops whose calls look up the cubicpm function through
its module at call time, so the tracer's rebinding is seen; never bind a
cubicpm function itself into an op.

The seed given on the command line is reduced modulo ``INPUT_SEEDS``; a
reference was recorded at the defining commit for each of those input seeds,
so every run, whatever its seed, is checked against recorded outputs.
"""

from __future__ import annotations

import functools
import random

from bench_ops import Op

INPUT_SEEDS = 16
DEFAULT_SEED = 7  # the seed of the README batch command

# catalog: the corpus of `scripts/run_sweeps.py --seed 7 --random 40 --twisted 60`
CATALOG_RANDOM = (40, 4, 14)  # count, n_lo, n_hi
CATALOG_TWISTED = (60, 4, 26)  # n = 26 keeps the cut-cap crash visible

# oracle_queries: one-shot queries at the size caps, each on a fresh graph.
# (n, how many graphs); the cap queries are sized so the cut sweeps carry
# about half of their time, the polytope sweeps 30% and decompose a sixth.
ORACLE_CUTS = ((18, 8), (20, 4), (22, 12), (24, 1))
ORACLE_POLYTOPE = ((16, 2), (18, 1), (20, 1))
ORACLE_DECOMPOSE = ((14, 20), (16, 70))
ORACLE_K_ALMOST = ((18, 10), (20, 4))
K_ALMOST_K = 4

# Then the matching battery, about 40% of the workload's time: graphs cycle
# through the sizes; each gets one plain count, the two m-fold batteries and
# PAIRS single constrained counts of each constrained kind.  It shares this
# workload because on its own its 25-second runs did not repeat within the
# bound on a 2-vCPU host whose speed drifts by 15% over minutes.
BATTERY_SIZES = (24, 26, 28, 30)
BATTERY_GRAPHS = 80
BATTERY_PAIRS = 4
ENUMERATE_SIZES = (16, 18, 20)
ENUMERATE_GRAPHS = 30

WORKLOADS = ("catalog", "oracle_queries")


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def build(workload: str, seed: int) -> list[Op]:
    builders = {"catalog": _catalog, "oracle_queries": _oracle_queries}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](input_seed(seed))


def _catalog(seed: int) -> list[Op]:
    """One op per (lemma, instance), lemma-major, as `run_sweeps.py` orders them."""
    from cubicpm import verifier as vf

    corpus = vf.named_instances()
    count, lo, hi = CATALOG_RANDOM
    corpus += vf.random_instances(count, lo, hi, seed=seed)
    count, lo, hi = CATALOG_TWISTED
    corpus += vf.twisted_instances(count, seed=seed + 1, n_lo=lo, n_hi=hi)

    def canon(reports):
        return [r.to_json() for r in reports]

    def op(lemma, inst):
        def call():
            return vf.sweep([lemma], [inst], fail_fast=False)

        return Op(call, canon, root_span="verifier.sweep")

    return [op(lemma, inst) for lemma in vf.LemmaId for inst in corpus]


class _Graphs:
    """Fresh seeded `random_cubic_bridgeless` graphs, one sub-seed each."""

    def __init__(self, seed: int, stream: str):
        self.rng = random.Random(f"{stream}/{seed}")

    def __call__(self, n: int):
        from cubicpm import families

        return families.random_cubic_bridgeless(self.rng.getrandbits(32), n)


def _oracle_queries(seed: int) -> list[Op]:
    from cubicpm import connectivity as cn
    from cubicpm import decomposition as dc
    from cubicpm import matchings as mt

    fresh = _Graphs(seed, "oracle_queries")
    ops = []

    def cuts(g):
        c = cn.cyclic_edge_connectivity(g)
        found = () if c.value is None else cn.enumerate_cuts(g, c.value, cyclic_only=True)
        return c.value, found

    def cuts_canon(res):
        value, found = res
        return [value, [[sorted(c.side_a), sorted(c.crossing_edges)] for c in found]]

    def polytope(g):
        return mt.polytope_membership(g, mt.uniform_third(g), force_odd_set_check=True)

    def k_almost_canon(res):
        found, witness = res
        return [found, [list(side) for side in witness]]

    for sizes, query, canon in (
        (ORACLE_CUTS, cuts, cuts_canon),
        (ORACLE_POLYTOPE, polytope, bool),
        (ORACLE_DECOMPOSE, lambda g: dc.decompose(g), lambda node: node.to_dict()),
        (ORACLE_K_ALMOST, lambda g: cn.is_k_almost_cyclically_4ec(g, K_ALMOST_K), k_almost_canon),
    ):
        for n, k in sizes:
            for _ in range(k):
                ops.append(Op(functools.partial(query, fresh(n)), canon))
    return ops + _matching_battery(seed)


def _matching_battery(seed: int) -> list[Op]:
    from cubicpm import matchings as mt

    fresh = _Graphs(seed, "matching_battery")
    pick = random.Random(f"matching_battery/pairs/{seed}")
    ops = []
    for i in range(BATTERY_GRAPHS):
        g = fresh(BATTERY_SIZES[i % len(BATTERY_SIZES)])
        ops += [
            Op(lambda g=g: mt.count_matchings(g), int),
            Op(lambda g=g: mt.containment_counts(g), list),
            Op(lambda g=g: mt.is_matching_covered(g), bool),
        ]
        for _ in range(BATTERY_PAIRS):
            # avoid two edges: the THM_EF query
            q = mt.CountQuery(forbidden=frozenset(pick.sample(range(g.edge_count), 2)))
            ops.append(Op(lambda g=g, q=q: mt.count_matchings(g, q), int))
        for _ in range(BATTERY_PAIRS):
            # miss two vertices: the LM_LADDER / twisted-corner query
            q = mt.CountQuery(missed_vertices=frozenset(pick.sample(range(g.vertex_count), 2)))
            ops.append(Op(lambda g=g, q=q: mt.count_matchings(g, q), int))
    for i in range(ENUMERATE_GRAPHS):
        g = fresh(ENUMERATE_SIZES[i % len(ENUMERATE_SIZES)])
        ops.append(Op(lambda g=g: mt.enumerate_matchings(g), lambda ms: [m.to_json() for m in ms]))
    return ops
