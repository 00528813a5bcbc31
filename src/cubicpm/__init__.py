"""Exact verification toolkit for perfect-matching structure in cubic
bridgeless multigraphs: graph surgeries, cut machinery, matching counts,
tight-cut decomposition, family generators, and a lemma-checking harness.

The kernel modules and ``formats`` are imported with the package.  The
lemma-checking harness, ``verifier``, is imported on first use: its names
below resolve through the module ``__getattr__`` (PEP 562), so a process
that only asks kernel questions never loads it.
"""

from .multigraph import (
    DegreeExcess,
    Multigraph,
    SurgeryRecord,
    SurgeryTrace,
    b_expand,
    contract,
    degree_excess,
    find_isomorphism,
    from_edge_list,
    glue,
    induced_subgraph,
    is_isomorphic,
    replace_vertex_with_triangle,
    split_off,
)
from .formats import read_edge_list, read_graph6, write_edge_list
from .connectivity import (
    CyclicConnectivity,
    EdgeCut,
    bridges,
    build_cut,
    cut_surgery_pair,
    cyclic_edge_connectivity,
    enumerate_cuts,
    is_k_almost_cyclically_4ec,
    observation_cyc_check,
    ordered_4cut_chain,
)
from .matchings import (
    CountQuery,
    Matching,
    WeightVector,
    count_matchings,
    enumerate_matchings,
    fractional_pm_via_flow,
    has_matching,
    is_double_covered,
    is_matching_covered,
    kotzig_bridge,
    polytope_membership,
    special_pair,
)
from .decomposition import (
    DecompositionNode,
    brick_count,
    decompose,
    elp_bound,
    is_bicritical,
    is_brace,
    is_brick,
    tight_cuts,
)
from .families import (
    KleeRecipe,
    TwistedNetRecipe,
    corners,
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

# The verifier's public names: the first read of one, or of ``verifier``, imports it.
_VERIFIER = (
    "Bound",
    "Instance",
    "LemmaFailure",
    "LemmaId",
    "LemmaReport",
    "check",
    "check_lm_ladder",
    "sweep",
)

__all__ = sorted({name for name in dir() if not name.startswith("_")} | {*_VERIFIER, "verifier"})


def __getattr__(name: str):
    if name != "verifier" and name not in _VERIFIER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.verifier")  # binds the module as "verifier" here
    if name != "verifier":  # kept, so later reads do not come back here
        globals()[name] = getattr(globals()["verifier"], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
