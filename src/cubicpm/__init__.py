"""Exact verification toolkit for perfect-matching structure in cubic
bridgeless multigraphs: graph surgeries, cut machinery, matching counts,
tight-cut decomposition, family generators, and a lemma-checking harness."""

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
from .verifier import (
    Bound,
    Instance,
    LemmaFailure,
    LemmaId,
    LemmaReport,
    check,
    check_lm_ladder,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
