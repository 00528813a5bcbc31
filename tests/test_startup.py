"""What a fresh process imports: the verifier loads only where it is used.

Each case runs a new interpreter under ``-X importtime``, which names every
module the process imports on its standard error.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubicpm

ROOT = Path(__file__).resolve().parents[1]

# ``cubicpm.__all__`` as it stood while the package imported the verifier eagerly
PUBLIC = [
    "Bound", "CountQuery", "CyclicConnectivity", "DecompositionNode", "DegreeExcess", "EdgeCut",
    "Instance", "KleeRecipe", "LemmaFailure", "LemmaId", "LemmaReport", "Matching",
    "Multigraph", "SurgeryRecord", "SurgeryTrace", "TwistedNetRecipe", "WeightVector",
    "b_expand", "brick_count", "bridges", "build_cut", "check", "check_lm_ladder",
    "connectivity", "contract", "corners", "count_matchings", "cut_surgery_pair",
    "cyclic_edge_connectivity", "decompose", "decomposition", "degree_excess", "elp_bound",
    "enumerate_cuts", "enumerate_matchings", "errors", "families", "find_isomorphism",
    "formats", "fractional_pm_via_flow", "from_edge_list", "glue", "has_matching",
    "induced_subgraph", "is_bicritical", "is_brace", "is_brick", "is_double_covered",
    "is_isomorphic", "is_k_almost_cyclically_4ec", "is_klee", "is_matching_covered", "klee",
    "kotzig_bridge", "ladder", "matchings", "multigraph", "named", "observation_cyc_check",
    "ordered_4cut_chain", "polytope_membership", "random_cubic_bridgeless", "random_klee",
    "random_twisted_net", "read_edge_list", "read_graph6", "recognize_ladder",
    "recognize_twisted_net", "replace_vertex_with_triangle", "semiblocks", "special_pair",
    "split_off", "sweep", "tight_cuts", "twisted_net", "verifier", "write_edge_list",
]


def _imported(*args: str) -> set[str]:
    """The modules a fresh ``python -X importtime ARGS`` imports (it must exit 0)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }


@pytest.mark.parametrize("args", [
    ("-c", "import cubicpm"),
    ("-c", "import cubicpm.matchings"),
    ("-m", "cubicpm.cli", "count", "--name", "petersen"),
], ids=["package", "matchings", "cli-count"])
def test_a_process_that_checks_no_lemma_never_imports_the_verifier(args):
    imported = _imported(*args)
    assert {"cubicpm", "cubicpm.matchings", "cubicpm.families"} <= imported
    assert "cubicpm.verifier" not in imported


@pytest.mark.parametrize("args", [
    ("-c", "import cubicpm; cubicpm.Bound"),
    ("-m", "cubicpm.cli", "verify", "--name", "k4", "--lemma", "TH_HALF"),
], ids=["first-read", "cli-verify"])
def test_the_verifier_is_imported_on_first_use(args):
    assert "cubicpm.verifier" in _imported(*args)


def test_the_public_names_are_kept_and_each_resolves():
    assert cubicpm.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(cubicpm, name) is not None
    from cubicpm import verifier

    assert cubicpm.verifier is verifier and cubicpm.LemmaReport is verifier.LemmaReport
    assert set(PUBLIC) <= set(dir(cubicpm))


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from cubicpm import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["sweep"] is cubicpm.verifier.sweep


def test_an_unknown_name_still_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cubicpm.no_such_name
    assert not hasattr(cubicpm, "no_such_name")
    with pytest.raises(ImportError):
        exec("from cubicpm import no_such_name", {})
