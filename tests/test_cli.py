import json
import re
import subprocess
import sys
from itertools import combinations

import pytest

from cubicpm import (
    LemmaId,
    Multigraph,
    count_matchings,
    named,
    random_cubic_bridgeless,
    write_edge_list,
)
from cubicpm.cli import run
from cubicpm.matchings import STATE_CAP


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_named(capsys):
    code, out, _ = _capture(capsys, ["count", "--name", "petersen"])
    assert code == 0 and out == "6\n"


def test_count_from_file(tmp_path, capsys):
    path = tmp_path / "petersen.el"
    path.write_text(write_edge_list(named("petersen")))
    code, out, _ = _capture(capsys, ["count", "--graph", str(path)])
    assert code == 0 and out == "6\n"


def test_count_beyond_thirty_vertices(tmp_path, capsys):
    g = random_cubic_bridgeless(1, 40)
    path = tmp_path / "random40.el"
    path.write_text(write_edge_list(g))
    code, out, _ = _capture(capsys, ["count", "--graph", str(path)])
    assert code == 0 and out == f"{count_matchings(g)}\n"


def test_count_on_a_dense_graph_stops_at_the_dp_state_cap(tmp_path, capsys):
    """K_40 is within the vertex cap, but its DP states are not."""
    path = tmp_path / "k40.el"
    path.write_text(write_edge_list(Multigraph(40, tuple(combinations(range(40), 2)))))
    code, out, err = _capture(capsys, ["count", "--graph", str(path)])
    assert code == 2 and not out
    assert err == f"error: counting capped at {STATE_CAP} DP states\n"


def test_count_graph6(tmp_path, capsys):
    path = tmp_path / "petersen.g6"
    path.write_text("IheA@GUAo\n")
    code, out, _ = _capture(capsys, ["count", "--graph", str(path), "--g6"])
    assert code == 0 and out == "6\n"


def test_cuts_human(capsys):
    code, out, _ = _capture(capsys, ["cuts", "--name", "prism"])
    assert code == 0
    assert "cyclic_edge_connectivity: 3" in out
    assert "bridges: []" in out


def test_decompose_k33(tmp_path, capsys):
    path = tmp_path / "k33.el"
    path.write_text(write_edge_list(named("k33")))
    code, out, _ = _capture(capsys, ["decompose", "--graph", str(path)])
    assert code == 0
    assert "brace(n=6,m=9)" in out and "b=0" in out


def test_decompose_json(capsys):
    code, out, _ = _capture(capsys, ["decompose", "--name", "petersen", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["bricks"] == 1 and data["elp_bound"] == 5
    assert data["tree"]["kind"] == "brick"


def test_decompose_reads_one_tree(capsys, monkeypatch, tmp_path):
    """The tree, b and the bound come from one decomposition with one root sweep."""
    from cubicpm import decomposition

    cube = named("cube")
    path = tmp_path / "cube-e.el"
    path.write_text(write_edge_list(Multigraph(8, cube.edges[1:])))
    calls = []
    sweep = decomposition.tight_cuts
    monkeypatch.setattr(decomposition, "tight_cuts", lambda g: calls.append(g) or sweep(g))
    code, out, _ = _capture(capsys, ["decompose", "--graph", str(path)])
    assert code == 0 and len(calls) == 1
    assert out.count("(n=") == 3 and "b=" in out and "elp_bound=" in out


def test_generate_requires_seed(capsys):
    code, _, err = _capture(capsys, ["generate", "--random", "2", "--n", "6..8"])
    assert code == 2 and "seed" in err


def test_generate_named(capsys):
    code, out, _ = _capture(capsys, ["generate", "--name", "theta"])
    assert code == 0 and out == "2 3\n0 1\n0 1\n0 1\n"


def test_verify_json_exit_zero(capsys):
    code, out, _ = _capture(
        capsys,
        ["verify", "--lemma", "TH_HALF", "--random", "5", "--n", "4..10", "--seed", "7", "--json"],
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 5
    assert all(r["verdict"] == "Pass" for r in reports)
    assert all(r["lemma"] == "TH_HALF" for r in reports)


@pytest.mark.parametrize("lemmas", ["TH_HALF,THM_EF,LM_SPECIAL", "all"])
def test_verify_json_writes_what_json_dumps_writes(capsys, lemmas):
    """``verify --json`` encodes its reports with ``verifier.encode_reports``."""
    from cubicpm.verifier import LemmaFailure, named_instances, sweep

    code, out, _ = _capture(capsys, ["verify", "--lemma", lemmas, "--name", "petersen", "--json"])
    ids = list(LemmaId) if lemmas == "all" else [LemmaId(t) for t in lemmas.split(",")]
    try:
        reports = sweep(ids, named_instances(["petersen"]), fail_fast=True)
    except LemmaFailure as exc:
        reports = [exc.report]
    assert code == (reports[-1].verdict == "Fail")
    assert out == json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True) + "\n"


def test_verify_cut_sweeping_lemmas_above_the_cut_cap(capsys):
    code, out, err = _capture(
        capsys,
        ["verify", "--lemma", "LM_SPLIT4A,LM_SPLIT4B,LM_LADDER", "--twisted", "5",
         "--n", "26..26", "--seed", "7", "--json"],
    )
    assert code == 0, err
    reports = json.loads(out)
    assert len(reports) == 15 and all(r["verdict"] == "Skipped" for r in reports)


@pytest.mark.parametrize("seed", [3, 4])
def test_verify_all_lemmas_above_the_cut_cap(tmp_path, capsys, seed):
    path = tmp_path / "n26.el"
    path.write_text(write_edge_list(random_cubic_bridgeless(seed, 26)))
    code, _, err = _capture(capsys, ["verify", "--lemma", "all", "--graph", str(path)])
    assert code in (0, 1), err  # a cut sweep over the cap used to abort with 2


def test_verify_n_bounds_the_twisted_corpus(capsys):
    def sizes(extra):
        code, out, _ = _capture(
            capsys,
            ["verify", "--lemma", "TH_HALF", "--twisted", "12", "--seed", "7", "--json"] + extra,
        )
        assert code == 0
        return {int(re.search(r",n=(\d+),", r["instance"]).group(1)) for r in json.loads(out)}

    assert max(sizes(["--n", "4..14"])) == 14
    assert max(sizes([])) == 26  # the twisted default range


def test_verify_unknown_lemma(capsys):
    code, _, err = _capture(capsys, ["verify", "--lemma", "NOPE", "--name", "k4"])
    assert code == 2 and "unknown lemma id" in err


def test_verify_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--lemma", "TH_HALF", "--name", "k4", "--frobnicate"])
    assert exc.value.code == 2


def test_report_csv(tmp_path, capsys):
    code, out, _ = _capture(
        capsys,
        ["verify", "--lemma", "TH_HALF", "--name", "petersen", "--json"],
    )
    assert code == 0
    src = tmp_path / "reports.json"
    src.write_text(out)
    code, out, _ = _capture(capsys, ["report", "--graph", str(src)])
    assert code == 0
    assert out.splitlines()[0] == "lemma,total,pass,fail,skipped"
    assert "TH_HALF,1,1,0,0" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = _capture(capsys, ["count", "--name", "cube", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == "9\n"


def test_byte_identical_across_runs():
    argv = [
        sys.executable, "-m", "cubicpm.cli", "verify",
        "--lemma", "TH_HALF,THM_EF", "--random", "6", "--n", "4..10",
        "--seed", "13", "--json",
    ]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# argv with FILE standing for a path in the test's directory and DIR for that
# directory, and the text written to FILE first (None: the file does not exist)
MALFORMED = {
    "random-corpus-without-even-size": (
        ["verify", "--lemma", "TH_HALF", "--random", "3", "--n", "5..5", "--seed", "1"], None,
    ),
    "generated-corpus-without-even-size": (
        ["generate", "--random", "3", "--n", "5..5", "--seed", "1"], None,
    ),
    "twisted-corpus-without-even-size": (
        ["verify", "--lemma", "TH_HALF", "--twisted", "3", "--n", "5..5", "--seed", "1"], None,
    ),
    "non-numeric-header": (["count", "--graph", "FILE"], "n 1\n0 1\n"),
    "non-numeric-edge": (["count", "--graph", "FILE"], "2 1\n0 x\n"),
    "missing-graph-file": (["count", "--graph", "FILE"], None),
    "report-row-without-verdict": (["report", "--graph", "FILE"], '[{"lemma": "TH_HALF"}]'),
    "report-not-json": (["report", "--graph", "FILE"], "TH_HALF,Pass\n"),
    "out-in-a-missing-directory": (["count", "--name", "petersen", "--out", "FILE/x"], None),
    "out-names-a-directory": (["count", "--name", "petersen", "--out", "DIR"], None),
}


@pytest.mark.parametrize("argv,text", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, argv, text):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    argv = [a.replace("FILE", str(path)).replace("DIR", str(tmp_path)) for a in argv]
    code, _, err = _capture(capsys, argv)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
