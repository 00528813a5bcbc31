"""The README batch sweep, run to completion from a fresh interpreter.

``scripts/run_sweeps.py --seed 7 --random 40 --twisted 60`` is the headline
command of the README.  Its reports and tallies are pinned by sha256, so a
change that alters any report byte fails here and must say why.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cubicpm.verifier import (
    Bound,
    LemmaId,
    LemmaReport,
    encode_reports,
    named_instances,
    sweep,
)

ROOT = Path(__file__).resolve().parents[1]
HEADLINE = ["--seed", "7", "--random", "40", "--twisted", "60"]
REPORTS_SHA256 = "6155fbb3712323afc9222a208e6c7c2db2c376d3bc09fc9d5b9a617131a45917"
SUMMARY_SHA256 = "a8c1646491ba4c1138c75f3cdba0634692324b400ef9e7598e6413dd08702dac"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_readme_headline_sweep_exits_1_with_its_known_reports(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweeps.py"), "--out", str(tmp_path), *HEADLINE],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 1, done.stderr
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert len(reports) == 57109
    assert sum(r["verdict"] == "Fail" for r in reports) == 19
    assert _sha256(tmp_path / "reports.json") == REPORTS_SHA256
    assert _sha256(tmp_path / "summary.csv") == SUMMARY_SHA256
    assert len(list((tmp_path / "graphs").iterdir())) == 109


def test_the_report_encoder_writes_what_json_dumps_writes():
    """Values that compare equal but that JSON writes apart (True and 1,
    Fraction(3) and 3) get parts of their own."""
    two, edge = Bound.rational(2), LemmaId.THM_BIP
    reports = [
        LemmaReport(edge, "g", (1,), True, two, 1),
        LemmaReport(edge, "g", (True,), True, two, True),
        LemmaReport(edge, "g", (1,), True, two, 3),
        LemmaReport(edge, "g", (1,), True, two, Fraction(3)),
        LemmaReport(edge, "g", (1,), True, two, 3, note="tight"),
        LemmaReport(edge, "g", (2,), False, None, None, ">=", "Skipped", "why"),
        LemmaReport(LemmaId.TH_HALF, "g", None, 1, Bound.pow2(Fraction(1, 3)), Fraction(7, 2)),
        LemmaReport(LemmaId.LM_SPLIT4A, "h", ((0, 1, 2),), True, two, 3),
        *sweep([LemmaId.LM_SPLIT5_DIFF, LemmaId.THM_EF], named_instances(["petersen"]), False),
    ]
    for some in (reports, reports[::-1], []):
        assert encode_reports(some) == json.dumps([r.to_json() for r in some], indent=2, sort_keys=True)
