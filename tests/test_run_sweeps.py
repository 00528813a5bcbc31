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
from pathlib import Path

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
