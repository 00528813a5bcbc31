"""``scripts/bench_pairs.py`` on two small synthetic BENCH files."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog", "oracle_queries")
METRICS = ("setup_s", "wall_s", "peak_rss_mb", "ops_ok_frac")


def _bench(path, runs):
    """A BENCH file whose run i holds ``runs[i]`` over the defaults below."""
    default = {"setup_s": 0.3, "wall_s": 1.0, "peak_rss_mb": 50.0, "ops_ok_frac": 1.0}
    path.write_text(json.dumps({"runs": [
        {workload: {**default, **run.get(workload, {})} for workload in WORKLOADS}
        for run in runs
    ]}))
    return str(path)


def test_each_row_gives_medians_wins_and_a_verdict(tmp_path):
    jitter = [0.0, 0.01, -0.01, 0.02, -0.02, 0.0, 0.01, -0.01, 0.02, -0.02]
    parent = _bench(tmp_path / "parent.json", [
        {"catalog": {"peak_rss_mb": 59.0 + j, "wall_s": 1.0 + 30 * j}} for j in jitter
    ])
    change = _bench(tmp_path / "change.json", [
        {"catalog": {"peak_rss_mb": 56.8 + j}, "oracle_queries": {"wall_s": 1.5 + j}}
        for j in jitter
    ])
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), parent, change],
        capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 1 and len(lines) == len(WORKLOADS) * len(METRICS)
    rows = {tuple(line.split()[:2]): line for line in lines}
    rss = rows["catalog", "peak_rss_mb"]
    assert "parent 59 [58.99, 59.01]" in rss and "wins 10/10" in rss
    assert "gain +2.2 (parent IQR 0.02)" in rss and rss.endswith("gain met")
    assert rows["catalog", "wall_s"].endswith("unresolved")  # the parent's IQR is 0.6 s of 1 s
    assert rows["oracle_queries", "wall_s"].endswith("worse than bound")
    assert rows["catalog", "setup_s"].endswith("wins 0/10  gain +0 (parent IQR 0)  within bound")
