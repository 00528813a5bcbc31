"""``scripts/bench_pairs.py``, and the medians of ``scripts/bench.py``, on small synthetic BENCH files."""

import importlib.util
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


def test_runs_made_without_the_tier1_suite_are_read_and_summarized(tmp_path):
    """``bench.py --tier1 0`` records no ``tier1`` part: ``bench_pairs.py``
    reads such files, and the medians of a part cover the runs that hold it."""
    extra = {"startup": {"wall_s": 0.2}, "catalog_memory": {"held_mb": 14.0}}
    parent = _bench(tmp_path / "parent.json", [{} for _ in range(10)])
    change = _bench(tmp_path / "change.json", [{"catalog": {"peak_rss_mb": 48.0}}] * 10)
    for path, tier1 in ((parent, {"tier1": {"wall_s": 120.0, "passed": 801}}), (change, {})):
        data = json.loads(Path(path).read_text())
        data["runs"] = [{**tier1, **extra, **run} for run in data["runs"]]
        Path(path).write_text(json.dumps(data))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), parent, change],
        capture_output=True, text=True,
    )
    rows = {tuple(line.split()[:2]): line for line in done.stdout.splitlines()}
    assert done.returncode == 0 and len(rows) == len(WORKLOADS) * len(METRICS)
    assert rows["catalog", "peak_rss_mb"].endswith("gain met")

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = [{"tier1": {"wall_s": 120.0}, **extra}, extra, {**extra, "startup": {"wall_s": 0.4}}]
    assert bench.part_medians(runs) == {
        "tier1": {"wall_s": 120.0}, "startup": {"wall_s": 0.2}, "catalog_memory": {"held_mb": 14.0},
    }
