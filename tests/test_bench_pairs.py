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
    assert done.returncode == 0 and len(rows) == len(WORKLOADS) * len(METRICS) + 2
    assert rows["catalog", "peak_rss_mb"].endswith("gain met")
    assert rows["startup", "wall_s"].endswith("wins 0/10  informational")
    assert rows["catalog", "held_mb"].endswith("wins 0/10  informational")

    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = [{"tier1": {"wall_s": 120.0}, **extra}, extra, {**extra, "startup": {"wall_s": 0.4}}]
    assert bench.part_medians(runs) == {
        "tier1": {"wall_s": 120.0}, "startup": {"wall_s": 0.2}, "catalog_memory": {"held_mb": 14.0},
    }


def _with_startup(path, samples):
    """Give run i of the BENCH file at ``path`` the start-up median ``samples[i]``."""
    data = json.loads(Path(path).read_text())
    for run, wall in zip(data["runs"], samples):
        if wall is not None:
            run["startup"] = {"wall_s": wall, "samples_s": [wall] * 3}
    Path(path).write_text(json.dumps(data))
    return path


def _pairs(parent, change):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), parent, change],
        capture_output=True, text=True,
    )
    return done.returncode, done.stdout.splitlines()


def test_the_start_up_row_is_informational(tmp_path):
    """``startup.wall_s`` gets one row, with each side's median and quartiles
    and the pairs won, but no verdict, and a slower start-up sets no exit code."""
    jitter = [0.0, 0.01, -0.01, 0.02, -0.02, 0.0, 0.01, -0.01, 0.02, -0.02]
    parent = _with_startup(
        _bench(tmp_path / "parent.json", [{}] * 10), [0.2 + j for j in jitter]
    )
    change = _with_startup(
        _bench(tmp_path / "change.json", [{}] * 10), [0.17 + j for j in jitter]
    )
    code, lines = _pairs(parent, change)
    assert code == 0 and len(lines) == len(WORKLOADS) * len(METRICS) + 1
    assert lines[-1].split() == [
        "startup", "wall_s", "parent", "0.2", "[0.19,", "0.21]",
        "change", "0.17", "[0.16,", "0.18]", "wins", "10/10", "informational",
    ]

    slower = _with_startup(_bench(tmp_path / "slower.json", [{}] * 10), [2.0] * 10)
    code, lines = _pairs(parent, slower)
    assert code == 0 and lines[-1].endswith("wins 0/10  informational")

    gap = _with_startup(_bench(tmp_path / "gap.json", [{}] * 10), [0.17] * 9 + [None])
    code, lines = _pairs(parent, gap)
    assert code == 0 and len(lines) == len(WORKLOADS) * len(METRICS)
    assert not any(line.startswith("startup") for line in lines)


def _with_trace(path, traces):
    """Give run i of the BENCH file at ``path`` the catalog trace ``traces[i]``."""
    data = json.loads(Path(path).read_text())
    for run, trace in zip(data["runs"], traces):
        if trace is not None:
            run["catalog_trace"] = trace
    Path(path).write_text(json.dumps(data))
    return path


def test_each_traced_counter_gets_an_informational_row(tmp_path):
    """The sweep calls and the ``*.calls`` counters that every run of both
    files holds get a row with each side's median and whether the count was
    equal in every run; times, flags and counters some run lacks get none,
    and no counter sets the exit code."""
    trace = {
        "connectivity.sweep_calls": 330, "connectivity.build_cut.calls": 30,
        "multigraph.calls": 10456, "connectivity.self_s": 0.07, "correct": True,
    }
    parent = _with_trace(_bench(tmp_path / "parent.json", [{}] * 10), [trace] * 10)
    more = [{**trace, "multigraph.calls": 10000 + 100 * i} for i in range(10)]
    change = _with_trace(_bench(tmp_path / "change.json", [{}] * 10), more)
    code, lines = _pairs(parent, change)
    counters = [line.split() for line in lines if "in every run" in line]
    assert code == 0 and [row[:2] for row in counters] == [
        ["catalog", "connectivity.build_cut.calls"],
        ["catalog", "connectivity.sweep_calls"],
        ["catalog", "multigraph.calls"],
    ]
    assert " ".join(counters[1][2:]) == "parent 330 change 330 equal in every run informational"
    assert " ".join(counters[2][2:]) == (
        "parent 10456 change 10450 not equal in every run informational"
    )

    gap = [trace] * 9 + [{k: v for k, v in trace.items() if k != "connectivity.sweep_calls"}]
    code, lines = _pairs(parent, _with_trace(_bench(tmp_path / "gap.json", [{}] * 10), gap))
    assert code == 0 and not any("sweep_calls" in line for line in lines)
    assert sum("in every run" in line for line in lines) == 2
    code, lines = _pairs(parent, _with_trace(_bench(tmp_path / "none.json", [{}] * 10), [None] * 10))
    assert code == 0 and len(lines) == len(WORKLOADS) * len(METRICS)


def _with_calibration(path, walls, speeds):
    """Give run i of the BENCH file at ``path`` the catalog ``wall_s``
    ``walls[i]`` and the calibration seconds 0.2 / ``speeds[i]`` before and
    after, or no calibration where ``speeds[i]`` is None."""
    data = json.loads(Path(path).read_text())
    for run, wall, speed in zip(data["runs"], walls, speeds):
        run["catalog"]["wall_s"] = wall
        if speed is not None:
            run["calibration"] = {"before_s": 0.2 / speed, "after_s": 0.2 / speed}
    Path(path).write_text(json.dumps(data))
    return path


def test_the_calibrated_wall_time_row_is_informational(tmp_path):
    """With a calibration in every run, each workload gets a ``wall_s/cal``
    row: ``wall_s`` over the mean calibration time, each side's median and
    quartiles and the pairs won, no verdict, and no exit code.  A host whose
    speed drifts widens the raw spread but not this one."""
    speeds = [1.0, 0.8, 1.25, 0.8, 1.25, 1.0, 0.8, 1.25, 0.8, 1.25]
    parent = _with_calibration(
        _bench(tmp_path / "parent.json", [{}] * 10), [1.0 / s for s in speeds], speeds
    )
    change = _with_calibration(
        _bench(tmp_path / "change.json", [{}] * 10), [0.9 / s for s in speeds], speeds
    )
    code, lines = _pairs(parent, change)
    assert code == 0 and len(lines) == len(WORKLOADS) * (len(METRICS) + 1)
    rows = {tuple(line.split()[:2]): line for line in lines}
    assert rows["catalog", "wall_s"].endswith("unresolved")  # the raw IQR is 45% of 1 s
    assert rows["catalog", "wall_s/cal"].split()[2:] == [
        "parent", "5", "[5,", "5]", "change", "4.5", "[4.5,", "4.5]",
        "wins", "10/10", "informational",
    ]
    assert rows["oracle_queries", "wall_s/cal"].endswith("wins 0/10  informational")

    slower = _with_calibration(
        _bench(tmp_path / "slower.json", [{}] * 10), [9.0 / s for s in speeds], speeds
    )
    code, lines = _pairs(parent, slower)
    rows = {tuple(line.split()[:2]): line for line in lines}
    assert rows["catalog", "wall_s"].endswith("unresolved") and code == 0
    assert "parent 5 [5, 5]  change 45 [45, 45]  wins 0/10  informational" in rows[
        "catalog", "wall_s/cal"
    ]

    gap = _with_calibration(
        _bench(tmp_path / "gap.json", [{}] * 10), [1.0] * 10, [1.0] * 9 + [None]
    )
    code, lines = _pairs(parent, gap)
    assert code == 0 and not any("wall_s/cal" in line for line in lines)


def _with_parts(path, parts):
    """Give run i of the BENCH file at ``path`` the entries ``parts[i]``
    (part name to its dict)."""
    data = json.loads(Path(path).read_text())
    for run, part in zip(data["runs"], parts):
        run.update(part)
    Path(path).write_text(json.dumps(data))
    return path


def test_memory_and_self_time_entries_get_informational_rows(tmp_path):
    """Each ``<workload>_memory`` entry and each ``*.self_s`` entry of
    ``<workload>_trace`` that every run of both files holds gets a row with
    each side's median and quartiles and the pairs the change wins (lower),
    no verdict and no exit code; an entry some run lacks gets none."""
    jitter = [0.0, 0.01, -0.01, 0.02, -0.02, 0.0, 0.01, -0.01, 0.02, -0.02]

    def parts(graphs, self_s):
        return [{
            "catalog_memory": {"held_mb": 14.0 + j, "graphs_mb": graphs + j},
            "catalog_trace": {"matchings.self_s": self_s + j, "multigraph.calls": 10456},
        } for j in jitter]

    parent = _with_parts(_bench(tmp_path / "parent.json", [{}] * 10), parts(3.7, 0.05))
    change = _with_parts(_bench(tmp_path / "change.json", [{}] * 10), parts(3.2, 0.5))
    code, lines = _pairs(parent, change)
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines}
    assert code == 0 and len(lines) == len(WORKLOADS) * len(METRICS) + 4
    assert rows["catalog", "graphs_mb"] == [
        "parent", "3.7", "[3.69,", "3.71]", "change", "3.2", "[3.19,", "3.21]",
        "wins", "10/10", "informational",
    ]
    assert rows["catalog", "held_mb"][-3:] == ["wins", "0/10", "informational"]
    assert rows["catalog", "matchings.self_s"] == [
        "parent", "0.05", "[0.04,", "0.06]", "change", "0.5", "[0.49,", "0.51]",
        "wins", "0/10", "informational",
    ]
    assert " ".join(rows["catalog", "multigraph.calls"]) == (
        "parent 10456 change 10456 equal in every run informational"
    )

    gap = parts(3.2, 0.5)
    del gap[3]["catalog_memory"]["graphs_mb"], gap[5]["catalog_trace"]["matchings.self_s"]
    code, lines = _pairs(parent, _with_parts(_bench(tmp_path / "gap.json", [{}] * 10), gap))
    assert code == 0 and [line.split()[1] for line in lines[len(WORKLOADS) * len(METRICS):]] == [
        "held_mb", "multigraph.calls",
    ]
