#!/usr/bin/env python3
"""Compare two BENCH_<label>.json files run by run, against BENCHMARK.json's bounds.

    python scripts/bench_pairs.py BENCH_x-parent.json BENCH_x-change.json

The files hold alternating runs of ``scripts/bench.py --append``, so run i
of one and run i of the other form a pair.  For each workload and
end-to-end metric that ``BENCHMARK.json`` declares, one row gives each
side's median and quartiles, the pairs in which the change is better, and
the median gain against the parent's interquartile range (IQR).  A gain is
the parent's median minus the change's for a metric where lower is better,
the other way round where higher is.

Each row ends with a verdict, the first that applies:

- ``gain met``: better in at least 9 of 10 pairs, with a gain above the
  parent's IQR;
- ``unresolved``: the parent's IQR is wider than the bound, a fraction of
  its median, so the runs cannot tell a change within the bound, unless
  every run of the change is better than every run of the parent;
- ``worse than bound``: the change's median is worse than the parent's by
  more than the bound;
- ``within bound``: otherwise.

When every run of both files holds the start-up of ``scripts/bench.py``
(``cubicpm count --name petersen`` from a fresh interpreter), one more row
gives its ``startup.wall_s``: each side's median and quartiles and the pairs
in which the change is faster, marked ``informational``.  It has no bound in
``BENCHMARK.json``, so it gives no verdict and does not set the exit code.

When every run of both files holds a ``calibration`` (the seconds of a fixed
pure-Python loop that ``scripts/bench.py`` times just before and just after
its workload passes), each workload gets one more ``informational`` row,
``wall_s/cal``: each run's ``wall_s`` divided by the mean of its two
calibration times, with each side's median and quartiles and the pairs in
which the change is lower.  It shows whether the host's drift explains a
spread; it gives no verdict and does not set the exit code.

Each entry of ``<workload>_memory`` (``held_mb`` and ``graphs_mb``, the
MB that ``scripts/bench.py`` measures under ``tracemalloc``) and each
``*.self_s`` entry of ``<workload>_trace`` (a layer's or a kernel's self
time in the traced pass) then gets one ``informational`` row, where every
run of both files holds it: each side's median and quartiles and the pairs
in which the change is lower.  They show where a change's memory or time
went; they give no verdict and do not set the exit code.

Each traced counter then gets one ``informational`` row, under the same
rule: the sweep calls (``connectivity.sweep_calls``) and every ``*.calls``
entry of ``<workload>_trace``, where every run of both files holds it.  The
row gives each side's median and says whether the count was equal in every
run of both files, so a change that claims to leave the work alone shows it.

Exits 1 when some row is worse than its bound, and 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORSE = "worse than bound"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def sides(parent: list[float], change: list[float], lower_better: bool) -> dict:
    """Each side's median and quartiles, and the pairs in which the change is better."""
    sign = 1 if lower_better else -1
    pairs = list(zip(parent, change))
    return {
        "parent": (median(parent), *quartiles(parent)),
        "change": (median(change), *quartiles(change)),
        "wins": sum(sign * (p - c) > 0 for p, c in pairs),
        "pairs": len(pairs),
    }


def compare(parent: list[float], change: list[float], lower_better: bool, bound: float) -> dict:
    """The row of one metric, from its values in the parent's and the change's runs."""
    row = sides(parent, change, lower_better)
    (mid, q1, q3), wins, pairs = row["parent"], row["wins"], row["pairs"]
    gain = (1 if lower_better else -1) * (mid - row["change"][0])
    iqr = q3 - q1
    apart = max(change) < min(parent) if lower_better else min(change) > max(parent)
    if pairs and 10 * wins >= 9 * pairs and gain > iqr:
        verdict = "gain met"
    elif iqr > bound * abs(mid) and not apart:
        verdict = "unresolved"
    elif -gain > bound * abs(mid):
        verdict = WORSE
    else:
        verdict = "within bound"
    return {**row, "gain": gain, "iqr": iqr, "verdict": verdict}


def rows(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, str, dict]]:
    """One (workload, metric, row) per workload and end-to-end metric of ``benchmark``."""
    out = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [[run[workload][name] for run in side["runs"]] for side in (parent, change)]
            row = compare(*values, metric["better"] == "lower", metric["bound"])
            out.append((workload, name, row))
    return out


def startup_row(parent: dict, change: dict) -> dict | None:
    """The ``sides`` of ``startup.wall_s``, or None unless every run holds it."""
    runs = parent["runs"] + change["runs"]
    if not runs or any("startup" not in run for run in runs):
        return None
    values = [[run["startup"]["wall_s"] for run in side["runs"]] for side in (parent, change)]
    return sides(*values, lower_better=True)


def calibrated_rows(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, dict]]:
    """One (workload, ``sides``) of ``wall_s`` over the mean calibration time
    per workload, or none unless every run holds a calibration."""
    runs = parent["runs"] + change["runs"]
    if not runs or any("calibration" not in run for run in runs):
        return []

    def ratio(run: dict, workload: str) -> float:
        cal = run["calibration"]
        return run[workload]["wall_s"] / ((cal["before_s"] + cal["after_s"]) / 2)

    return [
        (workload, sides(*(
            [ratio(run, workload) for run in side["runs"]] for side in (parent, change)
        ), lower_better=True))
        for workload in (w["name"] for w in benchmark["workloads"])
    ]


def held(runs: list[dict], part: str) -> list[str]:
    """The entries of ``part`` that every run holds, sorted; none unless every run holds it."""
    if not runs or any(part not in run for run in runs):
        return []
    return sorted(set.intersection(*(set(run[part]) for run in runs)))


def measured_rows(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, str, dict]]:
    """One (workload, entry, ``sides``) per ``<workload>_memory`` entry and
    ``*.self_s`` entry of ``<workload>_trace`` that every run of both files holds."""
    runs = parent["runs"] + change["runs"]
    out = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        memory, trace = f"{workload}_memory", f"{workload}_trace"
        for part, names in (
            (memory, held(runs, memory)),
            (trace, [n for n in held(runs, trace) if n.endswith(".self_s")]),
        ):
            for name in names:
                values = [[run[part][name] for run in side["runs"]] for side in (parent, change)]
                out.append((workload, name, sides(*values, lower_better=True)))
    return out


def counter_rows(parent: dict, change: dict, benchmark: dict) -> list[tuple[str, str, dict]]:
    """One (workload, counter, row) per traced counter that every run of both files holds.

    A row holds each side's median and whether every run of both files
    counted the same.
    """
    runs = parent["runs"] + change["runs"]
    out = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        key = f"{workload}_trace"
        for name in held(runs, key):
            if name != "connectivity.sweep_calls" and not name.endswith(".calls"):
                continue
            values = [[run[key][name] for run in side["runs"]] for side in (parent, change)]
            out.append((workload, name, {
                "parent": median(values[0]),
                "change": median(values[1]),
                "equal": len(set(values[0] + values[1])) == 1,
            }))
    return out


def render_counter(workload: str, counter: str, row: dict) -> str:
    same = "equal in every run" if row["equal"] else "not equal in every run"
    return (
        f"{workload:<15} {counter}  parent {row['parent']:g}  change {row['change']:g}  "
        f"{same}  informational"
    )


def render(workload: str, metric: str, row: dict) -> str:
    def side(label: str) -> str:
        mid, q1, q3 = row[label]
        return f"{label} {mid:.4g} [{q1:.4g}, {q3:.4g}]"

    judged = (
        f"  gain {row['gain']:+.4g} (parent IQR {row['iqr']:.4g})  {row['verdict']}"
        if "verdict" in row else "  informational"
    )
    return (
        f"{workload:<15} {metric:<12} {side('parent')}  {side('change')}  "
        f"wins {row['wins']}/{row['pairs']}{judged}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {Path(__file__).name} PARENT.json CHANGE.json\n")
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads(BENCHMARK.read_text())
    table = rows(parent, change, benchmark)
    for workload, metric, row in table:
        print(render(workload, metric, row))
    startup = startup_row(parent, change)
    if startup is not None:
        print(render("startup", "wall_s", startup))
    for workload, row in calibrated_rows(parent, change, benchmark):
        print(render(workload, "wall_s/cal", row))
    for workload, name, row in measured_rows(parent, change, benchmark):
        print(render(workload, name, row))
    for workload, counter, row in counter_rows(parent, change, benchmark):
        print(render_counter(workload, counter, row))
    return int(any(row["verdict"] == WORSE for _, _, row in table))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
