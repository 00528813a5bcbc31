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


def compare(parent: list[float], change: list[float], lower_better: bool, bound: float) -> dict:
    """The row of one metric, from its values in the parent's and the change's runs."""
    sign = 1 if lower_better else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    mid = median(parent)
    gain = sign * (mid - median(change))
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    apart = max(change) < min(parent) if lower_better else min(change) > max(parent)
    if pairs and 10 * wins >= 9 * len(pairs) and gain > iqr:
        verdict = "gain met"
    elif iqr > bound * abs(mid) and not apart:
        verdict = "unresolved"
    elif -gain > bound * abs(mid):
        verdict = WORSE
    else:
        verdict = "within bound"
    return {
        "parent": (mid, q1, q3), "change": (median(change), *quartiles(change)),
        "wins": wins, "pairs": len(pairs), "gain": gain, "iqr": iqr, "verdict": verdict,
    }


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


def render(workload: str, metric: str, row: dict) -> str:
    def side(label: str) -> str:
        mid, q1, q3 = row[label]
        return f"{label} {mid:.4g} [{q1:.4g}, {q3:.4g}]"

    return (
        f"{workload:<15} {metric:<12} {side('parent')}  {side('change')}  "
        f"wins {row['wins']}/{row['pairs']}  gain {row['gain']:+.4g} (parent IQR {row['iqr']:.4g})"
        f"  {row['verdict']}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: {Path(__file__).name} PARENT.json CHANGE.json\n")
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    table = rows(parent, change, json.loads(BENCHMARK.read_text()))
    for workload, metric, row in table:
        print(render(workload, metric, row))
    return int(any(row["verdict"] == WORSE for _, _, row in table))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
