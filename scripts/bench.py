#!/usr/bin/env python3
"""Measure one checkout end to end and write BENCH_<label>.json.

Runs the tier-1 suite once, ``perfbench/run.py`` once per workload and
``cubicpm count --name petersen`` STARTUPS times from a fresh interpreter,
all in the checkout given by ``--root`` (by default the one holding this
script), and writes the results with the medians, the environment and the
commit.  The start-ups time the package import, which ``perfbench`` cannot
show because its passes import numpy themselves.

    python scripts/bench.py --label change [--root DIR] [--seed 7] [--append]
        [--tier1 0|1]

With ``--tier1 0`` the run skips the tier-1 suite, which takes most of a
run's time and repeats its counts from run to run, and records no ``tier1``
entry; the medians of each part are taken over the runs that hold it.

The file is written beside this script's checkout, whichever ``--root`` is
measured, so one checkout can collect the files of others.

With ``--append`` the new run joins the runs already in the file, which must
name the same commit, and the medians are taken over all of them.  Running
``--append`` for two checkouts in turn gives alternating before/after pairs,
one file per checkout.

Each run also makes one traced pass per workload (``perfbench/run.py
--trace 1``) and keeps its sweep, k-almost, ``build_cut`` and ``tight_cuts``
call counts, the k-almost search's self time, the calls into ``multigraph``
and the self time of each layer, so the trace evidence lands with the pair.

Each run times ``CALIBRATION``, one fixed pure-Python loop in a fresh
interpreter, just before and just after its timed workload passes, and keeps
both seconds as ``calibration``.  A host whose speed drifts slows the loop
with the passes, so ``scripts/bench_pairs.py`` can show ``wall_s`` divided
by it beside the raw metric.

Each run also makes one pass per workload in-process, in a fresh
interpreter under ``tracemalloc``, and keeps the MB still allocated after the
pass (``held_mb``, results included) and once its results are dropped
(``graphs_mb``: the graphs the ops hold and their memos), as
``<workload>_memory``, so a memory claim lands with the layer it comes from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
WORKLOADS = ("catalog", "oracle_queries")
STARTUP = ["-m", "cubicpm.cli", "count", "--name", "petersen"]
STARTUPS = 3  # per run, so ten runs give each checkout thirty start-ups
LAYERS = ("connectivity", "matchings", "decomposition", "families", "multigraph", "verifier")
TRACED = (
    "connectivity.sweep_calls",
    "connectivity.is_k_almost_cyclically_4ec.calls",
    "connectivity.is_k_almost_cyclically_4ec.self_s",
    "connectivity.build_cut.calls",
    "decomposition.tight_cuts.calls",
    "multigraph.calls",
    *(f"{layer}.self_s" for layer in LAYERS),
)


# One in-process pass of workload argv[2] at seed argv[3]: the ops of
# ``perfbench`` built from the package in argv[1]/src and made in order as
# ``perfbench`` makes them (an op that raises keeps its exception),
# allocations traced from just before the ops are built.
MEMORY_PASS = """
import gc, json, sys, time, tracemalloc
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import cubicpm.verifier
from bench_ops import run_timed
from bench_workloads import build
tracemalloc.start()
ops = build(sys.argv[2], int(sys.argv[3]))
results = run_timed([op.call for op in ops], time.perf_counter)[0]
held = tracemalloc.get_traced_memory()[0]
del results
gc.collect()
graphs = tracemalloc.get_traced_memory()[0]
print(json.dumps({"held_mb": held / 2**20, "graphs_mb": graphs / 2**20}))
"""


# The calibration loop: integer arithmetic and small-dict updates, the kind of
# work the matching DP and the cut sweeps do, timed inside the interpreter so
# start-up is left out.  It prints its seconds.
CALIBRATION = """
import time
start = time.perf_counter()
table = {}
for i in range(1_000_000):
    key = (i * 7919) & 4095
    table[key] = table.get(key, 0) + (i | key)
print(time.perf_counter() - start)
"""


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def source_env(root: Path) -> dict:
    """The environment with ``root/src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )}


def tier1(root: Path) -> dict:
    """Wall time and outcome tallies of one tier-1 run."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *TIER1], cwd=root, env=source_env(root), capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    found = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", tail)}
    return {"wall_s": wall, "exit_code": done.returncode, **found}


def perfbench(root: Path, workload: str, seed: int, *extra: str) -> dict:
    """The result object that ``perfbench/run.py`` prints last, metrics flattened."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *extra],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"perfbench {workload} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result.pop("metrics").items()}
    return {**result, **metrics}


def traced(root: Path, workload: str, seed: int) -> dict:
    """One traced pass of ``perfbench/run.py --trace 1``: its verdict and the TRACED metrics."""
    result = perfbench(root, workload, seed, "--trace", "1", "--seconds", "0")
    return {key: result[key] for key in ("correct", "failed", *TRACED)}


def workload_memory(root: Path, workload: str, seed: int) -> dict:
    """The tracemalloc MB of one in-process pass of the workload (``MEMORY_PASS``)."""
    done = subprocess.run(
        [sys.executable, "-c", MEMORY_PASS, str(root), workload, str(seed)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"{workload} memory pass failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def startup(root: Path) -> dict:
    """Wall times of STARTUPS runs of ``cubicpm count --name petersen``, and their median."""
    samples = []
    for _ in range(STARTUPS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *STARTUP], cwd=root, env=source_env(root), capture_output=True,
            check=True,
        )
        samples.append(time.perf_counter() - start)
    return {"wall_s": median(samples), "samples_s": samples}


def calibration() -> float:
    """Seconds of one ``CALIBRATION`` loop in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", CALIBRATION], capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def environment() -> dict:
    """The host, and whether bytecode caching is off: then every pass compiles the package."""
    out = {
        "python": platform.python_version(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    try:  # perfbench imports numpy itself; the package does not need it
        import numpy
    except ImportError:
        return out
    return {**out, "numpy": numpy.__version__}


def medians(runs: list[dict]) -> dict:
    """Median of every numeric field over the runs."""
    numeric = [k for k, v in runs[0].items() if type(v) in (int, float)]
    return {k: median(run[k] for run in runs) for k in numeric}


def part_medians(runs: list[dict]) -> dict:
    """``medians`` of each part over the runs that hold it (a run made with
    ``--tier1 0`` holds no ``tier1``)."""
    parts = dict.fromkeys(part for run in runs for part in run)
    return {part: medians([run[part] for run in runs if part in run]) for part in parts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ap.add_argument("--root", type=Path, default=HERE.parent, help="checkout to measure")
    ap.add_argument("--seed", type=int, default=7, help="perfbench seed")
    ap.add_argument("--append", action="store_true", help="add to the runs in the file")
    ap.add_argument(
        "--tier1", type=int, choices=(0, 1), default=1,
        help="1 (the default) runs the tier-1 suite in this run; 0 skips it",
    )
    args = ap.parse_args()

    root = args.root.resolve()
    path = HERE.parent / f"BENCH_{args.label}.json"
    commit = git(root, "rev-parse", "HEAD")
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    old = json.loads(path.read_text()) if args.append and path.is_file() else None
    if old and (old["commit"], old["dirty"], old["seed"]) != (commit, dirty, args.seed):
        raise SystemExit(f"{path} holds another commit or seed; drop --append")

    run = {"tier1": tier1(root)} if args.tier1 else {}
    run["startup"] = startup(root)
    before = calibration()
    for workload in WORKLOADS:
        run[workload] = perfbench(root, workload, args.seed)
    run["calibration"] = {"before_s": before, "after_s": calibration()}
    for workload in WORKLOADS:
        run[f"{workload}_trace"] = traced(root, workload, args.seed)
    for workload in WORKLOADS:
        run[f"{workload}_memory"] = workload_memory(root, workload, args.seed)
    runs = (old["runs"] if old else []) + [run]
    out = {
        "label": args.label,
        "commit": commit,
        "dirty": dirty,
        "seed": args.seed,
        "environment": environment(),
        "median": part_medians(runs),
        "runs": runs,
    }
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(json.dumps(out["median"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
