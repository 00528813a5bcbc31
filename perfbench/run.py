#!/usr/bin/env python3
"""cubicpm benchmark: time the workloads cold, check every result, print metrics.

    python3 perfbench/run.py --workload catalog [--seed 7] [--seconds 15] [--trace 0]

Each pass runs in a fresh interpreter (``bench_pass.py``), one at a time, so
the package's module-level caches start empty.  Passes repeat until
``--seconds`` of passes have run (at least MIN_PASSES).  Every op's result
is compared with the reference recorded for the workload and input seed.

With ``--trace 0`` the end-to-end metrics are printed: medians over the
passes, and for ``setup_s`` over at least SETUP_SAMPLES start-ups.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are printed together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  When a pass cannot
run (no ``src/cubicpm`` beside this directory) or the reference is missing,
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_ops import DIGEST_CHARS, Outcome, judge, tail  # noqa: E402
from bench_spans import LAYERS  # noqa: E402
from bench_workloads import DEFAULT_SEED, WORKLOADS, input_seed  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every run ends within 180 s
TAIL_BEYOND = 10

# Per-layer metric names: one set per layer, one per kernel, and the sweep reuse.
KERNELS = (
    "connectivity.cyclic_edge_connectivity",
    "connectivity.enumerate_cuts",
    "connectivity.cyclic_cuts_up_to",
    "connectivity.is_k_almost_cyclically_4ec",
    "connectivity.build_cut",
    "matchings.count_matchings",
    "matchings.has_matching",
    "matchings.enumerate_matchings",
    "matchings.polytope_membership",
    "decomposition.tight_cuts",
    "families.recognize_twisted_net",
    "families.is_klee",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no checkout, reference or pass)."""


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict:
    path = reference_path(workload)
    if not path.is_file():
        raise BenchError(f"no reference file {path}")
    seeds = json.loads(path.read_text())["seeds"]
    key = str(input_seed(seed))
    if key not in seeds:
        raise BenchError(f"{path} has no reference for input seed {key}")
    return seeds[key]


def run_pass(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """One cold pass in a fresh interpreter; waits for it to end."""
    cmd = [
        sys.executable, str(HERE / "bench_pass.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not end before the deadline: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_outcomes(p: dict) -> list[Outcome]:
    digests, raised = p["outcomes"]["digests"], p["outcomes"]["raised"]
    return [
        Outcome(digests[DIGEST_CHARS * i: DIGEST_CHARS * (i + 1)], raised.get(str(i)))
        for i in range(p["ops"])
    ]


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    return ref


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, deadline, setup_only=True)["setup_s"])
    # Op latencies are printed but are not metrics: across seeds and runs on a
    # 2-vCPU host neither the median op nor the tail repeated within a tenth.
    percentile = tail(passes[0]["latencies"], TAIL_BEYOND)[0]
    p50 = median([median(p["latencies"]) for p in passes]) * 1e3
    p_tail = median([tail(p["latencies"], TAIL_BEYOND)[1] for p in passes]) * 1e3
    notes = [
        f"passes: {len(passes)} cold, {passes[0]['ops']} ops each; "
        f"set-up samples: {len(setups)}",
        f"op latency (informational): median {p50:.4g} ms, p{percentile:.2f} "
        f"{p_tail:.4g} ms ({TAIL_BEYOND} of {passes[0]['ops']} ops beyond it)",
    ]
    return passes, end_to_end_metrics(passes, setups), notes


def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the passes (and set-up samples), as ``{name: (value, unit)}``."""
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
    }


def layered(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(run_pass(workload, seed, deadline))
        traced.append(run_pass(workload, seed, deadline, trace=True))
    untraced = pass_outcomes(plain[0])
    same = all(pass_outcomes(p) == untraced for p in plain + traced)
    notes = [
        f"pairs: {len(traced)} (untraced pass, traced pass); "
        f"traced results {'equal' if same else 'DIFFER FROM'} the untraced ones",
    ]
    return plain + traced, layer_metrics(plain, traced), notes, same


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer and per-kernel calls and self time; medians over traced passes."""
    wall = median([p["wall_s"] for p in traced])
    untraced_wall = median([p["wall_s"] for p in plain])
    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": ((wall - untraced_wall) / untraced_wall, "frac"),
    }
    for layer in LAYERS:
        calls = traced[0]["layers"].get(layer, [0, 0.0])[0]
        self_s = median([p["layers"].get(layer, [0, 0.0])[1] for p in traced])
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "frac")
    for name in KERNELS:
        metrics[f"{name}.calls"] = (traced[0]["spans"].get(name, [0, 0.0])[0], "count")
        metrics[f"{name}.self_s"] = (
            median([p["spans"].get(name, [0, 0.0])[1] for p in traced]), "s"
        )
    metrics["connectivity.sweep_calls"] = (traced[0]["sweep_calls"], "count")
    metrics["connectivity.sweep_distinct_graphs"] = (traced[0]["sweep_distinct_graphs"], "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()

    try:
        reference = load_reference(args.workload, args.seed)
        if args.trace:
            passes, metrics, notes, same = layered(
                args.workload, args.seed, args.seconds, deadline
            )
        else:
            passes, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
            same = True
        verdicts = [judge(pass_outcomes(p), reference) for p in passes]
    except (BenchError, ValueError) as exc:  # ValueError: reference of another length
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    correct = same and all(v.correct for v in verdicts)
    if not args.trace:
        metrics["ops_ok_frac"] = (1 - failed / attempted, "frac")

    first = passes[0]
    print(f"workload {args.workload}, seed {args.seed} (input seed {input_seed(args.seed)})")
    print(
        f"environment: python {first['python']}, numpy {first['numpy']}, "
        f"nproc {len(os.sched_getaffinity(0))}, load average at start "
        f"{load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, commit {commit()}"
    )
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        f"ops: {attempted} attempted over {len(passes)} passes, {failed} failed, "
        f"ops_failed_frac = {failed / attempted:.6f} "
        f"({verdicts[0].failed}/{verdicts[0].attempted} in the first pass); "
        f"{sum(v.raised for v in verdicts)} raised, "
        f"{sum(v.mismatched for v in verdicts)} differ from the reference"
    )
    print(f"correct: {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
