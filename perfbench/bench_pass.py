"""One cold pass of a workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` (one pass at a time), never imported by it, so every
pass pays the import, graph generation and the package's module-level caches
afresh.  ``--spawned-at`` is the parent's ``time.monotonic()`` just before
the start, which makes ``setup_s`` cover interpreter start-up as well.

    python3 perfbench/bench_pass.py --workload catalog --seed 7 \
        --spawned-at 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cubicpm():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cubicpm" / "__init__.py").is_file():
        raise SystemExit(f"no cubicpm sources under {src}")
    sys.path.insert(0, str(src))
    import cubicpm

    if Path(cubicpm.__file__).resolve().parent != src / "cubicpm":
        raise SystemExit(f"imported cubicpm from {cubicpm.__file__}, not from {src}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_cubicpm()
    import numpy

    from bench_ops import outcomes, record, run_timed
    from bench_spans import Tracer
    from bench_workloads import build

    ops = build(args.workload, args.seed)
    out = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ops": len(ops),
    }
    calls = [op.call for op in ops]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        calls = [
            op.call if op.root_span is None else tracer.wrap(op.root_span, op.call)
            for op in ops
        ]
    out["setup_s"] = time.monotonic() - args.spawned_at
    if not args.setup_only:
        results, latencies, wall = run_timed(calls, time.perf_counter)
        out["wall_s"] = wall
        out["latencies"] = latencies
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["outcomes"] = record(outcomes(ops, results))
        if tracer is not None:
            out["spans"] = tracer.stats
            out["layers"] = tracer.layer_totals()
            out["sweep_calls"] = tracer.sweep_calls
            out["sweep_distinct_graphs"] = len(tracer.sweep_graphs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
