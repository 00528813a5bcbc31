#!/usr/bin/env python3
"""Record the reference outputs of a workload for every input seed.

    python3 perfbench/record.py --workload catalog [--workload ...]

Runs one cold pass per input seed and writes ``reference/<workload>.json``:
per seed, the concatenated op digests and the ops that raised.  Record only
at a commit whose outputs are to be trusted; ``run.py`` judges every later
run against these files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import commit, reference_path, run_pass
from bench_workloads import INPUT_SEEDS, WORKLOADS

PASS_TIMEOUT_S = 600


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True, choices=WORKLOADS)
    args = ap.parse_args()
    for workload in args.workload:
        seeds = {}
        for seed in range(INPUT_SEEDS):
            p = run_pass(workload, seed, time.monotonic() + PASS_TIMEOUT_S)
            seeds[str(seed)] = p["outcomes"]
            print(f"{workload} seed {seed}: {p['ops']} ops, "
                  f"{len(p['outcomes']['raised'])} raised, {p['wall_s']:.1f} s", flush=True)
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"workload": workload, "commit": commit(), "seeds": seeds},
            indent=1, sort_keys=True,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
