#!/usr/bin/env python3
"""Run the full lemma catalog over a reproducible corpus and write reports.

Writes, under --out:
  reports.json   every LemmaReport
  summary.csv    per-lemma pass/fail/skip tallies
  graphs/*.el    every corpus graph in edge-list format

Everything is seeded; rerunning with the same arguments reproduces the same
bytes.  Exit code 1 if any lemma failed (the run still writes all reports).

Usage:
    python scripts/run_sweeps.py --out runs/demo --seed 7 [--random 40]
        [--twisted 60]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from cubicpm import write_edge_list
from cubicpm.verifier import (
    Instance,
    LemmaId,
    encode_reports,
    named_instances,
    random_instances,
    summarize_csv,
    sweep,
    twisted_instances,
)


def build_corpus(args) -> list[Instance]:
    corpus = named_instances()
    corpus += random_instances(args.random, 4, 14, seed=args.seed)
    corpus += twisted_instances(args.twisted, seed=args.seed + 1, n_lo=4, n_hi=26)
    return corpus


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--random", type=int, default=40, help="random corpus size")
    ap.add_argument("--twisted", type=int, default=60, help="twisted corpus size")
    args = ap.parse_args()

    out = Path(args.out)
    (out / "graphs").mkdir(parents=True, exist_ok=True)

    corpus = build_corpus(args)
    for inst in corpus:
        safe = inst.name.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
        (out / "graphs" / f"{safe}.el").write_text(write_edge_list(inst.graph))

    reports = sweep(list(LemmaId), corpus, fail_fast=False)

    (out / "reports.json").write_text(encode_reports(reports) + "\n")
    (out / "summary.csv").write_text(summarize_csv(reports))

    fails = [r for r in reports if r.verdict == "Fail"]
    print(summarize_csv(reports))
    if fails:
        print(f"{len(fails)} failing reports, e.g.:", file=sys.stderr)
        for r in fails[:5]:
            print(f"  {r.lemma.value} on {r.instance} params={r.params}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
