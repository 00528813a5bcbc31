"""Command-line interface: count, cuts, decompose, generate, verify, report.

Output is deterministic for a fixed (argv, input, seed): no ambient entropy,
no wall-clock content, canonical JSON key order.  Exit codes: 0 for success
or an all-pass sweep, 1 for any lemma Fail, 2 for usage errors, malformed
input and an input or --out file that cannot be read or written.

Only the ``generate``, ``verify`` and ``report`` handlers import the
lemma catalog (``verifier``), so ``count``, ``cuts`` and ``decompose`` never
load it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import families as fam
from .connectivity import bridges, cyclic_edge_connectivity, enumerate_cuts
from .decomposition import brick_count, decompose, elp_bound
from .errors import CubicpmError
from .formats import read_edge_list, read_graph6, write_edge_list
from .matchings import count_matchings

if TYPE_CHECKING:  # the handlers that use the verifier import it when they run
    from .verifier import Instance, LemmaId

# size range of each generated corpus when --n is not given
DEFAULT_N = {"random": (4, 14), "twisted": (4, 26)}


def _read_input(path: str) -> str:
    """The text of the file at ``path``, or of standard input for '-'."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CubicpmError(f"cannot read {path}: {exc}") from None


def _load_graph(args):
    if getattr(args, "name", None):
        return fam.named(args.name), args.name
    if getattr(args, "graph", None):
        text = _read_input(args.graph)
        g = read_graph6(text) if args.g6 else read_edge_list(text)
        return g, "<stdin>" if args.graph == "-" else args.graph
    raise CubicpmError("no graph given: use --graph FILE or --name NAME")


def _emit(args, text: str) -> None:
    """Write ``text`` to the file named by --out, or to standard output."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CubicpmError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_count(args) -> int:
    g, _ = _load_graph(args)
    n = count_matchings(g)
    _emit(args, _json_dumps({"perfect_matchings": n}) if args.json else f"{n}\n")
    return 0


def _cmd_cuts(args) -> int:
    g, _ = _load_graph(args)
    br = sorted(bridges(g))
    cec = cyclic_edge_connectivity(g)
    mins = []
    if not cec.is_unbounded:
        mins = [
            {"side_a": sorted(c.side_a), "crossing": sorted(c.crossing_edges)}
            for c in enumerate_cuts(g, cec.value, cyclic_only=True)
            if c.size == cec.value
        ]
    if args.json:
        _emit(args, _json_dumps(
            {
                "bridges": br,
                "cyclic_edge_connectivity": cec.value,
                "minimum_cyclic_cuts": mins,
            }
        ))
    else:
        lines = [
            f"bridges: {br}",
            f"cyclic_edge_connectivity: {cec.value if not cec.is_unbounded else 'Unbounded'}",
        ]
        lines += [f"cyclic cut: side_a={c['side_a']} crossing={c['crossing']}" for c in mins]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_decompose(args) -> int:
    g, _ = _load_graph(args)
    tree = decompose(g)
    b = brick_count(g)
    if args.json:
        _emit(args, _json_dumps(
            {"tree": tree.to_dict(), "bricks": b, "elp_bound": elp_bound(g)}
        ))
    else:
        leaves = ", ".join(
            f"{leaf.kind}(n={leaf.graph.vertex_count},m={leaf.graph.edge_count})"
            for leaf in tree.leaves()
        )
        _emit(args, f"leaves: [{leaves}]\nb={b}\nelp_bound={elp_bound(g)}\n")
    return 0


def _cmd_generate(args) -> int:
    if args.name:
        _emit(args, write_edge_list(fam.named(args.name)))
        return 0
    if args.random is None:
        raise CubicpmError("generate needs --name NAME or --random COUNT")
    if args.seed is None:
        raise CubicpmError("random generation requires an explicit --seed")
    from .verifier import random_instances

    lo, hi = args.n or DEFAULT_N["random"]
    blocks = [
        write_edge_list(inst.graph)
        for inst in random_instances(args.random, lo, hi, args.seed)
    ]
    _emit(args, "\n".join(blocks))
    return 0


def _parse_lemmas(spec: str) -> list[LemmaId]:
    from .verifier import LemmaId

    if spec.strip().lower() == "all":
        return list(LemmaId)
    out = []
    for tok in spec.split(","):
        tok = tok.strip().upper()
        try:
            out.append(LemmaId(tok))
        except ValueError:
            raise CubicpmError(
                f"unknown lemma id {tok!r}; valid: {', '.join(l.value for l in LemmaId)}"
            ) from None
    return out


def _cmd_verify(args) -> int:
    from .verifier import (
        Instance,
        LemmaFailure,
        encode_reports,
        named_instances,
        random_instances,
        sweep,
        twisted_instances,
    )

    lemmas = _parse_lemmas(args.lemma)
    instances: list[Instance] = []
    if args.name:
        instances += named_instances([args.name])
    if args.graph:
        g, src = _load_graph(argparse.Namespace(name=None, graph=args.graph, g6=args.g6))
        instances.append(Instance(src, g))
    if args.random is not None:
        if args.seed is None:
            raise CubicpmError("random sweeps require an explicit --seed")
        lo, hi = args.n or DEFAULT_N["random"]
        instances += random_instances(args.random, lo, hi, args.seed)
    if args.twisted is not None:
        if args.seed is None:
            raise CubicpmError("family sweeps require an explicit --seed")
        lo, hi = args.n or DEFAULT_N["twisted"]
        instances += twisted_instances(args.twisted, args.seed, lo, hi)
    if not instances:
        raise CubicpmError("verify needs --name, --graph, --random or --twisted instances")
    failed = False
    try:
        reports = sweep(lemmas, instances, fail_fast=True)
    except LemmaFailure as exc:
        sys.stderr.write(str(exc) + "\n")
        reports = [exc.report]
        failed = True
    if args.json:
        _emit(args, encode_reports(reports) + "\n")
    else:
        lines = []
        for r in reports:
            detail = f" measured={r.measured} bound={r.bound} ({r.direction})" if r.bound else ""
            why = f" [{r.reason}]" if r.reason else ""
            lines.append(f"{r.lemma.value:18s} {r.instance:40s} {r.verdict:7s}{detail}{why}")
        _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    from .verifier import tally_csv

    text = _read_input(args.graph or "-")
    try:
        csv = tally_csv((r["lemma"], r["verdict"]) for r in json.loads(text))
    except (ValueError, TypeError, KeyError) as exc:  # not a list of report objects
        raise CubicpmError(f"malformed report: {exc!r}") from None
    _emit(args, csv)
    return 0


def _range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return int(lo), int(hi)
    v = int(spec)
    return v, v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicpm",
        description="Exact checks for perfect-matching lemmas on cubic bridgeless multigraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", help="edge-list file ('-' for stdin)")
            p.add_argument("--name", choices=fam.NAMED, help="catalog graph")
            p.add_argument("--g6", action="store_true", help="read --graph as graph6")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--out", help="write output to FILE instead of stdout")

    common(sub.add_parser("count", help="count perfect matchings"))
    common(sub.add_parser("cuts", help="bridges and cyclic edge-connectivity"))
    common(sub.add_parser("decompose", help="tight-cut decomposition and b(G)"))

    g = sub.add_parser("generate", help="emit graphs in edge-list format")
    common(g)
    g.add_argument("--random", type=int, help="number of random cubic bridgeless samples")
    g.add_argument("--n", type=_range, help="size range LO..HI (default 4..14)")
    g.add_argument("--seed", type=int, help="seed (mandatory for random output)")

    v = sub.add_parser("verify", help="run lemma checks over a corpus")
    common(v)
    v.add_argument("--lemma", required=True, help="comma-separated LemmaIds or 'all'")
    v.add_argument("--random", type=int, help="random corpus size")
    v.add_argument("--twisted", type=int, help="twisted-net corpus size")
    v.add_argument(
        "--n", type=_range, help="size range LO..HI (default: random 4..14, twisted 4..26)"
    )
    v.add_argument("--seed", type=int, help="seed (mandatory for generated corpora)")

    r = sub.add_parser("report", help="summarize a JSON report as CSV")
    common(r, graph=False)
    r.add_argument("--graph", help="JSON report file ('-' for stdin)")

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "cuts": _cmd_cuts,
        "decompose": _cmd_decompose,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except CubicpmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
