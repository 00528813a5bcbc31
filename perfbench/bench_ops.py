"""Ops, their outcomes, and the accounting against recorded references.

An op is one call into a public cubicpm function.  Its outcome is either a
result, reduced to a short digest of its canonical JSON form, or the name of
the exception it raised.  Failure accounting follows one rule: an op fails
when it raises, or when its digest differs from the reference recorded for
it.  An op that raised in the reference but completes now counts as
completed, so a fix that turns a crash into a result is not a regression.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

DIGEST_CHARS = 8


@dataclass(frozen=True)
class Op:
    """One timed call.  ``canon`` maps the result to plain JSON data.

    ``root_span`` names the span a traced run opens around the call when the
    called function is not itself traced (the verifier's entry points).
    """

    call: Callable[[], Any]
    canon: Callable[[Any], Any]
    root_span: str | None = None


@dataclass(frozen=True)
class Outcome:
    digest: str  # DIGEST_CHARS hex characters
    raised: str | None = None  # exception class name when the op raised


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def run_timed(calls: list[Callable[[], Any]], clock) -> tuple[list, list[float], float]:
    """Make every call once, in order; returns (results, latencies, wall seconds).

    A result is either the call's return value or the exception it raised.
    Canonicalising and hashing happen later, outside the timed region.
    """
    results: list = []
    latencies: list[float] = []
    start = clock()
    for call in calls:
        t = clock()
        try:
            results.append(call())
        except Exception as exc:  # an op boundary: record it and keep going
            results.append(exc)
        latencies.append(clock() - t)
    return results, latencies, clock() - start


def outcomes(ops: list[Op], results: list) -> list[Outcome]:
    out = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            name = type(res).__name__
            out.append(Outcome(digest({"raised": name}), raised=name))
        else:
            out.append(Outcome(digest(op.canon(res))))
    return out


@dataclass(frozen=True)
class Verdict:
    attempted: int
    failed: int  # raised now, or completed with a digest other than the reference
    raised: int
    mismatched: int  # a changed result, or a raise other than the reference's

    @property
    def correct(self) -> bool:
        return self.mismatched == 0


def judge(got: list[Outcome], reference: dict) -> Verdict:
    """Compare outcomes with a reference ``{"digests": str, "raised": {...}}``.

    ``digests`` concatenates one DIGEST_CHARS digest per op, in op order;
    ``raised`` maps the index of each op that raised to the exception name.
    """
    ref = reference["digests"]
    if len(ref) != DIGEST_CHARS * len(got):
        raise ValueError(
            f"reference holds {len(ref) // DIGEST_CHARS} ops, the workload has {len(got)}"
        )
    raised = raised_elsewhere = changed = 0
    for i, o in enumerate(got):
        ref_raise = reference["raised"].get(str(i))
        if o.raised is not None:
            raised += 1
            raised_elsewhere += o.raised != ref_raise
        elif ref_raise is None and ref[DIGEST_CHARS * i: DIGEST_CHARS * (i + 1)] != o.digest:
            changed += 1
    return Verdict(len(got), raised + changed, raised, raised_elsewhere + changed)


def record(got: list[Outcome]) -> dict:
    """The reference form of a list of outcomes (see ``judge``)."""
    return {
        "digests": "".join(o.digest for o in got),
        "raised": {str(i): o.raised for i, o in enumerate(got) if o.raised is not None},
    }


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= ``beyond`` samples above it.

    With k samples sorted ascending, the value at index k - beyond - 1 has
    exactly ``beyond`` samples after it; that index is the percentile
    100 * (k - beyond) / k.
    """
    k = len(latencies)
    if k <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {k}")
    ordered = sorted(latencies)
    return 100.0 * (k - beyond) / k, ordered[k - beyond - 1]
