"""Tests of the benchmark's own code: span accounting and failure accounting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import cubicpm
from bench_ops import Op, judge, outcomes, record, run_timed, tail
from bench_spans import Tracer
from cubicpm import matchings, verifier
from cubicpm.errors import TooLarge
from run import end_to_end_metrics, layer_metrics


def test_self_time_excludes_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def inner():
        now[0] += 1.0
        traced_leaf()
        traced_leaf()

    def outer():
        now[0] += 0.5
        traced_inner()
        now[0] += 0.25

    traced_leaf = tracer.wrap("matchings.leaf", leaf)
    traced_inner = tracer.wrap("connectivity.inner", inner)
    tracer.wrap("verifier.outer", outer)()

    assert tracer.stats == {
        "matchings.leaf": [2, 4.0],
        "connectivity.inner": [1, 1.0],
        "verifier.outer": [1, 0.75],
    }
    totals = tracer.layer_totals()
    assert totals["matchings"] == [2, 4.0]
    assert totals["verifier"] == [1, 0.75]
    assert totals["decomposition"] == [0, 0.0]


def test_self_time_survives_an_exception():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 1.0
        raise TooLarge("over the cap")

    def caller():
        now[0] += 3.0
        try:
            traced_failing()
        except TooLarge:
            pass

    traced_failing = tracer.wrap("connectivity.failing", failing)
    tracer.wrap("verifier.caller", caller)()
    assert tracer.stats["connectivity.failing"] == [1, 1.0]
    assert tracer.stats["verifier.caller"] == [1, 3.0]


def _ops(results):
    """Ops that return (or raise) the given values, with identity canon."""

    def call(value):
        if isinstance(value, Exception):
            raise value
        return value

    return [Op(lambda v=v: call(v), lambda r: r) for v in results]


def _outcomes(values):
    ops = _ops(values)
    results, latencies, _ = run_timed([op.call for op in ops], clock=lambda: 0.0)
    assert len(latencies) == len(ops)
    return outcomes(ops, results)


def test_too_large_counts_as_failed_not_dropped():
    values = [1, TooLarge("cut enumeration capped at 24 vertices"), [2, 3]]
    got = _outcomes(values)
    verdict = judge(got, record(got))
    assert (verdict.attempted, verdict.failed, verdict.raised) == (3, 1, 1)
    assert verdict.correct  # the reference raised the same way


def test_a_raise_that_later_completes_counts_as_completed():
    reference = record(_outcomes([1, TooLarge("capped")]))
    verdict = judge(_outcomes([1, "Skipped"]), reference)
    assert (verdict.attempted, verdict.failed, verdict.mismatched) == (2, 0, 0)


def test_changed_result_is_caught_by_the_digest():
    reference = record(_outcomes([1, [2, 3], True]))
    verdict = judge(_outcomes([1, [2, 4], True]), reference)
    assert (verdict.failed, verdict.mismatched) == (1, 1)
    assert not verdict.correct


def test_new_raise_is_a_mismatch():
    reference = record(_outcomes([1, 2]))
    verdict = judge(_outcomes([1, TooLarge("capped")]), reference)
    assert (verdict.failed, verdict.raised, verdict.mismatched) == (1, 1, 1)


def test_reference_of_another_length_is_refused():
    with pytest.raises(ValueError):
        judge(_outcomes([1]), record(_outcomes([1, 2])))


def test_tail_has_ten_samples_beyond_it():
    percentile, value = tail([float(i) for i in range(100)])
    assert (percentile, value) == (90.0, 89.0)


def test_install_rebinds_importers_and_undo_restores():
    original = matchings.count_matchings
    tracer = Tracer()
    undo = tracer.install()
    try:
        assert verifier.count_matchings is matchings.count_matchings is cubicpm.count_matchings
        assert matchings.count_matchings is not original
        report = verifier.check(verifier.LemmaId.TH_HALF, cubicpm.named("petersen"))
        assert report.measured == 6
        assert tracer.stats["matchings.count_matchings"][0] >= 1
    finally:
        undo()
    assert matchings.count_matchings is original
    assert verifier.count_matchings is original
    assert cubicpm.count_matchings is original


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    fake = {
        "wall_s": 1.0, "latencies": [0.001 * i for i in range(1, 20)], "peak_rss_mb": 50.0,
        "layers": {}, "spans": {}, "sweep_calls": 0, "sweep_distinct_graphs": 0,
    }
    # ops_ok_frac needs the reference verdicts, so main() adds it
    assert set(end_to_end_metrics([fake], [0.1])) | {"ops_ok_frac"} == {
        m["name"] for m in spec["end_to_end"]
    }
    assert set(layer_metrics([fake], [fake])) == {m["name"] for m in spec["per_layer"]}
