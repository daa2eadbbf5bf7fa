"""Self-tests of the benchmark's arithmetic and failure accounting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_stats import Ledger, median, quartiles, spread  # noqa: E402
from bench_trace import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402


def _span(sid, parent, t0, t1, name="x"):
    return (sid, parent, name, float(t0), float(t1), None)


def test_self_time_nested_children_count_once():
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 2, 2, 3)]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_back_to_back_children():
    spans = [_span(1, None, 0, 10), _span(2, 1, 2, 5), _span(3, 1, 5, 7)]
    assert self_times(spans)[1] == 5.0


def test_self_time_overlapping_and_overhanging_children():
    # Children on two threads overlap; their union counts once.
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 6), _span(3, 1, 4, 8)]
    assert self_times(spans)[1] == 3.0
    # A child that outlives its parent is clipped to the parent's interval.
    spans = [_span(1, None, 0, 5), _span(2, 1, 4, 7)]
    assert self_times(spans)[1] == 4.0


def test_tracer_links_parents_and_skips_disabled_calls():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.span("inner", lambda: 42)

    assert tracer.op_span("outer", 0, inner) == 42
    tracer.enabled = False
    assert tracer.span("skipped", lambda: 1) == 1
    tracer.count("skipped")
    by_name = {s[2]: s for s in tracer.spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None
    # outer spans ticks 0..3, inner covers 1..2.
    assert self_times(tracer.spans)[by_name["outer"][0]] == 2.0
    assert "skipped" not in tracer.counts


def test_layer_metrics_cover_every_per_layer_name_per_op():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op_span("cli.run", 0, tracer.span, "overlap.nms", lambda: None)
    tracer.count("overlap.nms.kept", 6)
    values = layer_metrics(tracer, 2, {"trace_overhead": 1.5})
    assert list(values) == [name for name, _, _ in PER_LAYER]
    assert values["overlap.nms.s"] == 0.5
    assert values["overlap.nms.kept"] == 3.0
    assert values["cli.run.s"] == 1.5
    assert values["learner.train_cascade.s"] == 0.0
    assert values["trace_overhead"] == 1.5


def test_median_and_quartiles_match_statistics():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = quartiles(vals)
    assert [q1, q2, q3] == statistics.quantiles(vals, n=4)
    assert q2 == median(vals) == 3.75
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        median([])


def test_ledger_counts_raised_and_checked_failures_once():
    ledger = Ledger()
    ok, _, _ = ledger.run("fine", lambda: 1)
    bad, result, _ = ledger.run("broken", lambda: 1 / 0)
    assert result is None
    assert (ledger.attempted, ledger.failed, ledger.failed_frac) == (2, 1, 0.5)
    assert "ZeroDivisionError" in ledger.notes[0]
    ledger.check(bad, False, "same op again")
    assert ledger.failed == 1
    assert not ledger.check(ok, False, "output check failed")
    assert ledger.failed_frac == 1.0
    ledger.failed_op("a round's checks raised")
    assert (ledger.attempted, ledger.failed) == (3, 3)


def test_forced_cli_failure_shows_in_failed_frac(tmp_path, monkeypatch):
    import cascadev
    from bench_workloads import CliSmall

    def broken_run(cfg, scenes_dir, out):
        raise cascadev.DataError("forced failure")

    monkeypatch.setattr(cascadev.cli, "cmd_run", broken_run)
    wl = CliSmall(cascadev, 3, str(tmp_path / "work"), {})
    wl.NUM_SCENES = 2
    wl.setup()
    ledger = Ledger()
    assert wl.round(0, ledger) == {"ok": False}
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_frac == 0.5
    assert "exited 3" in ledger.notes[0]
