"""Tests for traced runs, their critical-path attribution, and the
Fig. 11 split.

A traced run is profiled by :func:`~repro.telemetry.profile_run`, so its
attribution is the profiler's: per-step categories tile each step
window, and the reconstructed total matches ``TrainingResult.total_time``
to float rounding.
"""

import json

import pytest

from repro.experiments import overhead_split, traced_run
from repro.experiments.export import records_to_json
from repro.experiments.profiling import profile_cell
from repro.telemetry import (
    ATTRIBUTION_CATEGORIES,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.training.loop import WARMUP_STEPS


@pytest.fixture(scope="module")
def local_run():
    return traced_run("mobilenetv2", "localGPUs", sim_steps=5)


@pytest.fixture(scope="module")
def split():
    return overhead_split("mobilenetv2", composed="falconGPUs",
                          sim_steps=5)


class TestTracedRun:
    def test_reconciles_to_float_rounding(self, local_run):
        profile = local_run.profile
        assert profile.reconciliation_rel_err <= 1e-9
        assert profile.reconstructed_total_s == pytest.approx(
            local_run.record.total_time, rel=1e-9)

    def test_one_attribution_per_step(self, local_run):
        assert len(local_run.profile.steps) == 5
        assert [w.index for w in local_run.profile.steps] == list(range(5))

    def test_steady_steps_exclude_warmup(self, local_run):
        steps = local_run.profile.steps
        steady = steps[WARMUP_STEPS:]
        assert len(steady) == 5 - WARMUP_STEPS
        mean_wall = sum(w.wall for w in steady) / len(steady)
        assert local_run.profile.steady_attr.wall == pytest.approx(
            mean_wall, rel=1e-12)

    def test_categories_sum_to_wall_every_step(self, local_run):
        for window in local_run.profile.steps:
            assert set(window.attr.seconds) <= set(ATTRIBUTION_CATEGORIES)
            assert sum(window.attr.seconds.values()) == pytest.approx(
                window.wall, rel=1e-9)

    def test_mean_split_covers_step(self, local_run):
        steady = local_run.profile.steady_attr
        assert set(steady.seconds) <= set(ATTRIBUTION_CATEGORIES)
        assert steady.total == pytest.approx(steady.wall, rel=1e-9)
        assert local_run.record.step_time == pytest.approx(
            steady.wall, rel=1e-9)

    def test_checkpoint_spans_captured(self, local_run):
        spans = [s for s in local_run.tracer.spans
                 if s.track == local_run.track and s.name == "checkpoint"]
        (window,) = local_run.profile.checkpoints
        assert len(spans) == 1
        assert window.wall == pytest.approx(spans[0].duration, rel=1e-9)
        assert window.wall == pytest.approx(
            local_run.record.checkpoint_time, rel=0.01)

    def test_trace_exports_valid(self, local_run):
        trace = to_chrome_trace(local_run.tracer)
        assert validate_chrome_trace(trace) == []

    def test_chaos_events_share_the_timeline(self, local_run):
        # the chassis event log (allocations etc.) lands as instants
        assert local_run.tracer.instants
        trace = to_chrome_trace(local_run.tracer)
        assert any(e["ph"] == "i" for e in trace["traceEvents"])


def test_trace_and_profile_report_one_attribution():
    # `repro trace` and `repro profile` read one attribution: the same
    # cell and step count give equal steady seconds per category.
    run = traced_run("bert-large", "falconGPUs", sim_steps=3)
    report = profile_cell("bert-large", "falconGPUs", sim_steps=3,
                          evaluate_what_ifs=False)
    traced = run.profile.steady_attr
    profiled = report.run_profile.steady_attr
    assert set(traced.seconds) == set(profiled.seconds)
    assert traced.seconds["contention"] > 0  # the composed fabric's cost
    for category, seconds in profiled.seconds.items():
        assert traced.seconds[category] == pytest.approx(seconds,
                                                         rel=1e-12)
    assert traced.contention_by_source == pytest.approx(
        profiled.contention_by_source, rel=1e-12)
    assert run.profile.reconciliation_rel_err <= 1e-9


class TestOverheadSplit:
    def test_falcon_is_slower_and_comm_dominates(self, split):
        assert split.overhead_pct > 0
        rows = {r[0]: r for r in split.split_rows()}
        assert set(rows) == set(ATTRIBUTION_CATEGORIES)
        # Fig. 11: composed overhead is communication, not compute
        assert rows["comm"][4] > 50.0  # share %
        assert rows["comm"][3] > 0  # delta ms

    def test_both_runs_reconcile(self, split):
        assert split.baseline.profile.reconciliation_rel_err <= 1e-9
        assert split.composed.profile.reconciliation_rel_err <= 1e-9


class TestSummaryEmbedding:
    def test_plain_export_unchanged(self, local_run):
        (row,) = json.loads(records_to_json([local_run.record]))
        assert "events" not in row and "trace" not in row
