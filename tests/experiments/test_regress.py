"""Perf-regression gate: fixtures, injected slowdowns, baseline lookup."""

import copy
import json

import pytest

from repro.experiments.regress import (
    DEFAULT_TOLERANCE,
    MIN_CHURN_SPEEDUP,
    SEMANTIC_RTOL,
    compare_reports,
    find_baseline,
    load_report,
    run_regression,
)


def make_report(cells=None):
    if cells is None:
        cells = [
            ("localGPUs", "DP-FP16", 0.181, 12.0),
            ("localGPUs", "DDP-FP16", 0.121, 15.0),
            ("falconGPUs", "DDP-FP16", 0.364, 14.0),
        ]
    return {
        "meta": {"smoke": True},
        "plan_eval": [
            {"configuration": cfg, "variant": var,
             "sim_step_seconds": sim, "speedup": spd,
             "ops": 100, "fastpath_steps_per_s": 1000.0,
             "executor_steps_per_s": 1000.0 / spd}
            for cfg, var, sim, spd in cells
        ],
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        base = make_report()
        report = compare_reports(base, copy.deepcopy(base))
        assert report.ok
        assert len(report.cells) == 3
        assert not report.uncovered
        for c in report.cells:
            assert c.semantic_rel_err == 0.0
            assert c.speedup_ratio == 1.0

    def test_injected_2x_slowdown_fails_the_gate(self):
        base = make_report()
        slow = copy.deepcopy(base)
        for row in slow["plan_eval"]:
            row["speedup"] /= 2.0
        report = compare_reports(base, slow)
        assert not report.ok
        assert len(report.failures) == 3
        for c in report.failures:
            assert c.semantic_ok and not c.perf_ok
            assert c.speedup_ratio == pytest.approx(0.5)
        assert "REGRESSION" in report.render_text()
        assert "gate: FAIL" in report.render_text()

    def test_slowdown_within_tolerance_passes(self):
        base = make_report()
        mild = copy.deepcopy(base)
        for row in mild["plan_eval"]:
            row["speedup"] *= 1.0 - DEFAULT_TOLERANCE / 2
        assert compare_reports(base, mild).ok

    def test_semantic_drift_is_always_fatal(self):
        base = make_report()
        drifted = copy.deepcopy(base)
        drifted["plan_eval"][0]["sim_step_seconds"] *= 1.001
        # Even a huge tolerance band never excuses model drift.
        report = compare_reports(base, drifted, tolerance=0.99)
        assert not report.ok
        bad = report.failures[0]
        assert not bad.semantic_ok and bad.perf_ok
        assert bad.semantic_rel_err > SEMANTIC_RTOL
        assert "SEMANTIC DRIFT" in report.render_text()

    def test_compares_only_the_intersection(self):
        base = make_report()
        current = make_report(cells=[
            ("localGPUs", "DP-FP16", 0.181, 12.0),
            ("falconGPUs", "Pipeline-FP16", 0.313, 9.0),  # new cell
        ])
        report = compare_reports(base, current)
        assert report.ok
        assert len(report.cells) == 1
        assert ("falconGPUs", "Pipeline-FP16") in report.uncovered
        assert ("localGPUs", "DDP-FP16") in report.uncovered

    def test_no_shared_cells_fails(self):
        report = compare_reports(make_report(), make_report(cells=[
            ("ethGPUs", "DP-FP32", 0.5, 3.0)]))
        assert not report.ok

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(make_report(), make_report(), tolerance=1.5)

    def test_as_dict_round_trips_through_json(self):
        report = compare_reports(make_report(), make_report())
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["tolerance"] == DEFAULT_TOLERANCE


class TestBaselineFiles:
    def test_find_baseline_picks_newest(self, tmp_path):
        (tmp_path / "BENCH_2026-01-01.json").write_text("{}")
        (tmp_path / "BENCH_2026-08-07.json").write_text("{}")
        found = find_baseline(tmp_path)
        assert found.name == "BENCH_2026-08-07.json"

    def test_find_baseline_empty_dir(self, tmp_path):
        assert find_baseline(tmp_path) is None

    def test_load_report_rejects_non_perfbench_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"meta": {}}))
        with pytest.raises(ValueError):
            load_report(path)


class TestRunRegression:
    def test_missing_baseline_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            run_regression()

    def test_injected_current_report(self, tmp_path):
        base = make_report()
        path = tmp_path / "BENCH_2026-08-08.json"
        path.write_text(json.dumps(base))
        slow = copy.deepcopy(base)
        for row in slow["plan_eval"]:
            row["speedup"] /= 2.0
        report = run_regression(baseline_path=path, current=slow)
        assert not report.ok
        assert report.baseline_path == str(path)

    def test_against_committed_repo_baseline(self):
        # The committed ledger must at least parse and cover the smoke
        # cells; the live gate itself runs in CI (`repro regress`).
        from pathlib import Path
        repo = Path(__file__).resolve().parents[2]
        baseline = find_baseline(repo)
        assert baseline is not None
        report = load_report(baseline)
        keys = {(r["configuration"], r["variant"])
                for r in report["plan_eval"]}
        assert ("localGPUs", "DDP-FP16") in keys
        # The ledger predates the batched grid's retirement: its
        # ``batched_grid`` section is ignored, not gated.
        assert "batched_grid" in report
        current = {k: v for k, v in report.items() if k != "batched_grid"}
        verdict = compare_reports(report, current)
        assert verdict.ok
        assert "batched_grid" not in verdict.as_dict()


class TestChurnGate:
    """The flow-churn microbench pins the incremental solver speedup."""

    @staticmethod
    def churn(speedup=12.0, equivalent=True):
        return {"flows": 1000, "links": 64, "churn_ops": 100,
                "incremental_s": 0.1, "batch_s": 0.1 * speedup,
                "speedup": speedup, "equivalent": equivalent}

    def test_fast_equivalent_churn_passes(self):
        base = make_report()
        base["flow_churn"] = self.churn(speedup=10.0)
        current = make_report()
        current["flow_churn"] = self.churn(speedup=12.0)
        report = compare_reports(base, current)
        assert report.ok
        assert report.churn["ok"]
        assert "flow churn" in report.render_text()

    def test_speedup_below_floor_fails(self):
        current = make_report()
        current["flow_churn"] = self.churn(speedup=MIN_CHURN_SPEEDUP / 2)
        report = compare_reports(make_report(), current)
        assert not report.ok
        assert not report.churn["ok"]

    def test_divergence_from_oracle_fails(self):
        current = make_report()
        current["flow_churn"] = self.churn(speedup=50.0,
                                           equivalent=False)
        report = compare_reports(make_report(), current)
        assert not report.ok

    def test_reports_without_churn_are_ungated(self):
        # Old baselines predate the microbench: nothing to gate.
        report = compare_reports(make_report(), make_report())
        assert report.churn is None
        assert report.ok

    def test_churn_in_as_dict(self):
        current = make_report()
        current["flow_churn"] = self.churn()
        report = compare_reports(make_report(), current)
        assert report.as_dict()["flow_churn"]["ok"]


class TestFig16Gate:
    """The Fig. 16 study must agree with event-loop training."""

    @staticmethod
    def fig16(values_match=True):
        return {"cells": 3, "sim_steps": 4, "baseline_eventloop_s": 6.0,
                "fastpath_s": 0.5, "jobs": 1, "speedup": 12.0,
                "values_match": values_match,
                "max_rel_err": 2e-13 if values_match else 3e-2,
                "grid": {}}

    def test_matching_study_passes(self):
        current = make_report()
        current["fig16_grid"] = self.fig16()
        report = compare_reports(make_report(), current)
        assert report.ok
        assert report.fig16["ok"]
        assert "fig16 grid" in report.render_text()
        assert report.as_dict()["fig16_grid"]["values_match"] is True

    def test_study_disagreeing_with_event_loop_fails(self):
        current = make_report()
        current["fig16_grid"] = self.fig16(values_match=False)
        report = compare_reports(make_report(), current)
        assert not report.ok
        assert not report.fig16["ok"]
        # Every plan-eval cell is fine: the study verdict alone fails.
        assert not report.failures
        assert "gate: FAIL" in report.render_text()

    def test_reports_without_the_grid_are_ungated(self):
        report = compare_reports(make_report(), make_report())
        assert report.fig16 is None
        assert report.ok
