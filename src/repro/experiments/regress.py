"""Performance-regression gate: fresh perfbench vs the committed baseline.

``BENCH_*.json`` files are the repo's perf ledger — each records
steps/second for every (configuration x variant) plan-evaluation cell
plus the simulated step time those cells produced.  This module turns
the newest committed ledger into a CI gate:

- **semantic drift** — ``sim_step_seconds`` is deterministic simulator
  output, identical across hosts; any relative drift beyond 1e-9 on a
  shared cell means the *model* changed, which a perf PR must not do
  silently.  Always fatal.
- **throughput regression** — ``speedup`` (fast path over event-loop
  executor) is the host-independent perf ratio; the absolute
  steps/second columns vary with CI hardware, so the gate compares the
  ratio and only fails when it drops below ``(1 - tolerance)`` of the
  baseline.  The default band is wide (35%) because CI runners are
  noisy; an injected 2x slowdown still lands far outside it.
- **study agreement** — the Fig. 16 study evaluates one step plan per
  cell; the fresh run's ``fig16_grid`` must find those values equal to
  training every cell through the event loop (``values_match``).

Cells are compared on the *intersection* of (configuration, variant)
keys — a smoke run gates against the subset the full baseline also
measured, and new cells (no baseline yet) are reported but never fail.

``python -m repro regress [--baseline PATH] [--tolerance F]`` prints the
comparison table and exits non-zero on any failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "SEMANTIC_RTOL",
    "DEFAULT_TOLERANCE",
    "MIN_CHURN_SPEEDUP",
    "CellComparison",
    "RegressionReport",
    "find_baseline",
    "load_report",
    "compare_reports",
    "run_regression",
]

#: Relative drift in ``sim_step_seconds`` beyond which the simulated
#: model itself changed (matches the fast-path equivalence tolerance).
SEMANTIC_RTOL = 1e-9
#: Default allowed fractional drop in the fast-path speedup ratio.
DEFAULT_TOLERANCE = 0.35
#: Floor for the incremental max-min solver's churn-microbench speedup
#: over the batch water-filler (the fleet-scale refactor's acceptance
#: bar; an absolute pin, so baseline and current runs may differ in
#: churn cycle count).
MIN_CHURN_SPEEDUP = 5.0


@dataclass
class CellComparison:
    """Baseline-vs-current verdict for one (configuration, variant)."""

    configuration: str
    variant: str
    baseline_sim_s: float
    current_sim_s: float
    baseline_speedup: float
    current_speedup: float
    semantic_rel_err: float
    speedup_ratio: float          # current / baseline
    semantic_ok: bool
    perf_ok: bool

    @property
    def ok(self) -> bool:
        return self.semantic_ok and self.perf_ok

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "variant": self.variant,
            "baseline_sim_s": self.baseline_sim_s,
            "current_sim_s": self.current_sim_s,
            "semantic_rel_err": self.semantic_rel_err,
            "baseline_speedup": self.baseline_speedup,
            "current_speedup": self.current_speedup,
            "speedup_ratio": self.speedup_ratio,
            "semantic_ok": self.semantic_ok,
            "perf_ok": self.perf_ok,
        }


@dataclass
class RegressionReport:
    """All cell comparisons plus the overall gate verdict."""

    cells: list
    tolerance: float
    baseline_path: Optional[str] = None
    #: (configuration, variant) keys present in only one report.
    uncovered: list = field(default_factory=list)
    #: flow-churn gate verdict (None when the current report predates
    #: the scenario).
    churn: Optional[dict] = None
    #: Fig. 16 study-vs-event-loop verdict (None when the current report
    #: has no ``fig16_grid``).
    fig16: Optional[dict] = None

    @property
    def ok(self) -> bool:
        cells_ok = bool(self.cells) and all(c.ok for c in self.cells)
        return cells_ok and all(
            gate is None or gate["ok"]
            for gate in (self.churn, self.fig16))

    @property
    def failures(self) -> list:
        return [c for c in self.cells if not c.ok]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "baseline": self.baseline_path,
            "cells": [c.as_dict() for c in self.cells],
            "uncovered": [list(k) for k in self.uncovered],
            "flow_churn": self.churn,
            "fig16_grid": self.fig16,
        }

    def render_text(self) -> str:
        lines = [
            f"perf regression gate (tolerance: speedup may drop "
            f"{self.tolerance:.0%}; sim drift limit {SEMANTIC_RTOL:g})",
        ]
        if self.baseline_path:
            lines.append(f"baseline: {self.baseline_path}")
        lines.append(
            f"  {'configuration':<13} {'variant':<14} {'sim drift':>10} "
            f"{'base spd':>9} {'now spd':>9} {'ratio':>7}  verdict")
        for c in self.cells:
            verdict = "OK" if c.ok else (
                "SEMANTIC DRIFT" if not c.semantic_ok else "REGRESSION")
            lines.append(
                f"  {c.configuration:<13} {c.variant:<14} "
                f"{c.semantic_rel_err:>10.2e} {c.baseline_speedup:>9.2f} "
                f"{c.current_speedup:>9.2f} {c.speedup_ratio:>7.2f}  "
                f"{verdict}")
        for key in self.uncovered:
            lines.append(f"  {key[0]:<13} {key[1]:<14} "
                         f"{'(no shared baseline cell)':>38}")
        if self.fig16 is not None:
            lines.append(
                f"fig16 grid: {self.fig16['cells']} cells, study vs "
                f"event loop max rel err {self.fig16['max_rel_err']:.2e} "
                f"(values_match={self.fig16['values_match']}) "
                + ("OK" if self.fig16["ok"] else "FAIL"))
        if self.churn is not None:
            base = self.churn.get("baseline_speedup")
            lines.append(
                f"flow churn: {self.churn['flows']} flows, incremental "
                f"{self.churn['speedup']:.1f}x over batch "
                f"(floor {MIN_CHURN_SPEEDUP:g}x"
                + (f", baseline {base:.1f}x" if base else "")
                + f", equivalent={self.churn['equivalent']}) "
                + ("OK" if self.churn["ok"] else "FAIL"))
        lines.append("gate: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def find_baseline(directory: Union[str, Path, None] = None
                  ) -> Optional[Path]:
    """Newest committed ``BENCH_*.json`` (lexicographic = chronological)."""
    root = Path(directory) if directory else Path.cwd()
    candidates = sorted(root.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def load_report(path: Union[str, Path]) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if "plan_eval" not in report:
        raise ValueError(f"{path}: not a perfbench report "
                         "(no 'plan_eval' section)")
    return report


def _cells_by_key(report: dict) -> dict:
    return {(row["configuration"], row["variant"]): row
            for row in report.get("plan_eval", [])}


def compare_reports(baseline: dict, current: dict,
                    tolerance: float = DEFAULT_TOLERANCE,
                    baseline_path: Optional[str] = None
                    ) -> RegressionReport:
    """Gate a fresh perfbench report against a baseline report."""
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    base_cells = _cells_by_key(baseline)
    cur_cells = _cells_by_key(current)
    shared = sorted(set(base_cells) & set(cur_cells))
    uncovered = sorted((set(base_cells) | set(cur_cells)) - set(shared))
    cells = []
    for key in shared:
        b, c = base_cells[key], cur_cells[key]
        sim_b, sim_c = b["sim_step_seconds"], c["sim_step_seconds"]
        rel = abs(sim_c - sim_b) / abs(sim_b) if sim_b else (
            0.0 if sim_c == sim_b else float("inf"))
        spd_b, spd_c = b["speedup"], c["speedup"]
        ratio = spd_c / spd_b if spd_b else float("inf")
        cells.append(CellComparison(
            configuration=key[0], variant=key[1],
            baseline_sim_s=sim_b, current_sim_s=sim_c,
            baseline_speedup=spd_b, current_speedup=spd_c,
            semantic_rel_err=rel, speedup_ratio=ratio,
            semantic_ok=rel <= SEMANTIC_RTOL,
            perf_ok=ratio >= 1.0 - tolerance))
    return RegressionReport(cells=cells, tolerance=tolerance,
                            baseline_path=baseline_path,
                            uncovered=uncovered,
                            churn=_gate_churn(baseline, current),
                            fig16=_gate_fig16(current))


def _gate_churn(baseline: dict, current: dict) -> Optional[dict]:
    """Pin the incremental-solver speedup to its absolute floor.

    The churn microbench compares two legs of the *same* run on the
    same host, so its speedup is host-independent (like the plan-eval
    ratio) and is gated against ``MIN_CHURN_SPEEDUP`` rather than
    against the baseline's value; the baseline figure is reported for
    context only.  Reports predating the scenario gate nothing.
    """
    scenario = current.get("flow_churn")
    if scenario is None:
        return None
    base = baseline.get("flow_churn") or {}
    speedup = scenario.get("speedup", 0.0)
    equivalent = bool(scenario.get("equivalent"))
    return {
        "flows": scenario.get("flows"),
        "churn_ops": scenario.get("churn_ops"),
        "speedup": speedup,
        "equivalent": equivalent,
        "baseline_speedup": base.get("speedup"),
        "floor": MIN_CHURN_SPEEDUP,
        "ok": equivalent and speedup >= MIN_CHURN_SPEEDUP,
    }


def _gate_fig16(current: dict) -> Optional[dict]:
    """Fail when the Fig. 16 study disagrees with event-loop training.

    The study serves each cell from one step-plan evaluation; the fresh
    report's ``fig16_grid`` times that against training every cell
    through the DES and checks the two grids agree.  A disagreement
    means the study prints numbers training would not produce.
    """
    scenario = current.get("fig16_grid")
    if scenario is None:
        return None
    values_match = bool(scenario.get("values_match"))
    return {
        "cells": scenario.get("cells"),
        "max_rel_err": scenario.get("max_rel_err", float("nan")),
        "values_match": values_match,
        "ok": values_match,
    }


def run_regression(baseline_path: Union[str, Path, None] = None,
                   tolerance: float = DEFAULT_TOLERANCE,
                   smoke: bool = True,
                   current: Optional[dict] = None) -> RegressionReport:
    """Run a fresh perfbench and gate it against the committed baseline.

    ``current`` injects a pre-built report (tests use this to fake a
    slowdown); by default a fresh ``perfbench --smoke`` run is taken.
    """
    if baseline_path is None:
        baseline_path = find_baseline()
        if baseline_path is None:
            raise FileNotFoundError(
                "no BENCH_*.json baseline found in the current "
                "directory; pass --baseline explicitly")
    baseline = load_report(baseline_path)
    if current is None:
        from .perfbench import run_perfbench
        current = run_perfbench(smoke=smoke)
    return compare_reports(baseline, current, tolerance=tolerance,
                           baseline_path=str(baseline_path))
