"""Topology recommendation framework (paper §VI future work).

"[We plan to] build a system framework that can take the input of various
configured runs, and recommend the optimal system level topology for AI
and HPC workloads."  This module is that framework over the simulator:

1. accept one instrumented record per candidate configuration (the
   ``repro recommend`` command reads them from Fig. 11's cached sweep),
2. price each configuration — locally attached NVLink GPUs are the
   scarce premium resource, Falcon-attached GPUs the cheap flexible pool,
3. recommend the *cheapest* configuration whose slowdown against the
   fastest stays within a tolerance — the paper's own decision rule
   ("overhead is still acceptable given the flexibility").

The output carries the full scoring table so an operator can audit the
decision, plus a one-line rationale per rejected candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .runner import ExperimentRecord

__all__ = ["ResourcePricing", "ScoredConfiguration", "Recommendation",
           "TopologyRecommender"]


@dataclass(frozen=True)
class ResourcePricing:
    """Relative cost units per resource class.

    Defaults reflect the composability pitch: pooled PCIe GPUs are
    cheaper to provision than NVLink-soldered ones (no host coupling,
    independent refresh cycles), and NVMe is cheap either way.
    """

    local_gpu: float = 1.00
    falcon_gpu: float = 0.70
    local_nvme: float = 0.08
    falcon_nvme: float = 0.06
    scratch: float = 0.00

    def configuration_cost(self, configuration: str) -> float:
        """Cost units consumed by one Table III configuration."""
        costs = {
            "localGPUs": 8 * self.local_gpu + self.scratch,
            "hybridGPUs": 4 * self.local_gpu + 4 * self.falcon_gpu
            + self.scratch,
            "falconGPUs": 8 * self.falcon_gpu + self.scratch,
            "localNVMe": 8 * self.local_gpu + self.local_nvme,
            "falconNVMe": 8 * self.local_gpu + self.falcon_nvme,
        }
        try:
            return costs[configuration]
        except KeyError:
            raise KeyError(f"no pricing for configuration "
                           f"{configuration!r}") from None


@dataclass(frozen=True)
class ScoredConfiguration:
    """One candidate with its performance and economics."""

    configuration: str
    total_time: float
    throughput: float
    cost_units: float
    slowdown_pct: float           # vs fastest candidate
    throughput_per_cost: float
    acceptable: bool
    note: str


@dataclass(frozen=True)
class Recommendation:
    """The framework's verdict for one workload."""

    benchmark: str
    recommended: str
    tolerance_pct: float
    candidates: tuple[ScoredConfiguration, ...]

    def table_rows(self) -> list[tuple]:
        return [(("->" if c.configuration == self.recommended else "  ")
                 + c.configuration,
                 round(c.total_time, 1), round(c.throughput, 1),
                 round(c.cost_units, 2), round(c.slowdown_pct, 2),
                 round(c.throughput_per_cost, 1), c.note)
                for c in self.candidates]


class TopologyRecommender:
    """Recommends the cheapest acceptable configuration per workload."""

    def __init__(self, pricing: Optional[ResourcePricing] = None,
                 tolerance_pct: float = 7.0):
        if tolerance_pct < 0:
            raise ValueError("tolerance must be non-negative")
        self.pricing = pricing or ResourcePricing()
        self.tolerance_pct = tolerance_pct

    def recommend_from_records(self, records: list[ExperimentRecord]
                               ) -> Recommendation:
        """Recommend from already-measured runs (the paper's framing:
        'take the input of various configured runs')."""
        if not records:
            raise ValueError("no candidate runs supplied")
        benchmarks = {r.benchmark for r in records}
        if len(benchmarks) != 1:
            raise ValueError(
                f"records span multiple benchmarks: {sorted(benchmarks)}")
        fastest = min(r.total_time for r in records)
        scored: list[ScoredConfiguration] = []
        for record in records:
            cost = self.pricing.configuration_cost(record.configuration)
            slowdown = 100.0 * (record.total_time / fastest - 1.0)
            acceptable = slowdown <= self.tolerance_pct
            note = ("within tolerance" if acceptable else
                    f"{slowdown:.0f}% slower than best")
            scored.append(ScoredConfiguration(
                configuration=record.configuration,
                total_time=record.total_time,
                throughput=record.throughput,
                cost_units=cost,
                slowdown_pct=slowdown,
                throughput_per_cost=record.throughput / cost
                if cost > 0 else float("inf"),
                acceptable=acceptable,
                note=note,
            ))
        acceptable = [c for c in scored if c.acceptable]
        pick = min(acceptable, key=lambda c: (c.cost_units, c.total_time))
        return Recommendation(
            benchmark=benchmarks.pop(),
            recommended=pick.configuration,
            tolerance_pct=self.tolerance_pct,
            candidates=tuple(sorted(scored,
                                    key=lambda c: c.cost_units)),
        )
