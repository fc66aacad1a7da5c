"""Parametric model-size scaling of the PCIe-switching overhead.

The paper's Fig. 11 discussion: "We can see the correlation between the
overhead and the size of the model."  Its evidence is five scattered
benchmarks; these sweeps make the relationship parametric — and sharpen
it.  The overhead actually tracks the **communication-to-compute ratio**,
not raw parameter count:

- :func:`overhead_vs_model_size` sweeps encoder *depth* at a fixed
  per-GPU batch.  Counter-intuitively the overhead mildly *falls* with
  size: the fixed-vocabulary embedding table contributes
  gradient traffic but almost no FLOPs, so the small members of each
  family are relatively more communication-bound.
- :func:`overhead_vs_batch` sweeps the per-GPU batch on BERT-large and
  shows the real mediator: compute scales with the batch while gradient
  volume does not, so overhead collapses as the batch grows.  Larger
  models cannot grow their batch (device memory), which is *why* the
  paper's five benchmarks line up as "bigger model, more overhead" —
  model size acts through the memory-limited batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ComposableSystem
from ..devices.gpu import Precision
from ..plan.fastpath import evaluate_plan
from ..workloads import SQUAD_V11, bert
from ..workloads.registry import Benchmark

__all__ = ["ScalingPoint", "BatchPoint", "overhead_vs_model_size",
           "overhead_vs_batch"]


@dataclass(frozen=True)
class ScalingPoint:
    """One model size on the overhead curve."""

    num_layers: int
    params_m: float
    local_step_time: float
    falcon_step_time: float

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.falcon_step_time / self.local_step_time - 1.0)


def _bert_family_benchmark(num_layers: int, hidden: int,
                           heads: int) -> Benchmark:
    """An ad-hoc registry entry for one family member."""
    return Benchmark(
        key=f"bert-{num_layers}L",
        display_name=f"BERT-{num_layers}L",
        domain="nlp",
        model_builder=lambda: bert(f"BERT-{num_layers}L", hidden,
                                   num_layers, heads, seq_len=384),
        dataset=SQUAD_V11,
        global_batch=48,
        paper_batch_size=48,
        epochs=2,
        efficiency={Precision.FP16: 0.220, Precision.FP32: 0.55},
        paper_depth=num_layers,
        paper_params_m=0.0,
        seq_len=384,
    )


#: The two backends every point compares, in ``_measure``'s order.
BACKENDS = ("localGPUs", "falconGPUs")


def _measure(bench, **config) -> tuple[float, ...]:
    """DDP step times of ``bench`` (a registry key or a
    :class:`Benchmark`) on :data:`BACKENDS`: the makespan of one
    evaluation of each job's step plan (nothing is trained)."""
    times = []
    for configuration in BACKENDS:
        job = ComposableSystem().job(bench, configuration, "ddp", **config)
        times.append(evaluate_plan(job.step_plan, job._exec_ctx).makespan)
    return tuple(times)


def _family_point(num_layers: int, hidden: int,
                  heads: int) -> ScalingPoint:
    """One BERT-family member's DDP step time on both backends."""
    bench = _bert_family_benchmark(num_layers, hidden, heads)
    return ScalingPoint(num_layers, bench.build().params / 1e6,
                        *_measure(bench))


def overhead_vs_model_size(layer_counts=(4, 8, 16, 24),
                           hidden: int = 1024,
                           heads: int = 16) -> list[ScalingPoint]:
    """Sweep encoder *depth*; measure falcon overhead at each size.

    The per-GPU batch is held at BERT-large's 6 so only the gradient
    volume (i.e. parameter count) varies across points.
    """
    return [_family_point(num_layers, hidden, heads)
            for num_layers in layer_counts]


@dataclass(frozen=True)
class BatchPoint:
    """One per-GPU batch size on the overhead curve."""

    batch_per_gpu: int
    local_step_time: float
    falcon_step_time: float

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.falcon_step_time / self.local_step_time - 1.0)


def overhead_vs_batch(batches=(2, 4, 6), benchmark_key: str = "bert-large",
                      accumulation_for=frozenset()) -> list[BatchPoint]:
    """Sweep the per-GPU batch on one model; gradient volume is constant
    so the communication-to-compute ratio (and the falcon overhead)
    falls as the batch grows."""
    return [BatchPoint(per_gpu, *_measure(
                benchmark_key, global_batch=per_gpu * 8,
                accumulation_steps=2 if per_gpu in accumulation_for else 1))
            for per_gpu in batches]

