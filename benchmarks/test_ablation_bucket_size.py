"""Ablation — DDP gradient bucket size (comm/compute overlap).

DESIGN.md design choice: DDP overlaps bucketed allreduce with the
backward pass.  This ablation sweeps the bucket size on the
communication-bound case (BERT-large on falcon GPUs):

- tiny buckets pay per-collective latency many times over,
- one giant bucket (no overlap) exposes the whole allreduce after
  backward,
- PyTorch's 25 MB default sits near the sweet spot.
"""

from conftest import emit

from repro import ComposableSystem
from repro.experiments import render_table
from repro.plan import evaluate_plan
from repro.training import DistributedDataParallel

BUCKETS_MB = (1, 25, 700)   # tiny / default / effectively-unbucketed


def step_time_with_bucket(bucket_mb: float) -> float:
    """Steady-state step time: one evaluation of the job's step plan."""
    job = ComposableSystem().job(
        "bert-large", configuration="falconGPUs",
        strategy=DistributedDataParallel(bucket_bytes=bucket_mb * 1e6))
    return evaluate_plan(job.step_plan, job._exec_ctx).makespan


def test_ablation_ddp_bucket_size(benchmark):
    times = {}
    times[25] = benchmark.pedantic(lambda: step_time_with_bucket(25),
                                   rounds=1, iterations=1)
    for mb in BUCKETS_MB:
        if mb not in times:
            times[mb] = step_time_with_bucket(mb)

    emit(render_table(
        ["Bucket MB", "Step ms", "vs 25 MB %"],
        [(mb, round(times[mb] * 1e3, 1),
          round(100 * (times[mb] / times[25] - 1), 1))
         for mb in BUCKETS_MB],
        title="Ablation: DDP bucket size, BERT-large on falconGPUs",
    ))

    # One giant bucket exposes the full allreduce: clearly slower.
    assert times[700] > 1.10 * times[25]
    # The default must be within a few percent of the best measured.
    best = min(times.values())
    assert times[25] < 1.10 * best
