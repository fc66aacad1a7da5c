"""Extension — what actually drives the Fig. 11 size-overhead correlation.

The paper: "We can see the correlation between the overhead and the size
of the model."  These parametric sweeps decompose that correlation:

1. at a *fixed* per-GPU batch, falcon overhead is roughly flat-to-falling
   in model size (the fixed-vocabulary embedding table keeps small
   transformers relatively communication-bound);
2. overhead collapses as the per-GPU batch grows (compute scales with
   the batch, gradient volume does not);
3. therefore the observed correlation is mediated by device memory:
   bigger models are forced to smaller batches, which is what raises
   their communication-to-compute ratio on the slow fabric.
"""

from conftest import emit

from repro.experiments import (
    overhead_vs_batch,
    overhead_vs_model_size,
    render_table,
)


def test_extension_overhead_scaling(benchmark):
    depth_points = benchmark.pedantic(
        lambda: overhead_vs_model_size(layer_counts=(4, 12, 24)),
        rounds=1, iterations=1)
    batch_points = overhead_vs_batch(batches=(2, 4, 6))

    emit(render_table(
        ["Encoder layers", "Params M", "Falcon overhead %"],
        [(p.num_layers, round(p.params_m, 1), round(p.overhead_pct, 1))
         for p in depth_points],
        title="Sweep 1: depth at fixed per-GPU batch 6",
    ))
    emit(render_table(
        ["Batch/GPU", "local ms", "falcon ms", "Falcon overhead %"],
        [(p.batch_per_gpu, round(p.local_step_time * 1e3, 1),
          round(p.falcon_step_time * 1e3, 1), round(p.overhead_pct, 1))
         for p in batch_points],
        title="Sweep 2: per-GPU batch on BERT-large",
    ))

    # (1) fixed batch: no positive size correlation.
    assert depth_points[0].overhead_pct >= \
        depth_points[-1].overhead_pct - 5.0
    # (2) batch is the lever: halving batch inflates overhead massively.
    assert batch_points[0].overhead_pct > \
        batch_points[-1].overhead_pct + 50.0
