"""Fig. 16 — impact of software-level DL optimizations on BERT-large
fine-tuning (SQuAD).

Variants: DataParallel / DistributedDataParallel x FP32 / FP16-mixed,
plus ZeRO-style sharded training (which lifts the per-GPU batch from 6 to
10).  Paper claims to hold:

- mixed precision: >50% training-time reduction everywhere, >70% on
  falcon-attached GPUs;
- DDP over DP: large additional speedup, >80% on local GPUs;
- sharding: batch 6 -> 10 and additional speedup on top of DDP-FP16.
"""

import pytest
from conftest import emit

from repro.devices import V100_SXM2_16GB
from repro.experiments import render_table, software_optimization_study, \
    time_reduction_pct
from repro.training import AMP_POLICY, DistributedDataParallel, \
    ShardedDataParallel
from repro.workloads import bert_large


def test_fig16_software_optimizations(benchmark):
    study = benchmark.pedantic(
        lambda: software_optimization_study(),
        rounds=1, iterations=1)

    rows = []
    for variant in study["localGPUs"]:
        rows.append((variant,
                     round(study["localGPUs"][variant] * 1e3, 3),
                     round(study["falconGPUs"][variant] * 1e3, 3)))
    emit(render_table(
        ["Variant", "localGPUs ms/sample", "falconGPUs ms/sample"],
        rows,
        title="Fig 16: Software-level Optimizations on BERT-large",
    ))

    for config, variants in study.items():
        fp16_gain = time_reduction_pct(variants["DDP-FP32"],
                                       variants["DDP-FP16"])
        # Mixed precision: >50% reduction in all cases...
        assert fp16_gain > 50.0, config
    # ...and more than 70% on falcon-attached GPUs.
    falcon_fp16 = time_reduction_pct(study["falconGPUs"]["DDP-FP32"],
                                     study["falconGPUs"]["DDP-FP16"])
    assert falcon_fp16 > 70.0

    # DDP over DP: >80% on locally-attached GPUs.
    ddp_gain = time_reduction_pct(study["localGPUs"]["DP-FP16"],
                                  study["localGPUs"]["DDP-FP16"])
    assert ddp_gain > 75.0

    # Sharding helps on top of DDP-FP16 (most where communication-bound).
    for config in study:
        assert study[config]["Sharded-FP16"] <= \
            study[config]["DDP-FP16"] * 1.01, config
    sharded_falcon = time_reduction_pct(study["falconGPUs"]["DDP-FP16"],
                                        study["falconGPUs"]["Sharded-FP16"])
    assert sharded_falcon > 15.0

    # The memory story: sharding lifts the feasible batch from 6 to 10.
    model = bert_large()
    cap = V100_SXM2_16GB.memory_bytes
    assert DistributedDataParallel().max_batch_per_gpu(
        model, AMP_POLICY, cap, 8) == 6
    assert ShardedDataParallel().max_batch_per_gpu(
        model, AMP_POLICY, cap, 8) == 10
