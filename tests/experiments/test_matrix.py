"""The strategy x model crossover matrix: fitting, frontier, formatting."""

import pytest

from repro.cli import build_parser, main
from repro.devices.gpu import Precision
from repro.experiments import ResultCache, run_configuration
from repro.experiments import matrix as matrix_mod
from repro.experiments.matrix import (
    MATRIX_CONFIGURATIONS,
    MATRIX_MODELS,
    SMOKE_MODELS,
    MatrixCell,
    _fit_operating_point,
    crossover_frontier,
    evaluate_cell,
    format_matrix,
    plan_comm_bytes,
    run_matrix,
)
from repro.plan import PlanBuilder
from repro.training import STRATEGY_REGISTRY

#: Every registry strategy on both backends, at ~2 s of DES training:
#: resnet50 for the cheap cells, bert-large for TP (resnet50 TP trains
#: for 1-2 s a cell, as do falcon bert-large DDP/sharded).
DES_SLICES = (
    ("resnet50", ("dp", "ddp", "sharded", "pipeline", "2d", "fsdp")),
    ("bert-large", ("tp",)),
)


def test_smoke_models_are_a_subset_of_the_full_suite():
    assert set(SMOKE_MODELS) <= set(MATRIX_MODELS)
    assert set(MATRIX_CONFIGURATIONS) == {"localGPUs", "falconGPUs"}


def test_plan_comm_bytes_counts_collectives_and_p2p():
    b = PlanBuilder("p", world_size=2)
    for rank in range(2):
        f = b.compute(rank, "fwd", flops=1e9, hbm_bytes=0.0,
                      precision=Precision.FP16, efficiency=0.5)
        b.collective(rank, "ar", "allreduce", 3e6, deps=[f])
    b.h2d(0, "in", 5e6)   # host copies are not fabric collectives
    assert plan_comm_bytes(b.build()) == pytest.approx(6e6)


def test_fit_operating_point_respects_memory_and_divisibility():
    # TP replicates the global batch on every rank: bert-large at its
    # native batch only fits once accumulation shrinks the micro-batch.
    job, gb, acc, reason = _fit_operating_point(
        "bert-large", "localGPUs", "tp", plan_passes=None)
    assert job is not None and reason is None
    assert gb == 48 and acc > 1
    # DDP fits the native batch outright.
    _job, gb, acc, _reason = _fit_operating_point(
        "bert-large", "localGPUs", "ddp", plan_passes=None)
    assert (gb, acc) == (48, 1)


def _cell(cfg, model, strategy, tps):
    return MatrixCell(configuration=cfg, benchmark=model,
                      strategy=strategy, fitted=True,
                      time_per_sample=tps)


def test_crossover_frontier_flags_flipped_winners():
    cells = [
        _cell("localGPUs", "m1", "ddp", 1.0),
        _cell("localGPUs", "m1", "pipeline", 2.0),
        _cell("falconGPUs", "m1", "ddp", 3.0),
        _cell("falconGPUs", "m1", "pipeline", 2.5),
        _cell("localGPUs", "m2", "ddp", 1.0),
        _cell("falconGPUs", "m2", "ddp", 1.5),
        MatrixCell(configuration="falconGPUs", benchmark="m2",
                   strategy="tp", fitted=False),
    ]
    winners, crossover = crossover_frontier(
        cells, ("localGPUs", "falconGPUs"))
    assert winners["localGPUs"] == {"m1": "ddp", "m2": "ddp"}
    assert winners["falconGPUs"] == {"m1": "pipeline", "m2": "ddp"}
    assert crossover == ["m1"]


def test_run_matrix_tiny_slice_end_to_end():
    report = run_matrix(models=("bert-large",),
                        strategies=("ddp", "pipeline"))
    assert len(report.cells) == 4   # 2 configs x 1 model x 2 strategies
    for cell in report.cells:
        assert cell.fitted
        assert cell.step_time > 0
        assert cell.time_per_sample > 0
        assert cell.comm_bytes_per_step > 0
        assert 0.0 < cell.gpu_busy_frac <= 1.0
        assert cell.engine == "fastpath"
        assert cell.label in ("compute-bound", "comm-bound",
                              "copy-bound", "storage-bound",
                              "framework-bound")
    assert set(report.frontier) == {"localGPUs", "falconGPUs"}
    text = format_matrix(report)
    assert "crossover frontier" in text
    assert "bert-large" in text


def test_run_matrix_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategies"):
        run_matrix(models=("bert-large",), strategies=("warp",))


def test_des_slices_cover_every_registry_strategy():
    covered = {s for _model, strategies in DES_SLICES for s in strategies}
    assert covered == set(STRATEGY_REGISTRY)


@pytest.mark.parametrize("model,strategies", DES_SLICES,
                         ids=[model for model, _s in DES_SLICES])
def test_run_matrix_step_times_match_des_training(model, strategies):
    # A cell's step time is one plan evaluation; training the same job
    # through the event loop must give the same steady-state step.  At
    # 4 steps the input pipeline's read-ahead ends inside the two
    # warm-up steps; in longer runs it slows some measured DP/FSDP
    # steps, which the plan leaves out.
    report = run_matrix(models=(model,), strategies=strategies)
    assert len(report.cells) == 2 * len(strategies)
    for cell in report.cells:
        assert cell.fitted
        record = run_configuration(
            model, cell.configuration,
            strategy=STRATEGY_REGISTRY[cell.strategy](),
            global_batch=cell.global_batch,
            accumulation_steps=cell.accumulation_steps, sim_steps=4)
        assert cell.step_time == pytest.approx(record.step_time,
                                               rel=1e-9)
        assert cell.throughput == pytest.approx(record.throughput,
                                                rel=1e-9)


def test_warm_run_matrix_reads_only_the_cache(tmp_path):
    kwargs = dict(models=("bert-large",),
                  strategies=("dp", "pipeline", "2d"))
    cold = run_matrix(cache=ResultCache(tmp_path), **kwargs)
    cache = ResultCache(tmp_path)
    warm = run_matrix(cache=cache, **kwargs)
    assert cache.hits == len(warm.cells) == 6
    assert cache.misses == 0
    assert warm.as_dict() == cold.as_dict()
    assert format_matrix(warm) == format_matrix(cold)


def test_unfitted_cell_carries_its_reason(monkeypatch):
    monkeypatch.setattr(matrix_mod, "_fit_operating_point",
                        lambda *a: (None, None, None, "out of memory"))
    cell = MatrixCell(**evaluate_cell("bert-large", "localGPUs", "tp",
                                      None))
    assert not cell.fitted and cell.reason == "out of memory"
    assert cell.step_time is None and cell.engine is None


def test_cli_matrix_fan_out_prints_the_serial_bytes(capsys):
    argv = ["matrix", "--models", "bert-large", "--strategies",
            "dp,pipeline,2d", "--no-cache"]
    outputs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "crossover frontier" in outputs[0]


def test_cli_parses_matrix_flags():
    args = build_parser().parse_args(
        ["matrix", "--smoke", "--steps", "3", "--models",
         "bert-large,resnet50", "--strategies", "ddp,tp",
         "--jobs", "2", "--no-cache"])
    assert args.command == "matrix"
    assert args.smoke and args.steps == 3
    assert args.models == "bert-large,resnet50"
    assert args.strategies == "ddp,tp"
