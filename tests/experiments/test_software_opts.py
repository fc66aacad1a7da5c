"""Fig. 16 study: one step-plan evaluation per cell, cached.

The study serves each cell from one fast-path evaluation of the cell's
step plan instead of training it through the event loop.  These tests
pin that the values equal event-loop training, that every cell really
ran on the fast path, and that a warm cache builds no job at all.
"""

import json

import pytest

from repro.experiments import ResultCache, run_configuration, \
    software_optimization_study
from repro.experiments.software_opts import VARIANTS

#: Cells checked against event-loop training.  The falcon DDP cells
#: take several seconds each through the DES, too slow for tier-1.
DES_CELLS = (
    *(("localGPUs", v.name) for v in VARIANTS),
    ("falconGPUs", "DP-FP32"),
    ("falconGPUs", "DP-FP16"),
    ("falconGPUs", "Sharded-FP16"),
    ("falconGPUs", "Pipeline-FP16"),
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fig16-cache")


@pytest.fixture(scope="module")
def study(cache_dir):
    return software_optimization_study(cache=ResultCache(cache_dir))


@pytest.mark.parametrize("configuration,variant_name", DES_CELLS)
def test_study_equals_event_loop_training(study, configuration,
                                          variant_name):
    variant = next(v for v in VARIANTS if v.name == variant_name)
    record = run_configuration(
        "bert-large", configuration, strategy=variant.strategy_factory(),
        policy=variant.policy, global_batch=variant.global_batch,
        sim_steps=4)
    trained = 1.0 / record.throughput
    assert study[configuration][variant_name] == pytest.approx(
        trained, rel=1e-9, abs=0.0)


def test_every_cell_ran_on_the_fast_path(study, cache_dir):
    entries = [json.loads(path.read_text())
               for path in cache_dir.glob("*.json")]
    assert len(entries) == 2 * len(VARIANTS)
    for entry in entries:
        assert entry["cell"]["kind"] == "step"
        assert entry["value"]["engine"] == "fastpath", entry["cell"]


def test_warm_study_builds_no_job(study, cache_dir, monkeypatch):
    from repro.training import TrainingJob

    def boom(*args, **kwargs):
        raise AssertionError("warm-cache study built a TrainingJob")

    monkeypatch.setattr(TrainingJob, "__init__", boom)
    warm = ResultCache(cache_dir)
    assert software_optimization_study(cache=warm) == study
    assert warm.misses == 0 and warm.hits == 2 * len(VARIANTS)
