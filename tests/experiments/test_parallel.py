"""Parallel memoized harness: cache keying, corruption, bypass, reuse."""

import json

import pytest

from repro.experiments import run_configuration
from repro.experiments.parallel import (
    NullCache,
    ResultCache,
    experiment_cell,
    opt_profile_cell,
    record_from_value,
    record_to_value,
    run_cells,
)
from repro.training import DistributedDataParallel, ShardedDataParallel

STEPS = 3  # tiny runs: these tests exercise the harness, not the sim


def cheap_cell(**overrides):
    kwargs = {"sim_steps": STEPS}
    kwargs.update(overrides)
    return experiment_cell("resnet50", "localGPUs", **kwargs)


class TestKeying:
    def test_key_is_deterministic(self):
        cache = ResultCache("/tmp/unused")
        assert cache.key(cheap_cell()) == cache.key(cheap_cell())

    def test_key_changes_with_plan_passes_and_seed(self):
        cache = ResultCache("/tmp/unused")
        base = cache.key(cheap_cell())
        assert cache.key(cheap_cell(plan_passes="all")) != base
        assert cache.key(cheap_cell(jitter_seed=7)) != base

    def test_key_changes_with_strategy_knobs(self):
        cache = ResultCache("/tmp/unused")
        a = cache.key(cheap_cell(
            strategy=DistributedDataParallel(bucket_bytes=25e6)))
        b = cache.key(cheap_cell(
            strategy=DistributedDataParallel(bucket_bytes=50e6)))
        assert a != b

    def test_key_changes_with_pass_knobs(self):
        # Two pipelines differing only in a knob value must miss each
        # other: the key carries resolved parameters, not pass names.
        from repro.plan.passes import GradientBucketing
        cache = ResultCache("/tmp/unused")
        a = cache.key(cheap_cell(
            plan_passes=[GradientBucketing(cap_bytes=25e6)]))
        b = cache.key(cheap_cell(
            plan_passes=[GradientBucketing(cap_bytes=100e6)]))
        assert a != b

    def test_equivalent_pass_spellings_alias(self):
        # ...while different spellings of the same resolved pipeline
        # ("all" vs explicit default instances) share one cache entry.
        from repro.plan.passes import resolve_passes
        cache = ResultCache("/tmp/unused")
        assert cache.key(cheap_cell(plan_passes="all")) == \
            cache.key(cheap_cell(plan_passes=resolve_passes("all")))

    def test_pass_instances_survive_the_cell_round_trip(self):
        # Cells are picklable dicts: instances canonicalize to specs at
        # cell build and rebuild as instances at execution.
        from repro.plan.passes import GradientBucketing
        cell = cheap_cell(
            plan_passes=[GradientBucketing(cap_bytes=25e6)])
        spec = cell["train_kwargs"]["plan_passes"]
        assert spec == [{"pass": "bucketing",
                         "params": {"cap_bytes": 25e6}}]
        json.dumps(cell)  # still fully serializable

    def test_unresolvable_passes_disable_the_cell(self):
        assert cheap_cell(plan_passes="no-such-pass") is None

    def test_key_changes_with_model_source(self, tmp_path, monkeypatch):
        # Editing one byte of a cost model must miss every old entry.
        import shutil

        from repro.experiments import parallel as parallel_mod
        root = tmp_path / "repro"
        shutil.copytree(parallel_mod.MODEL_SOURCE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache = ResultCache("/tmp/unused")
        monkeypatch.setattr(parallel_mod, "MODEL_SOURCE_ROOT", root)
        base = cache.key(cheap_cell())
        assert cache.key(cheap_cell()) == base

        edited = tmp_path / "edited"
        shutil.copytree(root, edited)
        gpu = edited / "devices" / "gpu.py"
        source = gpu.read_bytes()
        gpu.write_bytes(source[:-1] + bytes([source[-1] ^ 1]))
        monkeypatch.setattr(parallel_mod, "MODEL_SOURCE_ROOT", edited)
        assert cache.key(cheap_cell()) != base

    def test_unserializable_strategy_disables_the_cell(self):
        strategy = ShardedDataParallel()
        strategy.scribble = object()  # not JSONable
        assert cheap_cell(strategy=strategy) is None

    def test_opt_profile_cells_key_on_pipeline(self):
        cache = ResultCache("/tmp/unused")
        a = opt_profile_cell("bert-large", "falconGPUs", 4, "none", None)
        b = opt_profile_cell("bert-large", "falconGPUs", 4, "all", "all")
        assert cache.key(a) != cache.key(b)


class TestCacheRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = cheap_cell()
        assert cache.load(cell) is None  # cold
        value = {"step_time": 1.5, "throughput": 2.0}
        cache.store(cell, value)
        assert cache.load(cell) == value
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = cheap_cell()
        cache.store(cell, {"step_time": 1.5})
        path = cache.path(cell)
        path.write_text(path.read_text()[:10])  # simulate a torn write
        assert cache.load(cell) is None

    def test_wrong_shape_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = cheap_cell()
        cache.path(cell).parent.mkdir(parents=True, exist_ok=True)
        cache.path(cell).write_text(json.dumps({"value": [1, 2]}))
        assert cache.load(cell) is None
        cache.path(cell).write_text(json.dumps({"nope": 1}))
        assert cache.load(cell) is None

    def test_run_cells_recomputes_after_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = cheap_cell()
        [first] = run_cells([cell], cache=cache)
        path = cache.path(cell)
        path.write_text("{ not json")
        [second] = run_cells([cell], cache=cache)
        assert second == first
        assert cache.stores == 2  # the recompute re-stored the entry


class TestRunCells:
    def test_warm_cache_serves_hits_without_executing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [cheap_cell(), cheap_cell(sim_steps=STEPS + 1)]
        first = run_cells(cells, cache=cache)
        warm = ResultCache(tmp_path)
        second = run_cells(cells, cache=warm)
        assert second == first
        assert warm.hits == 2 and warm.misses == 0 and warm.stores == 0

    def test_null_cache_never_reads_nor_writes(self, tmp_path):
        null = NullCache()
        cell = cheap_cell()
        run_cells([cell], cache=null)
        run_cells([cell], cache=null)
        assert null.hits == 0 and null.misses == 2
        # Nothing was persisted anywhere a real cache would find it.
        disk = ResultCache(tmp_path)
        assert disk.load(cell) is None

    def test_values_round_trip_through_records(self):
        record = run_configuration("resnet50", "localGPUs",
                                   sim_steps=STEPS)
        value = record_to_value(record)
        rebuilt = record_from_value(value)
        assert rebuilt.step_time == record.step_time
        assert rebuilt.throughput == record.throughput
        assert rebuilt.result is None


class TestRunConfigurationCache:
    def test_cached_run_matches_live_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = run_configuration("resnet50", "localGPUs",
                                 sim_steps=STEPS, cache=cache)
        cached = run_configuration("resnet50", "localGPUs",
                                   sim_steps=STEPS, cache=cache)
        assert cache.hits == 1
        assert cached.step_time == live.step_time
        assert cached.result is None and live.result is not None


class TestWarmOptStudy:
    def test_warm_fig16_opt_executes_zero_simulations(self, tmp_path,
                                                      monkeypatch):
        from repro.experiments import optimized_ddp_study
        from repro.experiments import parallel as parallel_mod

        cache = ResultCache(tmp_path)
        cold = optimized_ddp_study(sim_steps=STEPS, cache=cache)

        def boom(cell):
            raise AssertionError(
                f"warm-cache study executed a simulation: {cell}")

        monkeypatch.setattr(parallel_mod, "_execute_cell", boom)
        warm_cache = ResultCache(tmp_path)
        warm = optimized_ddp_study(sim_steps=STEPS, cache=warm_cache)
        assert warm_cache.misses == 0
        assert warm.profiles.keys() == cold.profiles.keys()
        for name, profile in cold.profiles.items():
            assert warm.profiles[name].step_time == profile.step_time
