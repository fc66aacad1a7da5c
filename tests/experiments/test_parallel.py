"""Parallel memoized harness: cache keying, corruption, bypass, reuse."""

import dataclasses
import functools
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FleetSpec
from repro.experiments import run_configuration
from repro.experiments.parallel import (
    NullCache,
    ResultCache,
    _build_strategy,
    _strategy_spec,
    _execute_cell,
    experiment_cell,
    fleet_cell,
    profile_report_cell,
    record_from_value,
    record_to_value,
    MAX_DEFAULT_JOBS,
    run_cells,
    step_cell,
    worker_count,
)
from repro.experiments import parallel as parallel_mod
from repro.training import (
    STRATEGY_REGISTRY,
    DistributedDataParallel,
    ShardedDataParallel,
)

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
        with pytest.raises(ValueError, match="plan_passes"):
            cheap_cell(plan_passes="no-such-pass")

    @pytest.mark.parametrize(
        "source",
        ["devices/gpu.py", "telemetry/profile.py", "experiments/runner.py"],
        ids=["devices-gpu", "telemetry-profile", "experiments-runner"])
    def test_key_changes_with_model_source(self, tmp_path, monkeypatch,
                                           source):
        # Editing one byte of a cost model, or of the telemetry and
        # experiment code that turns a run into a cached value, must
        # miss every old entry.
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
        path = edited / source
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        monkeypatch.setattr(parallel_mod, "MODEL_SOURCE_ROOT", edited)
        assert cache.key(cheap_cell()) != base

    def test_model_source_digest_covers_every_package(self, tmp_path):
        # Every subpackage a cell executor reaches must feed the digest:
        # edit one file in each and the digest must move.  ``chaos`` and
        # ``elastic`` serve only uncached studies.
        import shutil

        from repro.experiments import parallel as parallel_mod
        left_out = {"chaos", "elastic"}
        root = tmp_path / "repro"
        shutil.copytree(parallel_mod.MODEL_SOURCE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        digest = parallel_mod.model_source_digest.__wrapped__  # unmemoized
        base = digest(root)
        packages = sorted(p.parent.name for p in root.glob("*/__init__.py"))
        assert "fleet" in packages
        for package in packages:
            path = root / package / "__init__.py"
            original = path.read_bytes()
            path.write_bytes(original + b"# edited\n")
            moved = digest(root) != base
            path.write_bytes(original)
            assert moved == (package not in left_out), package
        assert digest(root) == base

    def test_unserializable_strategy_disables_the_cell(self):
        strategy = ShardedDataParallel()
        strategy.scribble = object()  # not JSONable
        with pytest.raises(ValueError, match="strategy 'sharded'"):
            cheap_cell(strategy=strategy)

    @pytest.mark.parametrize("build", [experiment_cell, step_cell],
                             ids=["experiment", "step"])
    def test_bad_arguments_raise_naming_them(self, build):
        # A cell builder never hands run_cells a None: each argument a
        # cell cannot hold raises, naming it.
        with pytest.raises(ValueError, match="plan_passes"):
            build("resnet50", "localGPUs", plan_passes="voodoo")
        with pytest.raises(ValueError, match="strategy object"):
            build("resnet50", "localGPUs", strategy=object())
        with pytest.raises(ValueError, match="training kwargs"):
            build("resnet50", "localGPUs", transport_penalty={1: object()})


#: A non-default constructor knob for every registry strategy.
STRATEGY_KNOBS = {
    "dp": {"master_rank": 3},
    "ddp": {"bucket_bytes": 50e6},
    "sharded": {"bucket_bytes": 10e6},
    "pipeline": {"microbatches": 4},
    "tp": {"layer_groups": 2},
    "2d": {"tp_degree": 4, "layer_groups": 2},
    "fsdp": {"layer_groups": 8},
}


class TestStrategySpec:
    def test_knobs_cover_the_registry(self):
        assert set(STRATEGY_KNOBS) == set(STRATEGY_REGISTRY)

    @pytest.mark.parametrize("name", list(STRATEGY_REGISTRY))
    @pytest.mark.parametrize("knobs", [False, True])
    def test_spec_round_trips_every_registry_strategy(self, name, knobs):
        kwargs = STRATEGY_KNOBS[name] if knobs else {}
        strategy = STRATEGY_REGISTRY[name](**kwargs)
        spec = _strategy_spec(strategy)
        assert spec["name"] == name
        json.dumps(spec)
        rebuilt = _build_strategy(spec)
        assert type(rebuilt) is STRATEGY_REGISTRY[name]
        assert vars(rebuilt) == vars(strategy)
        for knob, value in kwargs.items():
            assert getattr(rebuilt, knob) == value

    def test_unregistered_subclass_has_no_spec(self):
        class CustomDDP(DistributedDataParallel):
            pass

        with pytest.raises(ValueError, match="CustomDDP"):
            _strategy_spec(CustomDDP())
        with pytest.raises(ValueError, match="CustomDDP"):
            cheap_cell(strategy=CustomDDP())


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

    def test_concurrent_stores_of_one_cell_both_land(self, tmp_path):
        # Two processes finishing the same cell store it at once; each
        # must write its own temporary file, or the second rename finds
        # the first one's file already gone.
        cache = ResultCache(tmp_path)
        cell = cheap_cell()
        value = {"rows": [{"x": float(i), "name": f"r{i}"}
                          for i in range(20000)]}
        for _round in range(5):
            barrier = threading.Barrier(2)
            errors: list = []

            def store():
                barrier.wait(timeout=30)
                try:
                    cache.store(cell, value)
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=store) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert ResultCache(tmp_path).load(cell) == value
            assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_store_leaves_no_temporary_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.store(cheap_cell(), {"live": object()})
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("misses", [1, 2, 3, 8, 50])
    @pytest.mark.parametrize("usable", [1, 2, 16])
    def test_default_workers_never_exceed_the_misses(self, monkeypatch,
                                                     usable, misses):
        monkeypatch.setattr(parallel_mod.os, "sched_getaffinity",
                            lambda pid: set(range(usable)), raising=False)
        workers = worker_count(None, misses)
        assert workers == min(usable, MAX_DEFAULT_JOBS, misses)
        assert 1 <= workers <= misses
        assert worker_count(1, misses) == 1
        assert worker_count(4, misses) == min(4, misses)

    @pytest.mark.parametrize("jobs", [None, 4])
    def test_a_single_miss_runs_in_process_with_no_pool(self, tmp_path,
                                                        monkeypatch, jobs):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("run_cells started a pool for one miss")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        cache = ResultCache(tmp_path)
        cells = [cheap_cell(), cheap_cell(sim_steps=STEPS + 1)]
        run_cells(cells[:1], cache=cache)
        values = run_cells(cells, jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses) == (1, 2)
        assert values == run_cells(cells, jobs=1)

    def test_values_round_trip_through_records(self):
        record = run_configuration("resnet50", "localGPUs",
                                   sim_steps=STEPS)
        value = record_to_value(record)
        rebuilt = record_from_value(value)
        assert rebuilt.step_time == record.step_time
        assert rebuilt.throughput == record.throughput
        assert rebuilt.result is None


class TestWarmOptStudy:
    def test_cold_fig16_opt_trains_nothing(self, tmp_path, monkeypatch):
        from repro.experiments import (
            optimized_ddp_study,
            software_optimization_study,
        )
        from repro.experiments.software_opts import VARIANTS
        from repro.training import TrainingJob

        def boom(self):
            raise AssertionError("fig16-opt started a training run")

        monkeypatch.setattr(TrainingJob, "start", boom)
        cache = ResultCache(tmp_path)
        study = optimized_ddp_study(cache=cache)
        assert cache.misses == len(study.profiles) == 3
        # The no-pass row is Fig. 16's falconGPUs DDP-FP16 cell.
        fig16_cache = ResultCache(tmp_path)
        software_optimization_study(
            configurations=("falconGPUs",),
            variants=[v for v in VARIANTS if v.name == "DDP-FP16"],
            cache=fig16_cache)
        assert (fig16_cache.hits, fig16_cache.misses) == (1, 0)

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
            assert warm.profiles[name].exposed_sync == profile.exposed_sync


def small_profile_cell(**overrides):
    kwargs = {"sim_steps": 4}
    kwargs.update(overrides)
    return profile_report_cell("mobilenetv2", "localGPUs", "ddp", **kwargs)


@functools.lru_cache(maxsize=None)
def _profile_value_json() -> str:
    return json.dumps(_execute_cell(small_profile_cell()))


def _shuffled(value, rng):
    """``value`` with every dict's keys in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng) for k, v in items}
    if isinstance(value, list):
        return [_shuffled(v, rng) for v in value]
    return value


class TestProfileCell:
    @pytest.mark.parametrize("field, override", [
        ("benchmark", {"benchmark": "resnet50"}),
        ("configuration", {"configuration": "falconGPUs"}),
        ("strategy", {"strategy": "sharded"}),
        ("plan_passes", {"plan_passes": "all"}),
        ("sim_steps", {"sim_steps": 5}),
        ("global_batch", {"global_batch": 64}),
        ("accumulation_steps", {"accumulation_steps": 2}),
        ("what_if", {"evaluate_what_ifs": False}),
    ])
    def test_key_changes_with_each_field(self, field, override):
        cache = ResultCache("/tmp/unused")
        base = dict(benchmark="mobilenetv2", configuration="localGPUs",
                    strategy="ddp", sim_steps=4)
        a = profile_report_cell(**base)
        b = profile_report_cell(**{**base, **override})
        assert a[field] != b[field]
        assert cache.key(a) != cache.key(b)

    def test_key_holds_the_resolved_passes(self):
        from repro.plan.passes import GradientBucketing, resolve_passes
        cache = ResultCache("/tmp/unused")
        assert cache.key(small_profile_cell(plan_passes="all")) == \
            cache.key(small_profile_cell(
                plan_passes=resolve_passes("all")))
        assert cache.key(small_profile_cell(
            plan_passes=[GradientBucketing(cap_bytes=25e6)])) != \
            cache.key(small_profile_cell(
                plan_passes=[GradientBucketing(cap_bytes=100e6)]))

    def test_value_is_the_report_json_with_the_resolved_passes(self):
        from repro.experiments import profile_cell
        cell = small_profile_cell(plan_passes="bucketing",
                                  evaluate_what_ifs=False)
        value = _execute_cell(cell)
        live = profile_cell("mobilenetv2", "localGPUs", "ddp",
                            sim_steps=4, plan_passes="bucketing",
                            evaluate_what_ifs=False).to_json()
        assert value["meta"]["plan_passes"] == cell["plan_passes"]
        live["meta"]["plan_passes"] = cell["plan_passes"]
        assert value == live
        json.dumps(value)  # storable as is

    def test_warm_run_cells_executes_nothing(self, tmp_path, monkeypatch):
        from repro.core import ComposableSystem
        from repro.experiments import profiling

        cell = small_profile_cell(evaluate_what_ifs=False)
        [cold] = run_cells([cell], cache=ResultCache(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("warm profile cell ran the profiler")

        monkeypatch.setattr(profiling, "profile_cell", boom)
        monkeypatch.setattr(ComposableSystem, "job", boom)
        warm_cache = ResultCache(tmp_path)
        [warm] = run_cells([cell], cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (1, 0)
        assert warm == cold

    @settings(max_examples=25, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           sort_keys=st.booleans())
    def test_property_rendering_ignores_key_order(self, rng, sort_keys):
        # The cache stores values with sort_keys; the renderer must
        # print the live report's bytes from any key order.
        from repro.telemetry import render_report_text
        value = json.loads(_profile_value_json())
        expected = render_report_text(value)
        reordered = _shuffled(value, rng)
        if sort_keys:
            reordered = json.loads(json.dumps(reordered, sort_keys=True))
        assert render_report_text(reordered) == expected


#: A fleet small enough to simulate in a fraction of a second.
TINY_SPEC = FleetSpec(name="tiny", chassis=2, hosts=1, gpus_per_chassis=2)


def tiny_fleet(**overrides):
    return {"spec": TINY_SPEC, "jobs": 3, "mean_interarrival": 1.0,
            "sim_steps": (2, 2), **overrides}


def _spec(**fields):
    return dataclasses.replace(TINY_SPEC, **fields)


class TestFleetCell:
    @pytest.mark.parametrize("override", [
        {"spec": _spec(chassis=3)},
        {"spec": _spec(hosts=2)},
        {"spec": _spec(gpus_per_chassis=4)},
        {"spec": _spec(oversubscription=2.0)},
        {"spec": _spec(name="other")},
        {"jobs": 4},
        {"seed": 1},
        {"mean_interarrival": 2.0},
        {"sim_steps": (2, 3)},
        {"smoke": True},
    ], ids=["chassis", "hosts", "gpus_per_chassis", "oversubscription",
            "name", "jobs", "seed", "mean_interarrival", "sim_steps",
            "smoke"])
    def test_key_changes_with_each_field(self, override):
        cache = ResultCache("/tmp/unused")
        a = fleet_cell(**tiny_fleet())
        b = fleet_cell(**tiny_fleet(**override))
        assert a != b
        assert cache.key(a) != cache.key(b)

    @pytest.mark.parametrize("smoke", [True, False])
    def test_defaults_alias_their_spelled_out_values(self, smoke):
        from repro.core import FLEET_FOUR_CHASSIS
        from repro.experiments import SMOKE_SPEC
        cache = ResultCache("/tmp/unused")
        spelled = (dict(spec=SMOKE_SPEC, jobs=8, mean_interarrival=1,
                        sim_steps=[2, 3]) if smoke else
                   dict(spec=FLEET_FOUR_CHASSIS, jobs=24,
                        mean_interarrival=20, sim_steps=[2, 5]))
        assert cache.key(fleet_cell(smoke=smoke)) == \
            cache.key(fleet_cell(smoke=smoke, **spelled))

    def test_value_is_the_study_report(self):
        from repro.experiments import fleet_study
        value = _execute_cell(fleet_cell(seed=3, **tiny_fleet()))
        fresh = fleet_study(seed=3, **tiny_fleet())
        assert json.loads(json.dumps(value)) == fresh

    def test_warm_run_cells_never_schedules(self, tmp_path, monkeypatch):
        from repro.fleet import ClusterScheduler

        cell = fleet_cell(**tiny_fleet())
        [cold] = run_cells([cell], cache=ResultCache(tmp_path))

        def boom(*args, **kwargs):
            raise AssertionError("warm fleet cell ran the scheduler")

        monkeypatch.setattr(ClusterScheduler, "run", boom)
        warm_cache = ResultCache(tmp_path)
        [warm] = run_cells([cell], cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (1, 0)
        assert warm == json.loads(json.dumps(cold))
