"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_train_validates_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "alexnet"])

    def test_train_validates_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "resnet50", "--config", "cloud"])


class TestStaticCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "bert-large" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "PyTorch 1.7.1" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "25.6M" in out
        assert "BERT-L" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "falconNVMe" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "CPU - Disk" in capsys.readouterr().out


class TestSimulationCommands:
    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "NVLink" in out
        assert "72.3" in out

    def test_train_and_export(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        assert main(["train", "resnet50", "--config", "falconGPUs",
                     "--steps", "5", "--export", str(target)]) == 0
        out = capsys.readouterr().out
        assert "step time" in out
        data = json.loads(target.read_text())
        assert data[0]["configuration"] == "falconGPUs"

    def test_recommend(self, capsys):
        assert main(["recommend", "resnet50", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "->" in out

    def test_recommend_reads_the_fig11_cells(self, capsys, monkeypatch,
                                             tmp_path):
        # Once the Fig. 11 sweep has filled the default cache,
        # `recommend` at its default --steps trains nothing and prints
        # what a cold run prints.
        from repro.experiments import ResultCache, gpu_config_sweep
        from repro.experiments.parallel import CACHE_DIR_ENV
        from repro.training.loop import TrainingJob

        assert main(["recommend", "bert-large"]) == 0
        cold = capsys.readouterr().out

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "fig11"))
        gpu_config_sweep(benchmarks=["bert-large"], sim_steps=8,
                         cache=ResultCache())

        def no_training(self):
            raise AssertionError("recommend trained a job")

        monkeypatch.setattr(TrainingJob, "start", no_training)
        assert main(["recommend", "bert-large"]) == 0
        assert capsys.readouterr().out == cold
        assert "recommended = localGPUs" in cold


class TestHelpSmoke:
    def test_every_subcommand_help_exits_zero(self, capsys):
        # Introspect the registered subcommands so new ones are covered
        # automatically.
        parser = build_parser()
        sub_action = next(a for a in parser._actions
                          if hasattr(a, "choices") and a.choices)
        names = list(sub_action.choices)
        assert "fault-tolerance" in names
        for name in names:
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args([name, "--help"])
            assert exc_info.value.code == 0, name
            assert capsys.readouterr().out  # help text was printed

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--help"])
        assert exc_info.value.code == 0


def test_main_builds_only_the_invoked_subcommand(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    for argv in (["list"], ["table1"]):
        built.clear()
        assert main(argv) == 0
        assert built == argv


class TestCommandTable:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_built_alone_matches_the_full_parser(
            self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")

        def help_of(parser):
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args([command, "--help"])
            assert exc_info.value.code == 0
            return capsys.readouterr().out

        assert help_of(build_parser(command)) == help_of(build_parser())

    def test_list_names_every_subcommand(self, capsys):
        assert main(["list"]) == 0
        named = capsys.readouterr().out.split()
        assert [c for c in COMMANDS if c not in named] == []


@pytest.mark.chaos
class TestFaultToleranceCommand:
    def test_fault_tolerance_runs(self, capsys):
        assert main(["fault-tolerance", "--benchmark", "resnet50",
                     "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "gpu_hotplug" in out

    def test_fault_tolerance_validates_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault-tolerance", "--config",
                                       "cloudGPUs"])


class TestTraceCommand:
    def test_trace_smoke_local(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "mobilenetv2", "--backend", "local",
                     "--smoke", "--trace-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "per-step attribution" in out
        assert "trace OK" in out
        trace = json.loads(out_path.read_text())
        assert trace["traceEvents"]

    def test_trace_falcon_prints_fig11_split(self, capsys):
        assert main(["trace", "mobilenetv2", "--backend", "falcon",
                     "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 11 split" in out
        assert "comm" in out and "contention" in out
        assert "reconstructed total" in out

    def test_trace_validates_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "resnet50", "--backend", "cloud"])

    def test_train_trace_out(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        assert main(["train", "mobilenetv2", "--steps", "4",
                     "--trace-out", str(out_path)]) == 0
        assert "wrote trace" in capsys.readouterr().out
        from repro.telemetry import validate_chrome_trace
        assert validate_chrome_trace(
            json.loads(out_path.read_text())) == []


class TestPlanCommand:
    def test_prints_the_compiled_program(self, capsys):
        assert main(["plan", "bert-large"]) == 0
        out = capsys.readouterr().out
        assert "plan ddp-step  world=8" in out
        assert "rank 0:" in out and "rank 7:" in out
        assert "grad-bucket" in out

    def test_validate_clean_plan_exits_zero(self, capsys):
        assert main(["plan", "bert-large", "--strategy", "pipeline",
                     "--validate"]) == 0
        assert "plan OK" in capsys.readouterr().out

    def test_diff_lists_strategy_divergence(self, capsys):
        assert main(["plan", "bert-large", "--strategy", "ddp",
                     "--diff", "sharded"]) == 0
        out = capsys.readouterr().out
        assert "'allreduce' -> 'reduce_scatter'" in out
        assert "allgather-wait" in out

    def test_validates_strategy_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "bert-large", "--strategy", "3d-sequence"])

    def test_opt_prints_a_report_per_pass(self, capsys):
        assert main(["plan", "bert-large", "--config", "falconGPUs",
                     "--opt", "bucketing,overlap"]) == 0
        out = capsys.readouterr().out
        assert "pass bucketing: " in out
        assert "pass overlap: " in out
        assert "fused=" in out  # fusion visible in the listing

    def test_opt_all_validates_clean(self, capsys):
        assert main(["plan", "bert-large", "--config", "falconGPUs",
                     "--opt", "all", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "plan OK" in out
        assert "chunk=" in out  # chunk-size annotations in the listing

    def test_unknown_opt_pass_exits_2(self, capsys):
        assert main(["plan", "bert-large", "--opt", "voodoo"]) == 2
        assert "unknown plan pass 'voodoo'" in capsys.readouterr().out

    def test_validate_broken_plan_exits_1(self, capsys, monkeypatch):
        # A compiler emitting a rank-asymmetric plan must be caught by
        # --validate with a nonzero exit, not silently printed.
        from repro.plan import PlanBuilder
        from repro.training import (
            DistributedDataParallel,
            clear_plan_compile_cache,
        )

        def broken(self, ctx):
            b = PlanBuilder("broken", world_size=len(ctx.gpus))
            b.collective(0, "grad", "allreduce", 1e6)  # rank 0 only
            return b.build()

        monkeypatch.setattr(DistributedDataParallel, "compile_step",
                            broken)
        # The process-wide compile memo would otherwise serve a valid
        # plan compiled by an earlier test for the same cell — and the
        # broken plan compiled here must not leak to later tests.
        clear_plan_compile_cache()
        try:
            assert main(["plan", "bert-large", "--validate"]) == 1
            assert "plan problem" in capsys.readouterr().out
        finally:
            clear_plan_compile_cache()

    def test_diff_reports_differing_op_counts(self, capsys):
        # The optimized plan has fewer ops than the unoptimized one of
        # the same strategy; the diff header carries both counts.
        assert main(["plan", "bert-large", "--config", "falconGPUs",
                     "--strategy", "ddp", "--diff", "dp"]) == 0
        out = capsys.readouterr().out
        assert "diff 'ddp-step'" in out and "'dp-step'" in out
        import re
        counts = re.search(r"diff 'ddp-step' \((\d+) ops\) -> "
                           r"'dp-step' \((\d+) ops\)", out)
        assert counts and counts.group(1) != counts.group(2)


class TestFig16OptCommand:
    def test_fig16_opt_smoke(self, capsys, tmp_path):
        trace = tmp_path / "opt.json"
        assert main(["fig16-opt", "--steps", "4",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "optimizing plan passes" in out
        assert "bucketing+overlap" in out
        assert "wrote optimized-run trace" in out
        trace_json = json.loads(trace.read_text())
        assert trace_json["traceEvents"]


class TestProfileCommand:
    def test_profile_text_report(self, capsys):
        assert main(["profile", "mobilenetv2", "--backend", "local",
                     "--steps", "4", "--no-what-if"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck report:" in out
        assert "verdict:" in out
        assert "critical-path attribution" in out
        assert "reconciliation" in out

    def test_profile_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "profile.json"
        assert main(["profile", "mobilenetv2", "--backend", "local",
                     "--steps", "4", "--no-what-if", "--format",
                     "json", "--output", str(out_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"].endswith("-bound") or \
            payload["label"].startswith("balanced")
        assert payload["run"]["reconciliation_rel_err"] <= 1e-9
        assert json.loads(out_path.read_text()) == payload

    def test_profile_with_what_ifs(self, capsys):
        assert main(["profile", "mobilenetv2", "--backend", "local",
                     "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "what-if speedup ceilings" in out
        assert "relaxation" in out or "fastpath" in out

    def test_profile_unknown_benchmark_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["profile", "alexnet"])
        assert err.value.code == 2

    def test_profile_unknown_opt_pass_exits_2(self, capsys):
        assert main(["profile", "mobilenetv2", "--backend", "local",
                     "--opt", "warpdrive"]) == 2
        assert "unknown" in capsys.readouterr().out.lower()


#: A cheap ``repro profile`` cell (no what-if re-evaluations).
PROFILE_ARGS = ["profile", "mobilenetv2", "--backend", "local", "--steps",
                "4", "--no-what-if"]


@pytest.fixture
def forbid_profiling(monkeypatch):
    """Call it to make any later profiler run or job build fail."""
    from repro.core import ComposableSystem
    from repro.experiments import profiling

    def boom(*args, **kwargs):
        raise AssertionError("a warm profile run ran the profiler")

    def forbid():
        monkeypatch.setattr(profiling, "profile_cell", boom)
        monkeypatch.setattr(ComposableSystem, "job", boom)

    return forbid


def cache_entries(root):
    return sorted(root.iterdir()) if root.exists() else []


class TestProfileCache:
    def test_parser_takes_the_cache_flags_but_not_jobs(self):
        args = build_parser().parse_args(
            [*PROFILE_ARGS, "--no-cache", "--cache-dir", "d"])
        assert args.no_cache and args.cache_dir == "d"
        with pytest.raises(SystemExit):
            build_parser().parse_args([*PROFILE_ARGS, "--jobs", "2"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_warm_run_prints_the_cold_bytes_without_profiling(
            self, capsys, tmp_path, forbid_profiling, fmt):
        report = tmp_path / "report.json"
        argv = [*PROFILE_ARGS, "--format", fmt, "--output", str(report)]
        cached = [*argv, "--cache-dir", str(tmp_path / "cache")]

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out, report.read_bytes()

        uncached = run([*argv, "--no-cache"])
        assert run(cached) == uncached  # cold: stores the value it prints
        assert len(cache_entries(tmp_path / "cache")) == 1
        forbid_profiling()
        assert run(cached) == uncached  # warm: prints the stored value

    def test_default_cache_is_the_environment_directory(
            self, capsys, isolated_result_cache, forbid_profiling):
        # Without --cache-dir the cell lands in $REPRO_CACHE_DIR (the
        # suite points it at a per-test directory).
        assert main(PROFILE_ARGS) == 0
        cold = capsys.readouterr().out
        assert len(cache_entries(isolated_result_cache)) == 1
        forbid_profiling()
        assert main(PROFILE_ARGS) == 0
        assert capsys.readouterr().out == cold

    def test_corrupt_entry_is_recomputed(self, capsys, tmp_path):
        argv = [*PROFILE_ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        [entry] = cache_entries(tmp_path / "cache")
        entry.write_text(entry.read_text()[:100])  # a torn write
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        json.loads(entry.read_text())  # re-stored whole

    def test_no_cache_reads_and_writes_nothing(self, capsys, tmp_path,
                                               isolated_result_cache):
        argv = [*PROFILE_ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        [entry] = cache_entries(tmp_path / "cache")
        stored = json.loads(entry.read_text())
        stored["value"]["label"] = "tampered-bound"
        entry.write_text(json.dumps(stored))
        before = entry.read_bytes()

        assert main([*argv, "--no-cache"]) == 0
        assert capsys.readouterr().out == cold  # the entry was not read
        assert cache_entries(tmp_path / "cache") == [entry]
        assert entry.read_bytes() == before  # ...nor rewritten
        assert cache_entries(isolated_result_cache) == []

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_failing_cell_exits_2_and_stores_nothing(
            self, capsys, tmp_path, monkeypatch, error):
        from repro.experiments import profiling

        def fail(*args, **kwargs):
            raise error("needs 35.0 GB > 17.2 GB device memory")

        monkeypatch.setattr(profiling, "profile_cell", fail)
        cache = tmp_path / "cache"
        assert main([*PROFILE_ARGS, "--cache-dir", str(cache)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: needs 35.0 GB")
        assert "hint:" in out
        assert cache_entries(cache) == []

    def test_pass_spellings_share_an_entry_but_not_meta(
            self, capsys, tmp_path, forbid_profiling):
        cache = tmp_path / "cache"
        argv = [*PROFILE_ARGS, "--format", "json", "--cache-dir", str(cache)]
        assert main([*argv, "--opt", "all"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["meta"]["plan_passes"] == "all"

        forbid_profiling()
        spelled = "bucketing,overlap,copy-fusion,chunk-size"
        assert main([*argv, "--opt", spelled]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["meta"]["plan_passes"] == spelled
        warm["meta"]["plan_passes"] = "all"
        assert warm == cold
        assert main([*argv, "--opt", "all"]) == 0
        assert json.loads(capsys.readouterr().out) == cold
        assert len(cache_entries(cache)) == 1


#: The CI smoke fleet: a queueing trace on two chassis (~0.1 s).
FLEET_ARGS = ["fleet", "--smoke"]


@pytest.fixture
def forbid_scheduling(monkeypatch):
    """Call it to make any later fleet simulation fail."""
    from repro.fleet import ClusterScheduler

    def boom(*args, **kwargs):
        raise AssertionError("a warm fleet run ran the scheduler")

    def forbid():
        monkeypatch.setattr(ClusterScheduler, "run", boom)

    return forbid


class TestFleetCache:
    def test_parser_takes_the_cache_flags_but_not_jobs(self):
        args = build_parser().parse_args(
            [*FLEET_ARGS, "--no-cache", "--cache-dir", "d"])
        assert args.no_cache and args.cache_dir == "d"
        with pytest.raises(SystemExit):
            build_parser().parse_args([*FLEET_ARGS, "--jobs", "2"])

    def test_warm_run_prints_the_cold_bytes_without_simulating(
            self, capsys, tmp_path, forbid_scheduling):
        study = tmp_path / "fleet.json"
        argv = [*FLEET_ARGS, "--output", str(study)]
        cached = [*argv, "--cache-dir", str(tmp_path / "cache")]

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out, study.read_bytes()

        uncached = run([*argv, "--no-cache"])
        assert run(cached) == uncached  # cold: stores the value it prints
        assert len(cache_entries(tmp_path / "cache")) == 1
        forbid_scheduling()
        assert run(cached) == uncached  # warm: prints the stored value

    def test_default_cache_is_the_environment_directory(
            self, capsys, isolated_result_cache, forbid_scheduling):
        assert main(FLEET_ARGS) == 0
        cold = capsys.readouterr().out
        assert len(cache_entries(isolated_result_cache)) == 1
        forbid_scheduling()
        assert main(FLEET_ARGS) == 0
        assert capsys.readouterr().out == cold

    def test_smoke_defaults_share_an_entry_with_their_values(
            self, capsys, tmp_path, forbid_scheduling):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main([*FLEET_ARGS, *cache]) == 0
        cold = capsys.readouterr().out
        forbid_scheduling()
        assert main([*FLEET_ARGS, "--chassis", "2", "--hosts", "2",
                     "--gpus-per-chassis", "4", "--oversub", "1",
                     "--trace-jobs", "8", "--interarrival", "1",
                     *cache]) == 0
        assert capsys.readouterr().out == cold
        assert len(cache_entries(tmp_path / "cache")) == 1

    def test_smoke_exit_code_comes_from_the_value(self, capsys, tmp_path):
        argv = [*FLEET_ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        [entry] = cache_entries(tmp_path / "cache")
        stored = json.loads(entry.read_text())
        stored["value"]["checks"].update(queueing_observed=False, ok=False)
        entry.write_text(json.dumps(stored))
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "invariant violated: queueing_observed" in out
        assert out.endswith("smoke FAILED\n")

    def test_corrupt_entry_is_recomputed(self, capsys, tmp_path):
        argv = [*FLEET_ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        [entry] = cache_entries(tmp_path / "cache")
        entry.write_text(entry.read_text()[:100])  # a torn write
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        json.loads(entry.read_text())  # re-stored whole

    def test_no_cache_reads_and_writes_nothing(self, capsys, tmp_path,
                                               isolated_result_cache):
        argv = [*FLEET_ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        [entry] = cache_entries(tmp_path / "cache")
        stored = json.loads(entry.read_text())
        stored["value"]["busiest_spine_link"] = "tampered"
        entry.write_text(json.dumps(stored))
        before = entry.read_bytes()

        assert main([*argv, "--no-cache"]) == 0
        assert capsys.readouterr().out == cold  # the entry was not read
        assert cache_entries(tmp_path / "cache") == [entry]
        assert entry.read_bytes() == before  # ...nor rewritten
        assert cache_entries(isolated_result_cache) == []

    @pytest.mark.parametrize("bad", [
        ["--chassis", "0"], ["--hosts", "0"], ["--gpus-per-chassis", "0"],
        ["--chassis", "-1"], ["--oversub", "0.5"], ["--interarrival", "0"],
        ["--trace-jobs", "0"],
    ], ids=lambda bad: " ".join(bad))
    def test_bad_argument_exits_2_and_stores_nothing(
            self, capsys, tmp_path, isolated_result_cache, bad):
        cache = tmp_path / "cache"
        assert main(["fleet", *bad, "--cache-dir", str(cache)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
        assert cache_entries(cache) == []
        assert cache_entries(isolated_result_cache) == []


class TestProfileFlags:
    def test_fig16_parser_accepts_profile(self):
        args = build_parser().parse_args(["fig16", "--profile"])
        assert args.profile

    def test_fig16_opt_parser_accepts_profile(self):
        args = build_parser().parse_args(["fig16-opt", "--profile"])
        assert args.profile

    def test_trace_timeline_width(self, capsys):
        assert main(["trace", "mobilenetv2", "--backend", "local",
                     "--smoke", "--timeline-width", "24"]) == 0
        assert "trace OK" in capsys.readouterr().out


def test_elasticity_output_is_key_sorted_json(capsys, tmp_path):
    out_path = tmp_path / "elasticity.json"
    assert main(["elasticity", "--smoke", "--output", str(out_path)]) == 0
    assert f"wrote {out_path}\n" in capsys.readouterr().out
    text = out_path.read_text()
    study = json.loads(text)
    assert study["acceptance"]["completed"]
    assert text == json.dumps(study, indent=2, sort_keys=True) + "\n"


#: The positional arguments each command needs to parse.
_POSITIONALS = {"recommend": ["bert-large"], "train": ["resnet50"],
                "trace": ["resnet50"], "profile": ["bert-large"],
                "plan": ["bert-large"]}


def _takes_steps(command: str) -> bool:
    args = build_parser(command).parse_args(
        [command, *_POSITIONALS.get(command, [])])
    return hasattr(args, "steps")


def _takes_jobs(command: str) -> bool:
    args = build_parser(command).parse_args(
        [command, *_POSITIONALS.get(command, [])])
    return hasattr(args, "jobs")


class TestBadArguments:
    """Bad arguments print one ``error:`` line and exit 2, never a
    traceback."""

    @pytest.mark.parametrize("steps", ["0", "-2", "four"])
    @pytest.mark.parametrize(
        "command", [c for c in COMMANDS if _takes_steps(c)])
    def test_steps_must_be_a_positive_integer(self, capsys, command,
                                              steps):
        with pytest.raises(SystemExit) as exc_info:
            main([command, *_POSITIONALS.get(command, []),
                  "--steps", steps])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --steps: {steps!r} is not a positive integer" \
            in err

    def test_every_steps_command_is_checked(self):
        takes = {c for c in COMMANDS if _takes_steps(c)}
        assert {"fig9", "sharing", "scaleout", "train", "trace",
                "fault-tolerance", "elasticity", "recommend",
                "matrix"} <= takes

    @pytest.mark.parametrize("batch", ["0", "-8", "many"])
    @pytest.mark.parametrize("command", ["plan", "profile"])
    def test_global_batch_must_be_a_positive_integer(self, capsys, command,
                                                     batch):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "resnet50", "--global-batch", batch])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --global-batch: {batch!r} is not a positive " \
            "integer" in err

    def test_training_config_rejects_a_global_batch_below_1(self):
        from repro.training import TrainingConfig
        from repro.workloads import get_benchmark
        with pytest.raises(ValueError, match="global_batch"):
            TrainingConfig(get_benchmark("resnet50"), global_batch=0)

    @pytest.mark.parametrize("interval", ["-1", "two"])
    def test_fault_tolerance_interval_must_be_a_non_negative_integer(
            self, capsys, interval):
        with pytest.raises(SystemExit) as exc_info:
            main(["fault-tolerance", "--interval", interval])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --interval: {interval!r} is not a non-negative " \
            "integer" in err

    def test_fault_tolerance_interval_0_disables_checkpoints(self):
        args = build_parser().parse_args(["fault-tolerance", "--interval",
                                          "0"])
        assert args.interval == 0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "command", [c for c in COMMANDS if _takes_jobs(c)])
    def test_jobs_must_be_a_positive_integer(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc_info:
            main([command, *_POSITIONALS.get(command, []), "--jobs", jobs])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --jobs: {jobs!r} is not a positive integer" in err

    def test_every_jobs_command_is_checked(self):
        takes = {c for c in COMMANDS if _takes_jobs(c)}
        assert {"fig16", "fig16-opt", "fig10", "matrix"} <= takes

    def test_matrix_rejects_an_unknown_strategy(self, capsys):
        assert main(["matrix", "--models", "resnet50",
                     "--strategies", "ddp,foo"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: unknown strategy(ies) foo; one of ")
        assert out.count("\n") == 1
