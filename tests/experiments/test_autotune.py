"""Pass-parameter autotuning: candidates, frontier, tuning table."""

import json

import pytest

from repro.experiments.autotune import (
    TUNING_BASENAME,
    autotune_cell,
    candidate_pipelines,
    load_tuning_table,
    run_autotune,
    tuned_passes,
    write_tuning_table,
)
from repro.experiments.software_opts import VARIANTS
from repro.plan import evaluate_plan
from repro.plan.passes import (
    CollectiveChunkSizing,
    GradientBucketing,
    passes_to_spec,
)


def variant(name):
    return next(v for v in VARIANTS if v.name == name)


def small_candidates():
    """Default plus two cheap knob points — enough to tune a cell."""
    cands = candidate_pipelines(smoke=True)
    return [cands[0]] + cands[1:3]


class TestCandidates:
    def test_default_is_first_and_flagged(self):
        cands = candidate_pipelines()
        assert cands[0].label == "default"
        assert cands[0].is_default
        assert not any(c.is_default for c in cands[1:])
        assert passes_to_spec(cands[0].passes) == passes_to_spec("all")

    def test_specs_are_unique(self):
        cands = candidate_pipelines()
        specs = [json.dumps(passes_to_spec(c.passes), sort_keys=True)
                 for c in cands]
        assert len(specs) == len(set(specs))

    def test_smoke_grid_is_smaller(self):
        assert len(candidate_pipelines(smoke=True)) < \
            len(candidate_pipelines(smoke=False))

    def test_every_candidate_keeps_copy_fusion(self):
        for cand in candidate_pipelines():
            assert any(p.name == "copy-fusion" for p in cand.passes)

    def test_chunkless_candidates_exist(self):
        cands = candidate_pipelines()
        assert any(not any(p.name == "chunk-size" for p in c.passes)
                   for c in cands)


class TestCellTuning:
    def test_tuned_never_slower_than_default(self):
        cell = autotune_cell("localGPUs", variant("DDP-FP16"),
                             small_candidates(),
                             what_if_ceilings=False)
        assert cell["tuned_makespan_s"] <= cell["default_makespan_s"]
        assert [c["label"] for c in cell["candidates"]] == \
            [c.label for c in small_candidates()]
        assert "batch" not in cell

    def test_default_wins_ties(self):
        # Knob points that don't move the makespan must not displace
        # the default pipeline from the tuned slot.
        cell = autotune_cell("localGPUs", variant("DP-FP16"),
                             small_candidates(),
                             what_if_ceilings=False)
        by_label = {c["label"]: c["makespan_s"]
                    for c in cell["candidates"]}
        if by_label["default"] == cell["tuned_makespan_s"]:
            assert cell["tuned_candidate"] == "default"

    def test_candidate_makespans_match_the_executor(self):
        # Every smoke candidate's makespan is its own step plan's
        # timing: the fast path agrees with the event-loop executor at
        # 1e-9 on a fresh job per candidate.
        cands = candidate_pipelines(smoke=True)
        spec = variant("DDP-FP16")
        cell = autotune_cell("localGPUs", spec, cands,
                             what_if_ceilings=False)
        for cand, row in zip(cands, cell["candidates"]):
            job = spec.build_job("localGPUs", list(cand.passes))
            timing = evaluate_plan(job.step_plan, job._exec_ctx,
                                   assert_equivalence=True)
            assert row["label"] == cand.label
            assert row["makespan_s"] == timing.makespan

    def test_what_if_ceilings_bound_the_makespan(self):
        cell = autotune_cell("localGPUs", variant("DDP-FP16"),
                             small_candidates())
        for bucket, ceiling in cell["whatif_ceilings_s"].items():
            assert ceiling <= cell["tuned_makespan_s"] + 1e-12, bucket


class TestReportAndTable:
    @pytest.fixture(scope="class")
    def report(self):
        return run_autotune(
            smoke=True, configurations=("localGPUs",),
            variants=(variant("DDP-FP16"),), what_if_ceilings=False)

    def test_frontier_invariant(self, report):
        assert report["tuned_never_slower"]
        assert report["meta"]["cells"] == 1

    def test_table_round_trip(self, report, tmp_path):
        path = write_tuning_table(report, tmp_path)
        assert path.name == TUNING_BASENAME
        loaded = load_tuning_table(path)
        assert loaded["table"] == report["table"]

    def test_table_creates_missing_output_directory(self, report,
                                                    tmp_path):
        path = write_tuning_table(report, tmp_path / "fresh" / "dir")
        assert path.exists()

    def test_tuned_passes_rebuilds_instances(self, report):
        passes = tuned_passes(report, "bert-large", "localGPUs",
                              "DDP-FP16")
        assert passes is not None
        names = [p.name for p in passes]
        assert "copy-fusion" in names
        spec = report["table"]["bert-large|localGPUs|DDP-FP16"]["passes"]
        assert passes_to_spec(passes) == spec
        for p in passes:
            if isinstance(p, GradientBucketing):
                assert p.cap_bytes > 0
            if isinstance(p, CollectiveChunkSizing):
                assert p.target_seconds > 0

    def test_tuned_passes_missing_cell_is_none(self, report):
        assert tuned_passes(report, "bert-large", "falconGPUs",
                            "DP-FP32") is None

    def test_load_rejects_malformed_table(self, tmp_path):
        bogus = tmp_path / TUNING_BASENAME
        bogus.write_text(json.dumps({"cells": []}))
        with pytest.raises(ValueError, match="table"):
            load_tuning_table(bogus)
        with pytest.raises(FileNotFoundError):
            load_tuning_table(tmp_path / "absent.json")


class TestCLI:
    def test_autotune_smoke_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["autotune", "--smoke", "--no-what-if",
                   "--output", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / TUNING_BASENAME).exists()
        out = capsys.readouterr().out
        assert "Autotune frontier" in out
