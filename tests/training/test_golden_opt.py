"""Golden conformance for the optimizing plan passes.

``golden_fig16_opt.json`` pins the optimized-plan extension of Fig. 16:
bert-large DDP-FP16 on falconGPUs under each pass pipeline.  Two things
are frozen here:

- the **no-pass path is Fig. 16's DDP-FP16 cell**, bit for bit, and
  matches the legacy trained golden (``golden_fig16.json``) at 1e-9
  relative — the optimization layer must be a strict no-op when
  disabled;
- each **pipeline's profile** (step time, exposed sync, time per
  sample), recorded from traced training runs, reproduces at 1e-9
  relative from one step-plan evaluation, so a pass whose rewrite
  drifts — or stops closing the Falcon gap — fails loudly.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    optimized_ddp_study,
    software_optimization_study,
)
from repro.experiments.software_opts import OPT_PIPELINES, VARIANTS

_HERE = Path(__file__).parent
GOLDEN = json.loads((_HERE / "golden_fig16_opt.json").read_text())
LEGACY = json.loads((_HERE / "golden_fig16.json").read_text())

METRICS = ("step_time", "exposed_sync", "time_per_sample")


@pytest.fixture(scope="module")
def study():
    return optimized_ddp_study(sim_steps=GOLDEN["sim_steps"])


def test_golden_covers_every_pipeline():
    assert set(GOLDEN["values"]) == {name for name, _ in OPT_PIPELINES}


@pytest.mark.parametrize("pipeline",
                         [name for name, _ in OPT_PIPELINES])
def test_pipeline_profile_matches_golden(study, pipeline):
    expected = GOLDEN["values"][pipeline]
    profile = study.profiles[pipeline]
    for metric in METRICS:
        got = getattr(profile, metric)
        assert got == pytest.approx(expected[metric], rel=1e-9), \
            f"{pipeline} {metric}"


def test_no_pass_path_is_bit_exact_with_legacy_golden(study):
    # With no passes the row is Fig. 16's falconGPUs DDP-FP16 plan: the
    # pass plumbing must not perturb a single bit of its step time, and
    # that step time still matches the legacy trained capture.
    ddp16 = next(v for v in VARIANTS if v.name == "DDP-FP16")
    fig16 = software_optimization_study(configurations=("falconGPUs",),
                                        variants=[ddp16])
    per_sample = fig16["falconGPUs"]["DDP-FP16"]
    assert study.baseline.step_time == per_sample * ddp16.global_batch
    legacy = LEGACY["values"]["falconGPUs/DDP-FP16"]["step_time"]
    assert study.baseline.step_time == pytest.approx(legacy, rel=1e-9)


def test_passes_close_the_falcon_ddp_gap(study):
    # The PR's acceptance criterion: bucketing+overlap reduces the
    # exposed gradient-sync time, and the full pipeline (with the
    # topology-aware chunk sizer) cuts it dramatically.
    assert study.sync_reduction_pct("bucketing+overlap") > 1.0
    assert study.sync_reduction_pct("all") > 40.0
    assert study.step_reduction_pct("all") > 20.0
    # Optimization never makes the step slower.
    for name, _ in OPT_PIPELINES:
        assert study.profiles[name].step_time \
            <= study.baseline.step_time + 1e-12
