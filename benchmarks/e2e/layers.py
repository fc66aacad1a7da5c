"""The simulator layers the traced iteration reports, and how.

Each layer is a package of ``repro`` and is measured at its public entry
points.  Every layer reports ``<layer>.calls`` and ``<layer>.self_s``;
some add a count or ratio taken where the work happens.  ``command`` is
the CLI entry point itself, so its self time is the time spent outside
every other layer.
"""

from __future__ import annotations

from tracer import Target, Tracer

__all__ = ["LAYERS", "targets", "metrics", "unit"]

#: Reported layers, in report order.
LAYERS = (
    "sim", "fabric", "plan.fastpath", "plan.batched", "plan.passes",
    "telemetry", "training.job_init", "training.compile", "experiments",
    "experiments.cache.load", "experiments.cache.store", "devices",
    "fleet", "command",
)

TELEMETRY_CALLS = ("profile_plan", "profile_run", "what_if",
                   "critical_path")


def _rerated(tracer: Tracer, touched: int) -> None:
    tracer.add("fabric.rerated", touched)


def _engine(tracer: Tracer, timing) -> None:
    tracer.add("plan.evaluate.calls")
    if timing.mode == "executor":
        tracer.add("plan.evaluate.executor")


def _lanes(tracer: Tracer, result) -> None:
    tracer.add("plan.batched.lanes", len(result.timings))
    tracer.add("plan.batched.diverged", len(result.diverged))


def _cache_hit(tracer: Tracer, value) -> None:
    if value is not None:
        tracer.add("experiments.cache.hits")


def targets() -> list:
    """Every wrapped call of the current ``repro`` checkout."""
    from repro.devices.gpu import GPU
    from repro.experiments import parallel, runner
    from repro.fabric.maxmin import MaxMinSolver
    from repro.fleet.scheduler import ClusterScheduler
    from repro.plan import batched, fastpath
    from repro.plan.passes.manager import PassManager
    from repro.sim.core import Environment
    from repro.telemetry import profile
    from repro.training import STRATEGY_REGISTRY
    from repro.training.loop import TrainingJob

    compilers = {klass for strategy in STRATEGY_REGISTRY.values()
                 for klass in strategy.__mro__
                 if "compile_step" in vars(klass)}
    return [
        Target("sim", Environment, "run"),
        Target("sim.events", Environment, "step", "count"),
        Target("fabric", MaxMinSolver, "solve", "leaf", _rerated),
        Target("fabric.flows", MaxMinSolver, "add", "count"),
        Target("plan.fastpath", fastpath, "fastpath_schedule"),
        Target("plan.fastpath", fastpath, "evaluate_plan",
               on_result=_engine),
        Target("plan.batched", batched, "evaluate_batch",
               on_result=_lanes),
        Target("plan.passes", PassManager, "run"),
        *(Target("telemetry", profile, name) for name in TELEMETRY_CALLS),
        Target("training.job_init", TrainingJob, "__init__"),
        *(Target("training.compile", klass, "compile_step")
          for klass in sorted(compilers, key=lambda k: k.__qualname__)),
        Target("experiments", runner, "run_configuration"),
        Target("experiments.cache.load", parallel.ResultCache, "load",
               on_result=_cache_hit),
        Target("experiments.cache.store", parallel.ResultCache, "store"),
        Target("devices", GPU, "kernel_time", "leaf"),
        Target("fleet", ClusterScheduler, "run"),
    ]


def unit(metric: str) -> str:
    """The unit of a per-layer metric, by its name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "trace_overhead":
        return "ratio"
    if metric == "sim.self_us_per_event":
        return "us"
    if metric == "fabric.rerated_per_solve":
        return "flows"
    return "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced iteration.

    ``trace`` holds a tracer's ``calls``, ``self_s`` and ``counts``
    summed over the iteration's processes, and ``memo``: the compile
    memo's ``{"hits", "misses"}`` summed likewise (the memo resets
    whenever it is cleared).
    """
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    memo = trace["memo"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    events = counts.get("sim.events", 0)
    lanes = counts.get("plan.batched.lanes", 0)
    out.update({
        "sim.events": events,
        "sim.self_us_per_event": _ratio(out["sim.self_s"] * 1e6, events),
        "fabric.flows": counts.get("fabric.flows", 0),
        "fabric.rerated_per_solve": _ratio(counts.get("fabric.rerated", 0),
                                           out["fabric.calls"]),
        "plan.evaluate.fallback_ratio": _ratio(
            counts.get("plan.evaluate.executor", 0),
            counts.get("plan.evaluate.calls", 0)),
        "plan.batched.lanes": lanes,
        "plan.batched.diverged_ratio": _ratio(
            counts.get("plan.batched.diverged", 0), lanes),
        "training.compile.memo_hit_ratio": _ratio(
            memo["hits"], memo["hits"] + memo["misses"]),
        "experiments.cache.hit_ratio": _ratio(
            counts.get("experiments.cache.hits", 0),
            out["experiments.cache.load.calls"]),
    })
    return out
