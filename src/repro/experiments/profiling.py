"""Bottleneck profiling of benchmark x strategy x backend cells.

Glue between the profiler engine (:mod:`repro.telemetry.profile`) and
the experiment harness: build the same :class:`TrainingJob` a sweep
cell would run, profile it end to end (traced run + plan-level what-if
ceilings), and emit the :class:`BottleneckReport` the paper's Figs.
11/16 narrative reads off — which category dominates the step, and how
much a cheaper fabric/kernel/storage tier could buy.

Two entry points:

- :func:`profile_cell` — the full treatment for one cell (the ``repro
  profile`` command): run the job under the profiler, reconcile against
  ``TrainingResult.total_time``, compute what-if ceilings with true
  fast-path re-evaluation on a throwaway system.
- :func:`bottleneck_labels` — cheap plan-level labels for every cell of
  a Fig. 16-style grid (the ``--profile`` flag on ``fig16`` /
  ``fig16-opt``): one fast-path evaluation + critical-path walk per
  cell, no event-loop simulation.

A profile cell has two legs that share no state once its job is built:
the *run leg* (:func:`profile_run`, the event loop trains the job) and
the *plan leg* (the base fast-path timing, :func:`profile_plan` and
every what-if).  Both read the system as built — the plan leg before
the event loop touches it — so they may run at once: on a Linux host
with a second usable CPU, :func:`profile_cell` forks a child for the
plan leg (it sends its result back pickled over a pipe) while this
process runs the event loop.  With one usable CPU, off Linux, inside a
:func:`~repro.experiments.parallel.run_cells` pool worker or beside
other threads, the plan leg runs in-process first.  The report is the
same either way.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from typing import Callable, Optional, Sequence

from ..core import ComposableSystem
from ..telemetry.profile import (
    SCALE_BUCKETS,
    BottleneckReport,
    profile_plan,
    profile_run,
    what_if,
)
from .parallel import worker_count

__all__ = ["profile_cell", "bottleneck_labels"]


def profile_cell(benchmark: str, configuration: str, strategy: str = "ddp",
                 sim_steps: Optional[int] = None,
                 plan_passes: Optional[str] = None,
                 what_if_buckets: Sequence[str] = SCALE_BUCKETS,
                 evaluate_what_ifs: bool = True,
                 global_batch: Optional[int] = None,
                 accumulation_steps: int = 1) -> BottleneckReport:
    """Profile one benchmark x strategy x configuration cell fully.

    Runs the cell's training job under the profiler (absolute per-op
    times captured via the executor's completion hook), then computes
    what-if ceilings on the step plan: the relaxation prediction from
    the measured schedule, the Amdahl estimate from the critical-path
    share, and — when ``evaluate_what_ifs`` — a true re-evaluation of
    the rescaled plan on a *throwaway* identical system.  Zeroed buckets
    tie events at one instant and still run on the fast path, which
    mutates no device state, so the buckets share one throwaway system;
    a plan the fast path refuses runs on the executor, which advances
    device state, so the next bucket gets a fresh system.  A bucket no
    op scales re-runs nothing (see :func:`what_if`).

    The plan leg (base timing, plan profile, what-ifs) reads the job's
    system as built, before the event loop runs it.  With a second
    usable CPU on Linux it runs in a forked child while this process
    runs :func:`profile_run`; otherwise it runs here first.  The report
    — live ``plan_profile``, ``run_profile`` and ``what_ifs`` objects —
    is the same either way; a forked leg's objects come back unpickled.
    An exception from either leg propagates with its type, and no child
    outlives the call.
    """
    config = dict(sim_steps=sim_steps, plan_passes=plan_passes,
                  global_batch=global_batch,
                  accumulation_steps=accumulation_steps)

    def build():
        return ComposableSystem().job(benchmark, configuration, strategy,
                                      **config)

    job = build()
    leg = functools.partial(_plan_leg, job, build, what_if_buckets,
                            evaluate_what_ifs)
    if _can_fork():
        run_prof, (plan_prof, what_ifs) = _run_beside(
            leg, functools.partial(profile_run, job))
    else:
        plan_prof, what_ifs = leg()
        run_prof = profile_run(job)

    plan = job.step_plan
    return BottleneckReport(
        benchmark=benchmark, strategy=strategy,
        configuration=configuration, world_size=plan.world_size,
        label=run_prof.label, shares=run_prof.shares,
        plan_profile=plan_prof, run_profile=run_prof,
        what_ifs=what_ifs,
        meta={"sim_steps": job.config.sim_steps,
              "plan_passes": plan_passes,
              "plan_ops": len(plan.ops)})


def _plan_leg(job, build: Callable, what_if_buckets: Sequence[str],
              evaluate_what_ifs: bool) -> tuple:
    """``(PlanProfile, [WhatIf])`` of ``job``'s step plan, read off its
    un-run system; ``build()`` makes each throwaway job."""
    from ..plan.fastpath import fastpath_schedule

    plan = job.step_plan
    ctx = job._exec_ctx
    # The pure fast path never advances the environment, so the job's
    # own system supplies the plan-relative base timing and stays un-run.
    base = fastpath_schedule(plan, ctx)
    plan_prof = profile_plan(plan, base, ctx=ctx)
    what_ifs = []
    eval_ctx = None
    for bucket in what_if_buckets:
        if evaluate_what_ifs and eval_ctx is None:
            eval_ctx = build()._exec_ctx
        result = what_if(plan, base, ctx, bucket, 0.0,
                         cp_attr=plan_prof.attr,
                         evaluate=evaluate_what_ifs,
                         evaluate_ctx=eval_ctx)
        if result.evaluated_mode == "executor":
            eval_ctx = None  # the executor advanced that system
        what_ifs.append(result)
    return plan_prof, what_ifs


def _can_fork() -> bool:
    """Whether :func:`profile_cell` may fork its plan leg: Linux, a
    second usable CPU, and neither a pool worker nor a threaded process
    (a fork copies only the calling thread, and another thread's held
    lock would stay held in the child)."""
    import multiprocessing

    return (sys.platform.startswith("linux")
            and multiprocessing.parent_process() is None
            and threading.active_count() == 1
            and worker_count(None, 2) > 1)


def _run_beside(leg: Callable, run: Callable) -> tuple:
    """``(run(), leg())``, with ``leg`` in a forked child.

    The child sends ``leg``'s value, or the exception it raised, back
    pickled over a pipe and leaves with :func:`os._exit`, so none of
    this process's exit handlers or buffered output run twice.  This
    process runs ``run`` meanwhile, then reads the pipe and reaps the
    child; if ``run`` raises, it kills the child first.
    """
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns into the caller's frames
        code = 1
        try:
            os.close(read_fd)
            _send_leg(leg, write_fd)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            value = run()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pid, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"the profile plan leg's child process exited "
                           f"with code {code}")
    result, trace = pickle.loads(data)
    if trace is not None:
        if hasattr(result, "add_note"):  # Python 3.11+
            result.add_note(f"raised in the plan leg's child process:\n"
                            f"{trace}")
        raise result
    return value, result


def _send_leg(leg: Callable, fd: int) -> None:
    """Write ``(leg(), None)`` — or ``(exception, traceback text)`` if
    ``leg`` raised — pickled to ``fd``.  An exception that would not
    survive the round trip goes as a :class:`RuntimeError` naming it."""
    import pickle
    import traceback

    try:
        payload = (leg(), None)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        payload = (exc, traceback.format_exc())
    with os.fdopen(fd, "wb") as pipe:
        pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)


def bottleneck_labels(configurations: Sequence[str] = ("localGPUs",
                                                       "falconGPUs"),
                      variants=None, benchmark: str = "bert-large",
                      plan_passes: Optional[str] = None) -> dict:
    """Plan-level bottleneck labels for a Fig. 16-style grid.

    For each configuration x variant cell, compile the variant's step
    plan on a fresh system, evaluate it once through the fast path, and
    label it from the critical-path attribution — no event-loop
    simulation, so annotating the whole grid costs milliseconds.
    Returns ``{configuration: {variant: {"label", "shares"}}}``.
    """
    if variants is None:
        from .software_opts import VARIANTS
        variants = VARIANTS
    grid: dict = {}
    for configuration in configurations:
        row: dict = {}
        for variant in variants:
            job = variant.build_job(configuration, plan_passes,
                                    benchmark=benchmark)
            prof = profile_plan(job.step_plan, ctx=job._exec_ctx)
            row[variant.name] = {
                "label": prof.label,
                "shares": {k: round(v, 4)
                           for k, v in prof.shares.items()},
                "makespan_s": prof.makespan,
            }
        grid[configuration] = row
    return grid
