"""Where a profile cell's plan leg runs: a forked child or in-process."""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments import profiling
from repro.experiments.profiling import profile_cell

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the plan leg forks only on Linux")

#: Cheap cells: (benchmark, configuration, strategy, profile_cell kwargs).
ACCEPTANCE = ("bert-large", "falconGPUs", "ddp", {"sim_steps": 4})
NO_WHAT_IF = ("mobilenetv2", "localGPUs", "ddp",
              {"sim_steps": 4, "evaluate_what_ifs": False})


class RunLegFailure(Exception):
    pass


class PlanLegFailure(Exception):
    pass


@pytest.fixture
def forked(monkeypatch):
    """Two usable CPUs, whatever the host has; yields each child's pid."""
    monkeypatch.setattr(profiling, "worker_count", lambda jobs, misses: 2)
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


@pytest.mark.parametrize("cell", [ACCEPTANCE, NO_WHAT_IF],
                         ids=["acceptance", "no-what-if"])
def test_report_is_the_same_forked_and_in_process(cell, forked,
                                                  monkeypatch):
    benchmark, configuration, strategy, kwargs = cell
    child = profile_cell(benchmark, configuration, strategy, **kwargs)
    assert_reaped(forked)
    monkeypatch.setattr(profiling, "worker_count", lambda jobs, misses: 1)
    here = profile_cell(benchmark, configuration, strategy, **kwargs)
    assert len(forked) == 1
    assert child.to_json() == here.to_json()


def test_a_failing_run_leg_kills_and_reaps_the_child(forked, monkeypatch):
    def slow_plan_leg(*args):
        time.sleep(60)

    def failing_run(job):
        raise RunLegFailure("run leg")

    monkeypatch.setattr(profiling, "_plan_leg", slow_plan_leg)
    monkeypatch.setattr(profiling, "profile_run", failing_run)
    start = time.perf_counter()
    with pytest.raises(RunLegFailure, match="run leg"):
        profile_cell(*NO_WHAT_IF[:3], **NO_WHAT_IF[3])
    assert time.perf_counter() - start < 30  # killed, not waited for
    assert_reaped(forked)


def test_a_failing_plan_leg_raises_its_type_in_the_parent(forked,
                                                          monkeypatch):
    def failing_profile_plan(*args, **kwargs):
        raise PlanLegFailure("plan leg")

    monkeypatch.setattr(profiling, "profile_plan", failing_profile_plan)
    with pytest.raises(PlanLegFailure, match="plan leg"):
        profile_cell(*NO_WHAT_IF[:3], **NO_WHAT_IF[3])
    assert_reaped(forked)


def test_an_unpicklable_plan_leg_failure_arrives_named(forked, monkeypatch):
    class LocalFailure(Exception):  # a local class does not pickle
        pass

    def failing_profile_plan(*args, **kwargs):
        raise LocalFailure("plan leg")

    monkeypatch.setattr(profiling, "profile_plan", failing_profile_plan)
    with pytest.raises(RuntimeError, match="LocalFailure: plan leg"):
        profile_cell(*NO_WHAT_IF[:3], **NO_WHAT_IF[3])
    assert_reaped(forked)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(profiling, "worker_count", lambda jobs, misses: 1)


def _pool_worker(monkeypatch):
    monkeypatch.setattr(profiling, "worker_count", lambda jobs, misses: 2)
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())


def _other_thread(monkeypatch):
    monkeypatch.setattr(profiling, "worker_count", lambda jobs, misses: 2)
    monkeypatch.setattr(threading, "active_count", lambda: 2)


@pytest.mark.parametrize("setup", [_one_cpu, _pool_worker, _other_thread],
                         ids=["one-cpu", "pool-worker", "other-thread"])
def test_the_plan_leg_runs_in_process_without_forking(setup, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    setup(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    report = profile_cell(*NO_WHAT_IF[:3], **NO_WHAT_IF[3])
    assert report.plan_profile is not None and report.what_ifs
