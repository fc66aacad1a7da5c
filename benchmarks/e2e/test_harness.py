"""Self-tests of the benchmark harness; no simulation runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import sys
import types

import pytest

import child
import compare
import run
import workloads
from tracer import Target, Tracer, install


class FakeClock:
    """A clock that advances only when a fake call says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_child_layers():
    clock = FakeClock()
    tracer = Tracer(iteration=3, clock=clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(4.0)
        inner()
        inner()
        clock.advance(1.0)

    leaf = tracer.wrap("leaf", leaf, span=False)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()

    assert tracer.calls == {"leaf": 2, "inner": 2, "outer": 1}
    assert tracer.self_s == {"leaf": 2.0, "inner": 5.0, "outer": 5.0}
    # Leaves leave no span; each span names its enclosing span.
    assert [(s["name"].rsplit(".", 1)[-1], s["parent"])
            for s in tracer.spans] == [("outer", None), ("inner", 0),
                                       ("inner", 0)]
    assert tracer.spans[0]["start"] == 0.0 and tracer.spans[0]["end"] == 12.0
    assert {s["iteration"] for s in tracer.spans} == {3}


def test_self_time_of_a_raising_call_is_still_charged():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.advance(1.5)
        raise KeyError("x")

    def caller():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            fails()

    fails = tracer.wrap("fails", fails)
    tracer.wrap("caller", caller)()
    assert tracer.self_s == {"fails": 1.5, "caller": 1.0}
    assert tracer.calls == {"fails": 1, "caller": 1}


@pytest.fixture
def fake_package():
    """``fakepkg.lib`` defines ``f``; ``fakepkg.user`` from-imports it."""
    names = ("fakepkg", "fakepkg.lib", "fakepkg.user")
    modules = {name: types.ModuleType(name) for name in names}
    lib, user = modules["fakepkg.lib"], modules["fakepkg.user"]

    def f(x):
        return x + 1

    class Engine:
        def step(self):
            return "stepped"

    lib.f, lib.Engine = f, Engine
    user.f = f  # what ``from fakepkg.lib import f`` leaves behind
    user.call = lambda x: user.f(x)
    sys.modules.update(modules)
    yield lib, user
    for name in names:
        sys.modules.pop(name, None)


def test_installer_patches_from_imported_bindings(fake_package):
    lib, user = fake_package
    original = lib.f
    tracer = Tracer()
    uninstall = install(tracer, [
        Target("lib", lib, "f", on_result=lambda t, r: t.add("sum", r)),
        Target("steps", lib.Engine, "step", "count"),
    ], prefix="fakepkg")
    assert user.call(1) == 2 and lib.f(2) == 3
    assert lib.Engine().step() == "stepped"
    assert tracer.calls["lib"] == 2
    assert tracer.counts == {"sum": 5, "steps": 1}
    uninstall()
    assert lib.f is original and user.f is original
    assert "step" in vars(lib.Engine) and lib.Engine().step() == "stepped"
    assert tracer.calls["lib"] == 2 and tracer.counts["steps"] == 1


def test_installer_refuses_an_inherited_method(fake_package):
    lib, _ = fake_package

    class Sub(lib.Engine):
        pass

    with pytest.raises(AttributeError):
        install(Tracer(), [Target("sub", Sub, "step")], prefix="fakepkg")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_to_argv_is_deterministic_and_total(workload):
    argvs = [workloads.commands(workload, seed, "CACHE")
             for seed in range(workloads.SEEDS)]
    assert argvs == [workloads.commands(workload, seed, "CACHE")
                     for seed in range(workloads.SEEDS)]
    assert workloads.commands(workload, workloads.SEEDS, "CACHE") \
        == argvs[0]
    # Only fleet has inputs that a seed can vary at equal cost.
    distinct = len({repr(a) for a in argvs})
    assert distinct == (workloads.SEEDS if workload == "fleet" else 1)


def test_every_argv_parses_with_the_cli():
    sys.path.insert(0, str(child.SRC))
    from repro.cli import build_parser
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.SEEDS):
            for argv in workloads.commands(workload, seed, "CACHE"):
                parser.parse_args(argv)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.commands("nope", 0, "CACHE")


def _child(*passes, rc=0, seconds=1.0, probe=(1.0, 1.0), setup=0.5):
    return {"passes": [[{"stdout": s, "rc": rc, "seconds": seconds}
                        for s in p] for p in passes],
            "probe_s": [run.PROBE_REF_S * x for x in probe],
            "setup_s": setup, "rss_mb": 50.0}


def test_check_counts_failures_and_saves_mismatches(tmp_path):
    expected = {"profile": {"2": run.digest("ab")}}
    good = {"cold": _child(["a", "b"]),
            "reruns": [_child(["a", "b"], ["a", "b"])]}
    assert run.check("profile", 12, [good], expected, tmp_path) == {
        "attempted": 6, "failed": 0, "mismatched_iterations": 0}
    drifted = {"cold": _child(["a", "c"], rc=2),
               "reruns": [_child(["a", "b"])]}
    counts = run.check("profile", 2, [good, drifted], expected, tmp_path)
    assert counts == {"attempted": 10, "failed": 2,
                      "mismatched_iterations": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mismatch-profile-seed2-iter1-cold.txt",
        "mismatch-profile-seed2-iter1-rerun0.0.1.txt"]


def test_times_are_scaled_by_the_mean_probe_time():
    # On average twice as slow as the reference host.
    slow = dict(probe=(1.0, 3.0, 2.0))
    it = {"cold": _child(["a", "b"], seconds=3.0, **slow),
          "reruns": [_child(["a", "b"], ["a", "b"], seconds=1.0, **slow),
                     _child(["a", "b"], seconds=2.0, **slow)]}
    assert run.end_to_end([it]) == {
        "wall_s": [3.0], "rerun_s": [1.0, 2.0],
        "setup_s": [0.25, 0.25, 0.25], "peak_rss_mb": [50.0]}


def test_traces_of_an_iteration_are_summed():
    def traced(calls, hits):
        child = _child(["a"])
        child["trace"] = {"calls": {"sim": calls}, "self_s": {"sim": 1.0},
                          "counts": {"sim.events": 10 * calls},
                          "memo": {"hits": hits, "misses": 1},
                          "spans": [{"parent": None}, {"parent": 0}]}
        return child

    it = {"cold": traced(2, 0), "reruns": [traced(3, 3)]}
    assert run.merged_trace(it) == {
        "calls": {"sim": 5}, "self_s": {"sim": 2.0},
        "counts": {"sim.events": 50}, "memo": {"hits": 3, "misses": 2}}
    assert [s["parent"] for s in run.spans_of([it])] == [None, 0, None, 2]


@pytest.mark.parametrize("b, want", [
    ([10.0, 10.1, 9.9, 10.0], "unchanged"),
    ([12.0, 12.1, 11.9, 12.0], "worse"),
    ([8.0, 8.1, 7.9, 8.0], "better"),
    ([7.0, 14.0, 10.0, 12.0], "unresolved"),
    ([5.0, 9.0, 6.0, 7.5], "better"),  # wide, but every B beats every A
])
def test_compare_verdicts(b, want):
    a = [10.0, 10.05, 9.95, 10.0]
    assert compare.verdict(a, b, bound=0.1) == want


def test_compare_respects_higher_is_better():
    a = [10.0, 10.05, 9.95, 10.0]
    assert compare.verdict(a, [12.0, 12.1, 11.9, 12.0], 0.1,
                           better="higher") == "better"


def _record(workload, **samples):
    return {"workload": workload, "samples": samples,
            "metrics": {name: {"value": sorted(values)[len(values) // 2]}
                        for name, values in samples.items()}}


def test_compare_report_flags_a_regression():
    bench = {"end_to_end": [{"name": "wall_s", "bound": 0.1,
                             "better": "lower"}],
             "per_layer": [{"name": "sim.calls"}]}
    a = [_record("fleet", wall_s=[1.0, 1.01], **{"sim.calls": [4, 4]})]
    b = [_record("fleet", wall_s=[1.5, 1.51], **{"sim.calls": [4, 4]})]
    lines, worse = compare.compare(a, b, bench)
    assert worse
    assert lines[1].endswith("worse") and lines[2].endswith("no bound")


def test_compare_takes_run_medians_when_a_side_has_several_runs():
    # Each run is noisy within, but its median repeats.
    runs = [_record("fig16", rerun_s=[0.8, 1.0, 1.25]) for _ in range(3)]
    assert compare.values(runs) == {"fig16": {"rerun_s": [1.0, 1.0, 1.0]}}
    assert compare.values(runs[:1]) == {
        "fig16": {"rerun_s": [0.8, 1.0, 1.25]}}
