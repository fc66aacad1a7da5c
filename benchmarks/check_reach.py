"""Check that every ``src/repro`` function is reached, or allowlisted.

Usage (from the repository root)::

    python benchmarks/check_reach.py [--list]

The census runs every argv of :data:`ARGVS` through ``repro.cli.main``,
one fresh process each, in order and against one result-cache
directory, so a command listed twice runs cold and then warm.  Beside
them it runs the paper harness (``pytest benchmarks
--ignore=benchmarks/e2e``).  Each process records every code object it
enters with ``sys.setprofile`` and ``threading.setprofile``.  A forked
child (the ``profile`` plan leg, a ``--jobs`` pool worker) inherits
the hook and writes its own record when it leaves through
:func:`os._exit`.

Every ``def`` under ``src/repro`` is then either reached, or named in
:data:`ALLOWLIST` with one reason.  The census exits non-zero when:

- a function is neither reached nor allowlisted (delete it, or give
  it an entry);
- an allowlisted function is reached (drop its entry);
- an allowlist entry names no function in ``src/repro``;
- a command exits with another code than :data:`ARGVS` expects, or
  the paper harness does not run to the end.

``--list`` prints every unreached function with its line count.
"""

from __future__ import annotations

import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: ``(expected exit code, argv)``, run in order against one cache
#: directory; ``{tmp}`` is a scratch directory for written files.
ARGVS = [
    (0, ["list"]),
    (2, []),
    (2, ["nope"]),
    (0, ["--help"]),
    (0, ["table1"]),
    (0, ["table2"]),
    (0, ["table3"]),
    (0, ["table4"]),
    (0, ["fig5"]),
    (0, ["fig9", "--steps", "1"]),
    (0, ["fig10", "--steps", "2", "--jobs", "2"]),
    (0, ["fig11", "--steps", "2"]),
    (0, ["fig12", "--steps", "2"]),
    (0, ["fig13", "--steps", "2"]),
    (0, ["fig14", "--steps", "2"]),
    (0, ["fig15", "--steps", "2", "--jobs", "1"]),
    (0, ["fig16"]),
    (0, ["fig16", "--profile"]),
    (0, ["fig16", "--no-cache", "--jobs", "1"]),
    (0, ["sharing", "--steps", "4"]),
    (0, ["scaleout", "--steps", "4"]),
    (0, ["scaling"]),
    (0, ["fault-tolerance", "--benchmark", "resnet50", "--steps", "4"]),
    (0, ["fault-tolerance", "--benchmark", "resnet50", "--steps", "4",
         "--config", "localGPUs", "--seed", "1", "--no-spare",
         "--interval", "0", "--sweep"]),
    (2, ["fault-tolerance", "--interval", "-1"]),
    (0, ["elasticity", "--smoke", "--output", "{tmp}/el.json"]),
    (0, ["elasticity", "--steps", "10"]),
    (0, ["recommend", "bert-large", "--steps", "2"]),
    (0, ["train", "resnet50", "--steps", "3", "--export",
         "{tmp}/train.json"]),
    (0, ["train", "resnet50", "--steps", "3", "--export", "{tmp}/train.csv",
         "--trace-out", "{tmp}/train-trace.json"]),
    (0, ["trace", "mobilenetv2", "--smoke", "--trace-out",
         "{tmp}/trace.json"]),
    (0, ["trace", "resnet50", "--backend", "local", "--steps", "3"]),
    (0, ["fig16-opt"]),
    (0, ["fig16-opt", "--profile", "--steps", "2", "--trace-out",
         "{tmp}/opt.json"]),
    (0, ["autotune", "--smoke", "--output", "{tmp}"]),
    (0, ["autotune", "--smoke", "--no-what-if", "--output", "{tmp}"]),
    (0, ["profile", "bert-large", "--backend", "falcon", "--strategy",
         "ddp", "--steps", "4"]),
    (0, ["profile", "bert-large", "--backend", "falcon", "--strategy",
         "ddp", "--steps", "4", "--format", "json", "--output",
         "{tmp}/profile.json"]),
    (0, ["profile", "bert-large", "--backend", "local", "--strategy", "2d",
         "--steps", "4", "--no-cache"]),
    (0, ["profile", "resnet50", "--backend", "hybrid", "--strategy",
         "pipeline", "--steps", "3", "--opt", "all", "--no-what-if",
         "--output", "{tmp}/profile-text.json"]),
    (0, ["profile", "resnet50", "--strategy", "fsdp", "--steps", "3",
         "--accumulation", "2", "--global-batch", "64"]),
    (2, ["profile", "resnet50", "--opt", "voodoo"]),
    (2, ["profile", "bert-large", "--global-batch", "100000"]),
    (2, ["profile", "resnet50", "--accumulation", "0"]),
    (0, ["matrix", "--smoke"]),
    (0, ["matrix", "--smoke", "--output", "{tmp}/matrix.json"]),
    (0, ["matrix", "--models", "resnet50", "--strategies", "ddp,fsdp",
         "--opt", "all", "--no-cache"]),
    (2, ["matrix", "--models", "nope"]),
    (2, ["matrix", "--strategies", "nope"]),
    (0, ["fleet", "--smoke", "--output", "{tmp}/fleet.json"]),
    (0, ["fleet", "--smoke", "--output", "{tmp}/fleet.json"]),
    (0, ["fleet", "--trace-jobs", "24", "--hosts", "3",
         "--gpus-per-chassis", "8", "--oversub", "2", "--seed", "3",
         "--interarrival", "5", "--cache-dir", "{tmp}/fleet-cache"]),
    (2, ["fleet", "--chassis", "0"]),
    (0, ["plan", "bert-large", "--strategy", "dp", "--validate"]),
    (0, ["plan", "bert-large", "--strategy", "ddp", "--diff", "sharded"]),
    (0, ["plan", "bert-large", "--strategy", "pipeline", "--validate"]),
    (0, ["plan", "bert-large", "--strategy", "tp", "--accumulation", "2",
         "--diff", "2d", "--validate"]),
    (0, ["plan", "bert-large", "--strategy", "fsdp", "--validate"]),
    (0, ["plan", "bert-large", "--config", "falconGPUs", "--opt", "all",
         "--validate"]),
    (0, ["plan", "resnet50", "--opt", "bucketing,overlap"]),
    (2, ["plan", "resnet50", "--opt", "voodoo"]),
    (2, ["plan", "bert-large", "--global-batch", "100000"]),
    (2, ["plan", "resnet50", "--accumulation", "0"]),
]

#: The paper harness, as CI runs it.
PAPER_HARNESS = ["benchmarks", "--ignore=benchmarks/e2e", "-q",
                 "-p", "no:cacheprovider", "-o", "addopts="]

#: Reason categories an :data:`ALLOWLIST` entry may give: a paper
#: section (or the DESIGN section reproducing it), a test oracle, an
#: open ROADMAP item that will call the function, a ``benchmarks/e2e``
#: hook, error handling, or a ``__repr__``/``__str__`` debug aid.
REASONS = ("paper", "oracle", "roadmap", "e2e", "error", "debug")

_MGMT = ("paper", "management plane (paper II-B/II-D, DESIGN 2): "
         "inventory, roles, attach/detach, config import/export, BMC")
_ALLOCATION = ("paper", "Falcon modes, attach/detach and allocation "
               "(paper II-B/II-D, DESIGN 2)")
_STATS = ("roadmap", "item 7 (--stats) publishes through the metrics "
          "registry")
_DEBUG = ("debug", "__repr__/__str__ debug aid")

#: ``"module:qualname"`` -> ``(category, reason)``: a function no
#: census run enters, kept on purpose.  The category is one of
#: :data:`REASONS`.
ALLOWLIST: dict = {
    # -- the management plane and the Falcon's allocation surface --------
    **{f"repro.management.mcs:ManagementCenterServer.{name}": _MGMT
       for name in ("_current_grantee", "_named_falcon", "_require_admin",
                    "_require_installed", "create_user",
                    "export_configuration", "export_event_log",
                    "grant_device", "grant_host", "health",
                    "import_configuration", "login", "resource_list",
                    "revoke_device", "topology_view")},
    **{f"repro.management.bmc:{name}": _MGMT
       for name in ("BMC._check_threshold", "BMC._monitor_loop",
                    "BMC.health_report", "BMC.set_load_source", "BMC.start",
                    "LinkHealth.healthy")},
    **{f"repro.management.events:{name}": _MGMT
       for name in ("Event.as_dict", "EventLog.__len__", "EventLog.export",
                    "EventLog.tail")},
    **{f"repro.fabric.falcon:{name}": _ALLOCATION
       for name in ("Drawer.allocated_to", "Drawer.devices",
                    "Falcon4016.apply_allocations", "Falcon4016.devices_of",
                    "Falcon4016.export_config", "Falcon4016.hosts_of_drawer",
                    "Falcon4016.installed_devices", "Falcon4016.reallocate",
                    "Falcon4016.remove_device", "Falcon4016.set_mode")},
    **{f"repro.fabric.pcie:{name}": _ALLOCATION
       for name in ("PCIeSwitch.detach", "PCIeSwitch.disconnect_upstream",
                    "RootComplex.detach")},
    "repro.core.cluster:ComposableCluster.allocate": (
        "paper", "hot-adds a chassis GPU after the hot-plug latency "
        "(paper II-D, DESIGN 2)"),
    # -- the metrics registry, for --stats ---------------------------------
    **{f"repro.telemetry.registry:MetricsRegistry.{name}": _STATS
       for name in ("__contains__", "__init__", "__len__", "attach",
                    "counter", "export", "gauge", "get", "names", "series",
                    "summary", "value")},
    "repro.telemetry.registry:MetricsRegistry.__repr__": _DEBUG,
    "repro.telemetry.registry:MetricError.__str__": (
        "error", "names the metric a failed registry call was about"),
    "repro.fabric.falcon:Falcon4016.register_metrics": _STATS,
    "repro.fabric.falcon:Falcon4016.port_traffic": (
        "roadmap", "item 7: register_metrics' per-port gauges read it"),
    "repro.fabric.link:Link.register_metrics": _STATS,
    "repro.sim.monitor:SummaryStats.as_dict": (
        "roadmap", "item 7: MetricsRegistry.summary returns it"),
    # -- open ROADMAP items ------------------------------------------------
    "repro.plan.fastpath:_Engine._enqueue_io": (
        "roadmap", "item 2 step B evaluates the checkpoint plan, whose "
        "ops are StorageWrites"),
    "repro.plan.fastpath:_Engine._admit_io": (
        "roadmap", "item 2 step B: storage admission for the checkpoint "
        "plan"),
    "repro.plan.fastpath:_Engine._admit_io.<locals>.done": (
        "roadmap", "item 2 step B: storage admission for the checkpoint "
        "plan"),
    "repro.plan.ir:PlanBuilder.h2d": (
        "roadmap", "item 1 compiles the loader's host-to-GPU copies into "
        "the step plan"),
    "repro.plan.ir:PlanBuilder.storage_read": (
        "roadmap", "item 1 compiles the loader's input staging into the "
        "step plan"),
    "repro.devices.storage:StorageDevice.read_to": (
        "roadmap", "item 1: the loader's read of an uncached dataset, "
        "and the executor's StorageRead op"),
    # -- test oracles ------------------------------------------------------
    "repro.plan.fastpath:_executor_timing": (
        "oracle", "the event-loop timing the fast path is checked "
                  "against"),
    "repro.plan.fastpath:_assert_equal": (
        "oracle", "fast path vs executor equality, 1e-9"),
    "repro.fabric.maxmin:MaxMinSolver.solve_full": (
        "oracle", "the full re-solve incremental solves are checked "
                  "against"),
    "repro.fabric.maxmin:MaxMinSolver.assert_equivalent": (
        "oracle", "incremental vs full re-solve rates"),
    "repro.fabric.maxmin:MaxMinSolver.flows": (
        "oracle", "test_maxmin and test_timeline read the live flows"),
    "repro.fabric.maxmin:MaxMinSolver.__len__": (
        "oracle", "bounds a solve's work in test_maxmin"),
    "repro.fabric.maxmin:apply_rates": (
        "oracle", "the batch water-fill reference of test_maxmin and "
                  "test_timeline"),
    "repro.fabric.flows:FlowScheduler.assert_rates_equivalent": (
        "oracle", "scheduler rates vs the batch water-fill"),
    "repro.fabric.flows:FlowScheduler.active_flows": (
        "oracle", "fabric and registry tests read the live flows"),
    "repro.fabric.link:Link.bytes_moved": (
        "oracle", "byte-conservation tests read a direction's final "
                  "total"),
    "repro.sim.monitor:TimeSeries.__len__": (
        "oracle", "the BMC test counts a sensor's recorded samples"),
    "repro.sim.monitor:CounterMonitor.total": (
        "oracle", "the final total every byte-conservation and device "
                  "accounting test reads"),
    "repro.fabric.link:LinkSpec.bidirectional_bandwidth": (
        "oracle", "test_link checks the catalogue against Table IV"),
    "repro.fabric.topology:Topology.links": (
        "oracle", "collective and fast-path tests sum every link's "
                  "counters"),
    "repro.fabric.topology:Topology.node": (
        "oracle", "device and PCIe tests read a node's kind"),
    "repro.fabric.topology:Topology.neighbors": (
        "oracle", "PCIe, NVLink and topology tests read the wiring"),
    "repro.fabric.topology:Topology.failed_links": (
        "oracle", "fault and chaos tests read the pulled links"),
    "repro.fabric.topology:Route.hops": (
        "oracle", "routing tests read a route's length"),
    "repro.devices.gpu:GPU.busy_fraction": (
        "oracle", "test_collector compares the utilization series "
                  "against it"),
    "repro.devices.gpu:GPU.mem_access_fraction": (
        "oracle", "test_collector compares the memory-access series "
                  "against it"),
    "repro.devices.cpu:CPU.utilization": (
        "oracle", "test_collector compares the CPU series against it"),
    "repro.training.collectives:Communicator.closed": (
        "oracle", "the subgroup test reads whether an abort reached a "
                  "child"),
    "repro.workloads.layers:ModelGraph.layers": (
        "oracle", "the Table II depth tests count a model's layers"),
    "repro.plan.passes.manager:PassReport.changed": (
        "oracle", "the pass-manager test reads whether a pass changed "
                  "the plan"),
    "repro.plan.passes.copy_fusion:_endpoints": (
        "roadmap", "item 1 puts per-rank input copies in the step plan; "
                   "copy-fusion's chain rule compares copies through "
                   "it, and no command plan has a fusable chain yet"),
    "repro.core.fleet:ComposableFleet.is_admitted": (
        "oracle", "the fleet admission tests read drawer admission"),
    "repro.sim.core:Event.ok": (
        "oracle", "kernel, flow and collective tests read an event's "
                  "outcome"),
    "repro.sim.core:Environment.peek": (
        "oracle", "kernel and flow tests read the next event time"),
    "repro.telemetry.profile:Attribution.total": (
        "oracle", "attribution tests check the categories tile the "
                  "step"),
    "repro.telemetry.profile:CriticalPath.length": (
        "oracle", "profiler tests check the path spans the makespan"),
    "repro.telemetry.trace:Span.closed": (
        "oracle", "tracer tests read whether a span closed"),
    "repro.training.collectives:Communicator.allreduce_bytes_on_wire": (
        "oracle", "the ring traffic-volume test's expected bytes"),
    "repro.training.loop:TrainingJob.add_checkpoint_listener": (
        "oracle", "fault-tolerance and elastic tests observe durable "
                  "checkpoints"),
    # -- benchmarks/e2e hooks ----------------------------------------------
    "repro.training.loop:clear_plan_compile_cache": (
        "e2e", "benchmarks/e2e/child.py clears the compile memo"),
    "repro.training.loop:plan_compile_stats": (
        "e2e", "benchmarks/e2e/child.py reads the compile memo counts"),
    # -- error handling ----------------------------------------------------
    "repro.training.resilience:FaultTolerantTrainingJob._give_up": (
        "error", "ends a run that cannot recover"),
    "repro.training.resilience:FaultTolerantTrainingJob._backoff_sleep": (
        "error", "waits out a transient fault before a retry"),
    "repro.training.collectives:Communicator._guarded": (
        "error", "times out a collective that never completes"),
    "repro.training.collectives:CollectiveTimeout.__init__": (
        "error", "the timeout _guarded raises"),
    "repro.sim.resources:Request.cancel": (
        "error", "withdraws a queued request whose waiter gave up"),
    "repro.sim.resources:Resource._cancel": (
        "error", "withdraws a queued request whose waiter gave up"),
    "repro.sim.resources:ContainerGet.cancel": (
        "error", "withdraws a queued get whose waiter gave up"),
    "repro.plan.validate:PlanValidationError.__init__": (
        "error", "carries every problem a plan failed validation on"),
    "repro.plan.passes.manager:PlanPass.run": (
        "error", "a pass that does not define run fails loudly"),
    "repro.training.parallel:ParallelStrategy.compile_step": (
        "error", "a strategy that does not define its step compiler "
                 "fails loudly"),
    # -- the quickstart ----------------------------------------------------
    "repro.training.loop:TrainingResult.summary": (
        "paper", "the README and package quickstart print it"),
    # -- debug aids --------------------------------------------------------
    **{key: _DEBUG for key in (
        "repro.chaos.injector:FaultInjector.__repr__",
        "repro.chaos.scenario:FaultScenario.__repr__",
        "repro.core.cluster:ComposableCluster.__repr__",
        "repro.core.fleet:ComposableFleet.__repr__",
        "repro.core.system:ComposableSystem.__repr__",
        "repro.devices.cpu:CPU.__repr__",
        "repro.devices.gpu:GPU.__repr__",
        "repro.devices.gpu:Precision.__str__",
        "repro.devices.host:HostServer.__repr__",
        "repro.devices.nic:NIC.__repr__",
        "repro.devices.storage:StorageDevice.__repr__",
        "repro.elastic.job:ElasticTrainingJob.__repr__",
        "repro.experiments.autotune:Candidate.__repr__",
        "repro.fabric.falcon:Falcon4016.__repr__",
        "repro.fabric.flows:Flow.__repr__",
        "repro.fabric.link:Link.__repr__",
        "repro.fabric.link:Protocol.__str__",
        "repro.fabric.pcie:PCIeSwitch.__repr__",
        "repro.fabric.pcie:RootComplex.__repr__",
        "repro.management.inventory:Inventory.__repr__",
        "repro.plan.ir:StepPlan.__repr__",
        "repro.plan.passes.manager:PlanPass.__repr__",
        "repro.sim.core:Event.__repr__",
        "repro.sim.core:Interrupt.__repr__",
        "repro.sim.core:Process.__repr__",
        "repro.sim.core:Timeout.__repr__",
        "repro.telemetry.trace:Category.__str__",
        "repro.telemetry.trace:Span.__repr__",
        "repro.telemetry.trace:Track.__str__",
        "repro.telemetry.trace:Tracer.__repr__",
        "repro.training.collectives:Communicator.__repr__",
        "repro.training.parallel:ParallelStrategy.__repr__",
        "repro.training.resilience:FaultTolerantTrainingJob.__repr__",
        "repro.workloads.layers:ModelGraph.__repr__",
    )},
}


def defined_functions(src: Path = SRC) -> dict:
    """``"module:qualname"`` -> ``(path, first line, line count)`` for
    every ``def`` under ``src/repro``.  The first line is the code
    object's ``co_firstlineno``: the first decorator's line, if any."""
    found: dict = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[f"{module}:{qualname}"] = (
                        str(path), first, child.end_lineno - first + 1)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _record(out_dir: str) -> None:
    """Record every code object this process and its forks enter; each
    writes ``<pid>.txt`` in ``out_dir`` when it exits."""
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        lines = {f"{code.co_filename}\t{code.co_firstlineno}\n"
                 for code in seen}
        path = os.path.join(out_dir, f"{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(sorted(lines))

    real_exit = os._exit

    def exit_recorded(code):
        dump()
        real_exit(code)

    os._exit = exit_recorded
    os.register_at_fork(after_in_child=seen.clear)
    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


def _child(out_dir: str, kind: str, args: list) -> int:
    """One recorded run: ``cli`` argv or ``pytest`` args."""
    _record(out_dir)
    if kind == "pytest":
        import pytest
        return int(pytest.main(args))
    from repro.cli import main
    try:
        return main(args)
    except SystemExit as exc:  # argparse's exits
        return exc.code if isinstance(exc.code, int) else 1


def _reached(out_dir: Path) -> set:
    """``(absolute path, first line)`` of every code object entered."""
    reached = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, first = line.split("\t")
            reached.add((os.path.abspath(filename), int(first)))
    return reached


def census(functions: dict) -> tuple:
    """Run every argv and the paper harness; return ``(keys of the
    functions entered, exit-code failures)``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as root:
        records = Path(root) / "records"
        records.mkdir()
        work = Path(root) / "work"
        work.mkdir()
        env["REPRO_CACHE_DIR"] = str(Path(root) / "cache")
        child = [sys.executable, str(Path(__file__).resolve()), "--child",
                 str(records)]
        # The harness runs beside the commands, on the second CPU.
        with subprocess.Popen(child + ["pytest", *PAPER_HARNESS], cwd=REPO,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL) as harness:
            runs = [(expected, ["cli", *[arg.replace("{tmp}", str(work))
                                         for arg in argv]])
                    for expected, argv in ARGVS]
            for expected, args in runs:
                code = subprocess.run(
                    child + args, cwd=work, env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL).returncode
                print(f"exit {code}: repro {' '.join(args[1:])}", flush=True)
                if code != expected:
                    failures.append(f"repro {' '.join(args[1:])} exited "
                                    f"{code}, expected {expected}")
        print(f"exit {harness.returncode}: pytest {' '.join(PAPER_HARNESS)}",
              flush=True)
        # pytest exits 1 when a test failed, after running every test:
        # the reach is complete, and the harness' own CI step gates it
        # (its wall-clock floors are not meant to hold under a profiler).
        if harness.returncode not in (0, 1):
            failures.append(f"the paper harness exited {harness.returncode}")
        entered = _reached(records)
    reached = {key for key, (path, first, _n) in functions.items()
               if (os.path.abspath(path), first) in entered}
    return reached, failures


def problems(functions: dict, reached: set,
             allowlist: dict = ALLOWLIST) -> list:
    """Every census failure for these functions and reached keys."""
    out = []
    for key in sorted(set(functions) - reached - set(allowlist)):
        path, first, lines = functions[key]
        out.append(f"unreached and not allowlisted: {key} "
                   f"({os.path.relpath(path, REPO)}:{first}, "
                   f"{lines} lines)")
    for key in sorted(set(allowlist) & reached):
        out.append(f"allowlisted but reached: {key}")
    for key in sorted(set(allowlist) - set(functions)):
        out.append(f"allowlisted but not in src/repro: {key}")
    return out


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2], argv[3:])
    functions = defined_functions()
    reached, failures = census(functions)
    unreached = sorted(set(functions) - reached)
    if "--list" in argv:
        for key in unreached:
            path, first, lines = functions[key]
            print(f"{lines:4d} {key}")
    found = failures + problems(functions, reached)
    for problem in found:
        print(problem)
    dead = sum(functions[key][2] for key in unreached)
    print(f"{len(functions)} functions, {len(reached)} reached, "
          f"{len(unreached)} unreached ({dead} lines), "
          f"{len(ALLOWLIST)} allowlisted: "
          f"{'FAILED' if found else 'OK'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
