"""Command-line interface: regenerate any paper artifact from a shell.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` gives one command's options; ``python -m repro list``
names every command with the benchmarks and configurations.

Every command prints the same rows the paper's tables/figures report.
``trace`` writes a Chrome/Perfetto ``trace_event`` JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev) and prints the per-step
critical-path attribution from the profiler; non-local backends also
trace a local baseline and print the Fig. 11 overhead split per
critical-path category.  ``recommend`` scores the ``experiment`` cells
``fig11`` caches, so after ``fig11`` it trains nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core import (
    COMM_REQUIREMENTS,
    CONFIGURATION_DESCRIPTIONS,
    CONFIGURATION_ORDER,
    ComposableSystem,
    SOFTWARE_STACK,
)
from .training import STRATEGY_REGISTRY
from .workloads import benchmark_names, get_benchmark

__all__ = ["main", "build_parser", "COMMANDS"]

#: ``trace --backend`` choices -> Table III configurations.
TRACE_BACKENDS = {
    "local": "localGPUs",
    "falcon": "falconGPUs",
    "hybrid": "hybridGPUs",
}

def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--no-cache``/``--cache-dir`` for the sweep commands."""
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="run sweep cells across N worker processes "
                             "(default: the usable CPUs, at most 4, and "
                             "never more than the cells to compute)")
    _add_cache_args(parser)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    """``--no-cache``/``--cache-dir``: the result cache a command uses."""
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the on-disk result "
                             "cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")


def _positive_int(text: str) -> int:
    """argparse ``type``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse ``type``: an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return int(text)


def _add_steps_arg(parser: argparse.ArgumentParser,
                   default: Optional[int] = 8,
                   help: str = "simulated optimizer steps per run") -> None:
    """``--steps``; every command takes it through :func:`_positive_int`."""
    parser.add_argument("--steps", type=_positive_int, default=default,
                        help=help)


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """``--steps`` and the harness knobs: Figs. 10-15 sweep many cells."""
    _add_steps_arg(parser)
    _add_parallel_args(parser)


def _add_fig16_args(parser: argparse.ArgumentParser) -> None:
    _add_parallel_args(parser)
    parser.add_argument("--profile", action="store_true",
                        help="annotate every grid cell with its "
                             "bottleneck label (plan-level "
                             "critical-path attribution)")


def _add_fault_tolerance_args(ft: argparse.ArgumentParser) -> None:
    ft.add_argument("--benchmark", default="bert-large",
                    choices=benchmark_names())
    ft.add_argument("--config", default="falconGPUs",
                    choices=CONFIGURATION_ORDER)
    _add_steps_arg(ft)
    ft.add_argument("--interval", type=_non_negative_int, default=2,
                    help="checkpoint every N optimizer steps (0: never)")
    ft.add_argument("--seed", type=int, default=None,
                    help="randomized scenario seed (default: scripted "
                         "cable-pull scenario)")
    ft.add_argument("--no-spare", action="store_true",
                    help="do not install a standby chassis GPU")
    ft.add_argument("--sweep", action="store_true",
                    help="also sweep checkpoint cadence under a port flap")


def _add_elasticity_args(el: argparse.ArgumentParser) -> None:
    el.add_argument("--benchmark", default="resnet50",
                    choices=benchmark_names())
    _add_steps_arg(el, default=12)
    el.add_argument("--smoke", action="store_true",
                    help="small run for CI; also verifies the batch "
                         "invariant and exits non-zero on violation")
    el.add_argument("--output", default=None, metavar="PATH",
                    help="write the full study JSON here")


def _add_recommend_args(rec: argparse.ArgumentParser) -> None:
    rec.add_argument("benchmark", choices=benchmark_names())
    _add_steps_arg(rec)
    rec.add_argument("--tolerance", type=float, default=7.0,
                     help="acceptable slowdown vs fastest, percent")


def _add_train_args(train: argparse.ArgumentParser) -> None:
    train.add_argument("benchmark", choices=benchmark_names())
    train.add_argument("--config", default="localGPUs",
                       choices=CONFIGURATION_ORDER)
    _add_steps_arg(train, default=10)
    train.add_argument("--export", default=None,
                       help="write the record to a .json or .csv file")
    train.add_argument("--trace-out", default=None,
                       help="also capture spans and write a Chrome "
                            "trace_event JSON file")


def _add_trace_args(trace: argparse.ArgumentParser) -> None:
    trace.add_argument("benchmark", choices=benchmark_names())
    trace.add_argument("--backend", default="falcon",
                       choices=sorted(TRACE_BACKENDS),
                       help="GPU attachment to trace (default: falcon; "
                            "non-local backends also trace a local "
                            "baseline for the overhead split)")
    _add_steps_arg(trace, default=10)
    trace.add_argument("--trace-out", default=None,
                       help="write the Chrome trace_event JSON here")
    trace.add_argument("--smoke", action="store_true",
                       help="tiny run + validate the trace against the "
                            "trace_event schema; non-zero exit on "
                            "violations")
    trace.add_argument("--timeline-width", type=int, default=72,
                       help="columns for the ASCII step timeline "
                            "(clamped to [8, 400])")


def _add_fig16_opt_args(fig16: argparse.ArgumentParser) -> None:
    _add_steps_arg(fig16, default=6,
                   help="simulated optimizer steps of the --trace-out "
                        "run (the table itself is one plan evaluation "
                        "per pipeline)")
    fig16.add_argument("--trace-out", default=None,
                       help="write a Chrome trace of the optimized run")
    fig16.add_argument("--profile", action="store_true",
                       help="annotate each optimized DDP cell with its "
                            "bottleneck label")
    _add_parallel_args(fig16)


def _add_autotune_args(autotune: argparse.ArgumentParser) -> None:
    autotune.add_argument("--smoke", action="store_true",
                          help="reduced candidate grid and cell subset "
                               "for CI")
    autotune.add_argument("--no-what-if", action="store_true",
                          help="skip the per-cell what-if ceilings")
    autotune.add_argument("--output", default=None, metavar="DIR",
                          help="directory for TUNING.json "
                               "(default: current directory)")


def _add_profile_args(profile: argparse.ArgumentParser) -> None:
    profile.add_argument("benchmark", choices=benchmark_names())
    profile.add_argument("--backend", default="falcon",
                         choices=sorted(TRACE_BACKENDS),
                         help="GPU attachment (default: falcon)")
    profile.add_argument("--strategy", default="ddp",
                         choices=tuple(STRATEGY_REGISTRY))
    _add_steps_arg(profile, default=None,
                   help="simulated optimizer steps (default: the "
                        "training config's)")
    profile.add_argument("--opt", default=None, metavar="PASS[,PASS...]",
                         help="apply optimization passes before "
                              "profiling (names or 'all')")
    profile.add_argument("--global-batch", type=_positive_int, default=None,
                         help="override the benchmark's native global "
                              "batch (memory-hungry strategies may "
                              "need a smaller one)")
    profile.add_argument("--accumulation", type=_positive_int, default=1,
                         help="gradient accumulation steps "
                              "(default: 1)")
    profile.add_argument("--format", default="text",
                         choices=("text", "json"),
                         help="report format (default: text)")
    profile.add_argument("--no-what-if", action="store_true",
                         help="skip the what-if re-evaluations (faster; "
                              "keeps attribution and the verdict)")
    profile.add_argument("--output", default=None, metavar="PATH",
                         help="also write the JSON report here")
    _add_cache_args(profile)


def _add_matrix_args(matrix: argparse.ArgumentParser) -> None:
    matrix.add_argument("--smoke", action="store_true",
                        help="two-model slice for CI; exits non-zero "
                             "unless a crossover model is found")
    _add_steps_arg(matrix, default=6,
                   help="accepted for compatibility; sizes nothing, "
                        "since each cell is one step-plan evaluation")
    matrix.add_argument("--models", default=None,
                        metavar="NAME[,NAME...]",
                        help="benchmark subset (default: all)")
    matrix.add_argument("--strategies", default=None,
                        metavar="NAME[,NAME...]",
                        help="strategy subset (default: all registered)")
    matrix.add_argument("--opt", default=None, metavar="PASS[,PASS...]",
                        help="apply optimization passes to every cell "
                             "(names or 'all')")
    matrix.add_argument("--output", default=None, metavar="PATH",
                        help="also write the full grid as JSON here")
    _add_parallel_args(matrix)


def _add_fleet_args(fleet: argparse.ArgumentParser) -> None:
    fleet.add_argument("--smoke", action="store_true",
                       help="small CI-sized run; also asserts the run "
                            "invariants and exits non-zero on violation")
    fleet.add_argument("--chassis", type=int, default=None,
                       help="Falcon chassis count (default: preset)")
    fleet.add_argument("--hosts", type=int, default=None,
                       help="composable host count (default: preset)")
    fleet.add_argument("--gpus-per-chassis", type=int, default=None,
                       help="GPUs installed per chassis (default: preset)")
    fleet.add_argument("--oversub", type=float, default=None,
                       help="host spine-uplink oversubscription factor "
                            "(default: preset)")
    fleet.add_argument("--trace-jobs", type=int, default=None,
                       help="jobs in the synthetic trace")
    fleet.add_argument("--seed", type=int, default=0,
                       help="trace generator seed")
    fleet.add_argument("--interarrival", type=float, default=None,
                       help="mean job inter-arrival time, seconds")
    fleet.add_argument("--output", default=None, metavar="PATH",
                       help="write the full study JSON here")
    _add_cache_args(fleet)


def _add_plan_args(plan: argparse.ArgumentParser) -> None:
    plan.add_argument("benchmark", choices=benchmark_names())
    plan.add_argument("--strategy", default="ddp",
                      choices=tuple(STRATEGY_REGISTRY))
    plan.add_argument("--config", default="localGPUs",
                      choices=CONFIGURATION_ORDER)
    plan.add_argument("--global-batch", type=_positive_int, default=None,
                      help="override the benchmark's default global batch")
    plan.add_argument("--accumulation", type=_positive_int, default=1,
                      help="gradient-accumulation micro-steps (shrinks "
                           "the micro-batch, e.g. to fit tp/2d plans)")
    plan.add_argument("--validate", action="store_true",
                      help="run the cycle/rank-symmetry/bytes-conservation "
                           "passes; non-zero exit on problems")
    plan.add_argument("--diff", default=None,
                      choices=tuple(STRATEGY_REGISTRY),
                      metavar="OTHER",
                      help="also compile OTHER strategy's plan and print "
                           "an op-level diff against it (the same --opt "
                           "pipeline is applied to both sides)")
    plan.add_argument("--opt", default=None, metavar="PASS[,PASS...]",
                      help="apply optimization passes before printing: "
                           "comma-separated pass names or 'all' "
                           "(bucketing, overlap, copy-fusion, chunk-size)")


#: Every subcommand, in ``--help`` order: name -> (help, add_arguments).
COMMANDS = {
    "list": ("list artifacts and benchmarks", None),
    **{name: (f"print {name}", None)
       for name in ("table1", "table2", "table3", "table4", "fig5")},
    "fig9": ("run the fig9 experiment", _add_steps_arg),
    **{name: (f"run the {name} experiment", _add_sweep_args)
       for name in ("fig10", "fig11", "fig12", "fig13", "fig14", "fig15")},
    "fig16": ("run the fig16 experiment", _add_fig16_args),
    "sharing": ("run the sharing experiment", _add_steps_arg),
    "scaleout": ("run the scaleout experiment", _add_steps_arg),
    "scaling": ("run the scaling experiment", None),
    "fault-tolerance": ("chaos scenario vs resilient training",
                        _add_fault_tolerance_args),
    "elasticity": ("elastic training study: resize cost, lost work vs "
                   "checkpoint-restart, autoscaling policies",
                   _add_elasticity_args),
    "recommend": ("recommend a topology for a benchmark",
                  _add_recommend_args),
    "train": ("run one training job", _add_train_args),
    "trace": ("trace one short run and attribute its time",
              _add_trace_args),
    "fig16-opt": ("fig16 DDP variant with the optimizing plan passes: "
                  "exposed-sync closing the falcon gap",
                  _add_fig16_opt_args),
    "autotune": ("search plan-pass parameters (bucket cap, chunk target, "
                 "overlap on/off) per configuration x variant; prints the "
                 "tuned-vs-default frontier and writes a reusable "
                 "TUNING.json", _add_autotune_args),
    "profile": ("profile one benchmark x strategy x backend cell: "
                "critical-path attribution, utilization, what-if speedup "
                "ceilings, bottleneck verdict", _add_profile_args),
    "matrix": ("strategy x model crossover matrix: every registered "
               "strategy on both backends, winners by time/sample, and "
               "the models whose winner flips between local and falcon",
               _add_matrix_args),
    "fleet": ("multi-chassis fleet study: run a seeded job trace through "
              "the cluster scheduler and report utilization, queueing "
              "delay, and spine contention", _add_fleet_args),
    "plan": ("compile one training step to the plan IR and print it "
             "without simulating", _add_plan_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every subcommand, or with ``command``
    alone (what one invocation of that command needs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composable-system DL performance analysis "
                    "(IPPS 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command else COMMANDS:
        help_text, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if add_arguments:
            add_arguments(p)
    return parser


def _unknown_pass(spec: Optional[str]) -> bool:
    """Print ``error: ...`` and return True when ``--opt`` names a pass
    that does not exist."""
    if spec:
        from .plan.passes import PassError, resolve_passes
        try:
            resolve_passes(spec)
        except PassError as exc:
            sys.stdout.write(f"error: {exc}\n")
            return True
    return False


def _unknown_names(kind: str, names, known) -> bool:
    """Print ``error: ...`` and return True if a name is not ``known``."""
    bad = [name for name in names if name not in known]
    if bad:
        sys.stdout.write(f"error: unknown {kind} {', '.join(bad)}; "
                         f"one of {', '.join(known)}\n")
    return bool(bad)


def _does_not_fit(exc: Exception) -> int:
    """Print why a job could not be built, and the usual fix; exit 2."""
    sys.stdout.write(f"error: {exc}\n"
                     "hint: shrink --global-batch or raise --accumulation\n")
    return 2


def _write_json(path: str, value, announce: bool = True) -> None:
    """``--output``: ``value`` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if announce:
        sys.stdout.write(f"wrote {path}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked subcommand's parser is built; `repro --help`, a
    # missing command and a typo get the full one.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    # Imported here so `--help` stays instant.
    from .experiments import (
        count_dips,
        gpu_config_sweep,
        gpu_utilization_trace,
        reconfiguration_study,
        relative_time_rows,
        render_table,
        ring_placement_study,
        run_configuration,
        software_optimization_study,
        storage_config_sweep,
        table4,
        telemetry_rows,
        tenancy_isolation_study,
        time_reduction_pct,
        traffic_rows,
        TopologyRecommender,
    )
    from .experiments.export import write_records
    from .experiments.sweeps import GPU_CONFIGS

    out = sys.stdout.write

    def result_cache():
        """The cache ``--no-cache``/``--cache-dir`` select."""
        from .experiments import NullCache, ResultCache
        return (NullCache() if args.no_cache
                else ResultCache(args.cache_dir))

    def sweep_kwargs():
        """``jobs``/``cache`` kwargs from the parallel-harness flags."""
        return {"jobs": args.jobs, "cache": result_cache()}

    if args.command == "list":
        out("commands: " + " ".join(COMMANDS) + "\n")
        out("benchmarks: " + " ".join(benchmark_names()) + "\n")
        out("configurations: " + " ".join(CONFIGURATION_ORDER) + "\n")
        return 0

    if args.command == "table1":
        out(render_table(["Component", "Version"],
                         sorted(SOFTWARE_STACK.items()),
                         title="Table I") + "\n")
        return 0

    if args.command == "table2":
        rows = []
        for key in benchmark_names():
            b = get_benchmark(key)
            g = b.build()
            rows.append((b.display_name, b.domain, b.dataset.name,
                         f"{g.params / 1e6:.1f}M", b.paper_depth))
        out(render_table(["Benchmark", "Domain", "Dataset", "Parameters",
                          "Depth"], rows, title="Table II") + "\n")
        return 0

    if args.command == "table3":
        out(render_table(["Label", "Host Configuration"],
                         list(CONFIGURATION_DESCRIPTIONS.items()),
                         title="Table III") + "\n")
        return 0

    if args.command == "table4":
        rows = [(k, round(r.bidirectional_bandwidth_gbs, 2),
                 round(r.p2p_write_latency_us, 2), r.protocol)
                for k, r in table4().items()]
        out(render_table(["Pair", "Bidir BW GB/s", "Latency us",
                          "Protocol"], rows, title="Table IV") + "\n")
        return 0

    if args.command == "fig5":
        out(render_table(
            ["Communication", "Latency", "Bandwidth", "Link Length"],
            [(r.path, r.latency, r.bandwidth, r.link_length)
             for r in COMM_REQUIREMENTS], title="Fig 5") + "\n")
        return 0

    if args.command == "fig9":
        rows = []
        for key in benchmark_names():
            trace = gpu_utilization_trace(key, sim_steps=args.steps * 3,
                                          sim_checkpoints=3)
            rows.append((key, round(trace.plateau_mean, 1),
                         round(trace.peak, 1), count_dips(trace)))
        out(render_table(["Benchmark", "Plateau %", "Peak %", "Dips"],
                         rows, title="Fig 9") + "\n")
        return 0

    if args.command in ("fig10", "fig11", "fig12", "fig13", "fig14"):
        sweep = gpu_config_sweep(sim_steps=args.steps, **sweep_kwargs())
        if args.command == "fig10":
            for metric in ("gpu_utilization", "gpu_memory",
                           "gpu_mem_access"):
                out(render_table(["Benchmark", *GPU_CONFIGS],
                                 telemetry_rows(sweep, metric),
                                 title=f"Fig 10: {metric}") + "\n\n")
        elif args.command == "fig11":
            out(render_table(["Benchmark", "hybrid %", "falcon %"],
                             relative_time_rows(sweep),
                             title="Fig 11") + "\n")
        elif args.command == "fig12":
            out(render_table(["Benchmark", "hybrid GB/s", "falcon GB/s"],
                             traffic_rows(sweep), title="Fig 12") + "\n")
        elif args.command == "fig13":
            out(render_table(["Benchmark", *GPU_CONFIGS],
                             telemetry_rows(sweep, "cpu_utilization"),
                             title="Fig 13") + "\n")
        else:
            out(render_table(["Benchmark", *GPU_CONFIGS],
                             telemetry_rows(sweep, "host_memory"),
                             title="Fig 14") + "\n")
        return 0

    if args.command == "fig15":
        sweep = storage_config_sweep(sim_steps=args.steps,
                                     **sweep_kwargs())
        out(render_table(["Benchmark", "localNVMe %", "falconNVMe %"],
                         relative_time_rows(sweep),
                         title="Fig 15") + "\n")
        return 0

    if args.command == "fig16":
        study = software_optimization_study(**sweep_kwargs())
        rows = [(v, round(study["localGPUs"][v] * 1e3, 3),
                 round(study["falconGPUs"][v] * 1e3, 3))
                for v in study["localGPUs"]]
        out(render_table(["Variant", "local ms/sample",
                          "falcon ms/sample"], rows,
                         title="Fig 16") + "\n")
        ddp = time_reduction_pct(study["localGPUs"]["DDP-FP32"],
                                 study["localGPUs"]["DDP-FP16"])
        out(f"FP16 over FP32 (DDP, local): {ddp:.1f}% reduction\n")
        if args.profile:
            from .experiments import bottleneck_labels
            grid = bottleneck_labels()
            rows = [(v, grid["localGPUs"][v]["label"],
                     grid["falconGPUs"][v]["label"])
                    for v in study["localGPUs"]]
            out("\n" + render_table(
                ["Variant", "local bottleneck", "falcon bottleneck"],
                rows, title="Fig 16 bottleneck annotation "
                            "(critical-path attribution)") + "\n")
        return 0

    if args.command == "fig16-opt":
        from .experiments import optimized_ddp_study
        study = optimized_ddp_study(sim_steps=args.steps,
                                    trace_out=args.trace_out,
                                    **sweep_kwargs())
        rows = []
        for name, profile in study.profiles.items():
            rows.append((name, round(profile.step_time * 1e3, 3),
                         round(profile.exposed_sync * 1e3, 3),
                         round(study.sync_reduction_pct(name), 1),
                         round(study.step_reduction_pct(name), 1)))
        out(render_table(
            ["Passes", "step ms", "exposed-sync ms", "sync cut %",
             "step cut %"], rows,
            title=f"{study.benchmark} DDP-FP16 on "
                  f"{study.configuration}: optimizing plan passes")
            + "\n")
        if study.trace_path:
            out(f"wrote optimized-run trace to {study.trace_path}\n")
        if args.profile:
            from .experiments import bottleneck_labels
            from .experiments.software_opts import (
                OPT_PIPELINES,
                VARIANTS,
            )
            ddp16 = [v for v in VARIANTS if v.name == "DDP-FP16"]
            rows = []
            for name, spec in OPT_PIPELINES:
                grid = bottleneck_labels(
                    configurations=(study.configuration,),
                    variants=ddp16, benchmark=study.benchmark,
                    plan_passes=spec)
                cell = grid[study.configuration]["DDP-FP16"]
                shares = " ".join(f"{k}={v:.0%}" for k, v in
                                  sorted(cell["shares"].items()))
                rows.append((name, cell["label"], shares))
            out("\n" + render_table(
                ["Passes", "Bottleneck", "Critical-path shares"],
                rows, title="Optimized-DDP bottleneck annotation")
                + "\n")
        return 0

    if args.command == "autotune":
        from .experiments.autotune import run_autotune, write_tuning_table
        report = run_autotune(smoke=args.smoke,
                              what_if_ceilings=not args.no_what_if)
        rows = []
        for cell in report["cells"]:
            rows.append((cell["configuration"], cell["variant"],
                         f"{cell['default_makespan_s'] * 1e3:.3f}",
                         f"{cell['tuned_makespan_s'] * 1e3:.3f}",
                         f"{cell['improvement_pct']:.2f}%",
                         cell["tuned_candidate"]))
        out(render_table(
            ["Configuration", "Variant", "Default (ms)", "Tuned (ms)",
             "Win", "Tuned pipeline"],
            rows, title="Autotune frontier: tuned vs default passes")
            + "\n")
        meta = report["meta"]
        out(f"{meta['candidates']} candidates x {meta['cells']} cells "
            f"in {meta['wall_clock_s']:.1f}s\n")
        path = write_tuning_table(report, args.output)
        out(f"wrote {path}\n")
        return 0 if report["tuned_never_slower"] else 1

    if args.command == "sharing":
        iso = tenancy_isolation_study(sim_steps=max(4, args.steps // 2))
        place = ring_placement_study(sim_steps=max(4, args.steps // 2))
        rec = reconfiguration_study(sim_steps=max(4, args.steps // 2))
        out(f"tenant isolation interference: "
            f"{iso.interference_pct:+.2f}%\n")
        out(f"ring crossing penalty: {place.crossing_penalty_pct:+.1f}%, "
            f"shared-crossing interference: "
            f"{place.interference_pct:+.1f}%\n")
        out(f"reconfiguration: {rec.reconfiguration_seconds:.1f}s for "
            f"{rec.gpus_moved} GPUs, breakeven "
            f"{rec.breakeven_seconds:.1f}s\n")
        return 0

    if args.command == "scaleout":
        from .experiments import allreduce_scale_out_study, \
            dual_connection_study
        r = allreduce_scale_out_study()
        out(f"BERT-large gradient allreduce: NVLink "
            f"{r.local_nvlink * 1e3:.0f} ms, falcon "
            f"{r.falcon_pcie * 1e3:.0f} ms "
            f"({r.falcon_vs_local:.1f}x), 10GbE 2-host "
            f"{r.ethernet_2hosts * 1e3:.0f} ms "
            f"({r.ethernet_2hosts / r.local_nvlink:.1f}x)\n")
        d = dual_connection_study(sim_steps=max(4, args.steps // 2))
        out(f"dual-connection drawer on BERT-large: "
            f"{d.dual_vs_single_pct:+.1f}% vs single connection\n")
        return 0

    if args.command == "scaling":
        from .experiments import overhead_vs_batch, overhead_vs_model_size
        depth = overhead_vs_model_size()
        out(render_table(
            ["Layers", "Params M", "Falcon overhead %"],
            [(p.num_layers, round(p.params_m, 1),
              round(p.overhead_pct, 1)) for p in depth],
            title="Overhead vs depth (batch fixed at 6/GPU)") + "\n\n")
        batch = overhead_vs_batch()
        out(render_table(
            ["Batch/GPU", "Falcon overhead %"],
            [(p.batch_per_gpu, round(p.overhead_pct, 1)) for p in batch],
            title="Overhead vs per-GPU batch (BERT-large)") + "\n")
        return 0

    if args.command == "fault-tolerance":
        from .experiments import (checkpoint_cadence_sweep,
                                  fault_tolerance_study)
        r = fault_tolerance_study(
            benchmark=args.benchmark, configuration=args.config,
            sim_steps=args.steps, checkpoint_interval=args.interval,
            spare=not args.no_spare, seed=args.seed)
        out(render_table(
            ["Metric", "Value"],
            [("scenario", r.scenario),
             ("completed", r.completed),
             ("attempts", r.attempts),
             ("faults detected", r.faults),
             ("lost steps (rolled back)", r.lost_steps),
             ("MTTR (s)", round(r.mttr, 2)),
             ("raw throughput (samples/s)", round(r.raw_throughput, 1)),
             ("goodput (samples/s)", round(r.goodput, 1)),
             ("goodput fraction", round(r.goodput_fraction, 3)),
             ("final world size", r.final_world_size),
             ("recovery actions", " ".join(r.recovery_actions) or "-")],
            title=f"{args.benchmark} on {args.config} under chaos")
            + "\n")
        if args.sweep:
            sweep = checkpoint_cadence_sweep(
                benchmark=args.benchmark, sim_steps=max(8, args.steps))
            out("\n" + render_table(
                ["Ckpt interval", "Goodput", "Lost steps", "Wall s"],
                [(s.checkpoint_interval, round(s.goodput, 1),
                  s.lost_steps, round(s.wall_time, 2)) for s in sweep],
                title="Checkpoint cadence under H1 port flap") + "\n")
        return 0

    if args.command == "elasticity":
        from .experiments import elasticity_study
        study = elasticity_study(benchmark=args.benchmark,
                                 sim_steps=args.steps, smoke=args.smoke)
        acc = study["acceptance"]
        out(render_table(
            ["Metric", "Value"],
            [("completed", acc["completed"]),
             ("resizes", acc["resizes"]),
             ("world trajectory",
              " ".join(str(w) for w in acc["world_trajectory"])),
             ("effective batch (per step)",
              " ".join(str(b) for b in set(acc["effective_batches"]))),
             ("batch invariant", acc["batch_invariant"]),
             ("mean recompose (s)", round(acc["mean_recompose_s"], 3)),
             ("mean reshard (s)", round(acc["mean_reshard_s"], 4))],
            title=f"{args.benchmark}: one shrink + one grow "
                  "(acceptance)") + "\n\n")
        lost = study["lost_work"]
        out(render_table(
            ["Recovery", "Lost steps", "Goodput", "Wall s"],
            [(k, lost[k]["lost_steps"],
              round(lost[k]["goodput_samples_s"], 1),
              round(lost[k]["wall_time_s"], 2))
             for k in ("elastic", "checkpoint_restart")],
            title=f"Lost work (saved: {lost['lost_steps_saved']} steps)")
            + "\n\n")
        out(render_table(
            ["Resizes", "Goodput", "Completed"],
            [(r["label"], round(r["goodput_samples_s"], 1),
              r["completed"]) for r in study["reconfiguration_sweep"]],
            title="Goodput vs reconfiguration frequency") + "\n\n")
        out(render_table(
            ["Policy", "Final world", "Wasted grows", "Goodput"],
            [(k, r["final_world_size"], r["grow_abandoned"],
              round(r["goodput_samples_s"], 1))
             for k, r in study["autoscalers"].items()],
            title="Autoscaling policies") + "\n")
        if args.output:
            _write_json(args.output, study)
        if args.smoke:
            ok = (acc["completed"] and acc["batch_invariant"]
                  and acc["resizes"] >= 2
                  and study["lost_work"]["lost_steps_saved"] > 0)
            out("smoke OK\n" if ok else "smoke FAILED\n")
            return 0 if ok else 1
        return 0

    if args.command == "recommend":
        from .experiments import ResultCache
        # Fig. 11's cells: `fig11 --steps N` fills what this reads.
        sweep = gpu_config_sweep(benchmarks=[args.benchmark],
                                 sim_steps=args.steps, cache=ResultCache())
        recommender = TopologyRecommender(tolerance_pct=args.tolerance)
        recommendation = recommender.recommend_from_records(
            list(sweep[args.benchmark].values()))
        out(render_table(
            ["Configuration", "Total s", "Samples/s", "Cost",
             "Slowdown %", "Tput/cost", "Note"],
            recommendation.table_rows(),
            title=f"{args.benchmark}: recommended = "
                  f"{recommendation.recommended}") + "\n")
        return 0

    if args.command == "train":
        if args.trace_out:
            from .experiments import traced_run
            from .telemetry import write_chrome_trace
            run = traced_run(args.benchmark, args.config,
                             sim_steps=args.steps)
            record = run.record
        else:
            run = None
            record = run_configuration(args.benchmark, args.config,
                                       sim_steps=args.steps)
        out(render_table(
            ["Metric", "Value"],
            [("step time (ms)", round(record.step_time * 1e3, 2)),
             ("throughput (samples/s)", round(record.throughput, 1)),
             ("epoch time (s)", round(record.epoch_time, 1)),
             ("total time (s)", round(record.total_time, 1)),
             ("GPU utilization (%)", round(record.gpu_utilization, 1)),
             ("falcon traffic (GB/s)",
              round(record.falcon_gpu_traffic_gbs, 2))],
            title=f"{args.benchmark} on {args.config}") + "\n")
        if args.export:
            path = write_records([record], args.export)
            out(f"wrote {path}\n")
        if run is not None:
            path = write_chrome_trace(run.tracer, args.trace_out)
            out(f"wrote trace ({len(run.tracer)} spans) to {path}\n")
        return 0

    if args.command == "trace":
        from .experiments import overhead_split, traced_run
        from .telemetry import (
            ATTRIBUTION_CATEGORIES,
            render_ascii_timeline,
            render_flame_summary,
            to_chrome_trace,
            validate_chrome_trace,
            write_chrome_trace,
        )
        from .training.loop import WARMUP_STEPS

        steps = max(3, args.steps // 3) if args.smoke else args.steps
        configuration = TRACE_BACKENDS[args.backend]

        def show(run, label):
            profile = run.profile
            out(render_table(
                ["Step", "Wall ms",
                 *(f"{c} ms" for c in ATTRIBUTION_CATEGORIES)],
                [(w.index, round(w.wall * 1e3, 3),
                  *(round(w.attr.seconds.get(c, 0.0) * 1e3, 3)
                    for c in ATTRIBUTION_CATEGORIES))
                 for w in profile.steps],
                title=f"{args.benchmark} on {label}: "
                      "per-step attribution (critical path)") + "\n")
            steady = profile.steady_attr
            parts = ", ".join(f"{c} {steady.seconds.get(c, 0.0) * 1e3:.3f}"
                              for c in ATTRIBUTION_CATEGORIES)
            out(f"steady step: {steady.wall * 1e3:.3f} ms ({parts} ms)\n")
            out(f"reconstructed total: "
                f"{profile.reconstructed_total_s:.3f} s vs reported "
                f"{run.record.total_time:.3f} s "
                f"(rel err {profile.reconciliation_rel_err:.2e})\n\n")

        if args.backend == "local":
            run = traced_run(args.benchmark, configuration,
                             sim_steps=steps)
            show(run, configuration)
        else:
            split = overhead_split(args.benchmark, composed=configuration,
                                   sim_steps=steps)
            run = split.composed
            show(run, configuration)
            out(render_table(
                ["Category", "local ms", f"{args.backend} ms",
                 "delta ms", "share %"],
                split.split_rows(),
                title=f"Fig 11 split: {args.benchmark} "
                      f"{configuration} vs localGPUs "
                      f"(+{split.overhead_pct:.1f}% total)") + "\n\n")

        out(render_flame_summary(run.tracer) + "\n\n")
        windows = run.profile.steps
        if windows:
            first = (windows[WARMUP_STEPS:] or windows)[0]
            out("steady-state step timeline "
                f"(rank 0, step {first.index}):\n")
            out(render_ascii_timeline(run.tracer, run.track,
                                      first.start, first.end,
                                      width=args.timeline_width) + "\n")

        trace = to_chrome_trace(run.tracer)
        if args.trace_out:
            path = write_chrome_trace(run.tracer, args.trace_out)
            out(f"\nwrote trace ({len(trace['traceEvents'])} events) "
                f"to {path}\n")
        if args.smoke:
            errors = validate_chrome_trace(trace)
            if errors:
                for error in errors[:20]:
                    out(f"trace schema violation: {error}\n")
                return 1
            out(f"\ntrace OK: {len(trace['traceEvents'])} events pass "
                "the trace_event schema\n")
        return 0

    if args.command == "profile":
        from .experiments import run_cells
        from .experiments.parallel import profile_report_cell
        from .telemetry import render_report_text

        if _unknown_pass(args.opt):
            return 2
        cell = profile_report_cell(
            args.benchmark, TRACE_BACKENDS[args.backend], args.strategy,
            plan_passes=args.opt, sim_steps=args.steps,
            global_batch=args.global_batch,
            accumulation_steps=args.accumulation,
            evaluate_what_ifs=not args.no_what_if)
        try:
            [report] = run_cells([cell], cache=result_cache())
        except (ValueError, MemoryError) as exc:
            return _does_not_fit(exc)
        # The cell keys the resolved passes; the report shows the
        # spelling this invocation used.
        report = {**report,
                  "meta": {**report["meta"], "plan_passes": args.opt}}
        if args.format == "json":
            out(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            out(render_report_text(report) + "\n")
        if args.output:  # keep a JSON stdout parseable
            _write_json(args.output, report,
                        announce=args.format != "json")
        return 0

    if args.command == "fleet":
        import dataclasses

        from .core import FLEET_FOUR_CHASSIS
        from .experiments import run_cells
        from .experiments.fleet import SMOKE_SPEC
        from .experiments.parallel import fleet_cell

        base = SMOKE_SPEC if args.smoke else FLEET_FOUR_CHASSIS
        given = {"chassis": args.chassis, "hosts": args.hosts,
                 "gpus_per_chassis": args.gpus_per_chassis,
                 "oversubscription": args.oversub}
        try:
            # replace() re-runs FleetSpec's validation.
            spec = dataclasses.replace(
                base, name="cli",
                **{k: v for k, v in given.items() if v is not None})
            cell = fleet_cell(smoke=args.smoke, spec=spec,
                              jobs=args.trace_jobs, seed=args.seed,
                              mean_interarrival=args.interarrival)
            [report] = run_cells([cell], cache=result_cache())
        except ValueError as exc:
            out(f"error: {exc}\n")
            return 2
        out(render_table(
            ["Job", "Benchmark", "GPUs", "Host", "Chassis", "Queue s",
             "Run s", "Samples/s"],
            [(r["job_id"], r["benchmark"], r["gpus"], r["host"],
              "+".join(str(c) for c in r["chassis"]),
              round(r["queue_delay_s"], 1), round(r["run_s"], 1),
              round(r["throughput_samples_s"], 1))
             for r in report["records"]],
            title=f"fleet trace (seed {report['meta']['seed']}): "
                  f"{report['jobs']} jobs on {report['chassis']} "
                  f"chassis x {report['total_gpus'] // report['chassis']}"
                  " GPUs") + "\n\n")
        out(render_table(
            ["Metric", "Value"],
            [("makespan (s)", round(report["makespan_s"], 1)),
             ("GPU utilization", f"{report['gpu_utilization']:.1%}"),
             ("mean queue delay (s)",
              round(report["mean_queue_delay_s"], 2)),
             ("max queue delay (s)",
              round(report["max_queue_delay_s"], 2)),
             ("cross-chassis jobs", report["cross_chassis_jobs"]),
             ("host-uplink oversubscription",
              f"{report['oversubscription']:g}:1"),
             ("busiest spine link", report["busiest_spine_link"])],
            title="fleet aggregates") + "\n\n")
        traffic = report["spine_traffic_gbs"]
        out(render_table(
            ["Spine link", "to spine GB/s", "from spine GB/s"],
            [(label, round(t["to_spine_gbs"], 3),
              round(t["from_spine_gbs"], 3))
             for label, t in sorted(traffic.items())],
            title="cross-job spine contention (run mean)") + "\n")
        if args.output:
            _write_json(args.output, report)
        if args.smoke:
            checks = report["checks"]
            for name, ok in checks.items():
                if name != "ok" and not ok:
                    out(f"invariant violated: {name}\n")
            out("smoke OK\n" if checks["ok"] else "smoke FAILED\n")
            return 0 if checks["ok"] else 1
        return 0

    if args.command == "matrix":
        from .experiments import format_matrix, run_matrix
        from .experiments.matrix import MATRIX_MODELS, SMOKE_MODELS

        models = tuple(args.models.split(",")) if args.models else None
        strategies = (tuple(args.strategies.split(","))
                      if args.strategies else None)
        if models is None:
            models = SMOKE_MODELS if args.smoke else MATRIX_MODELS
        if (_unknown_names("benchmark(s)", models, benchmark_names())
                or _unknown_names("strategy(ies)", strategies or (),
                                  tuple(STRATEGY_REGISTRY))
                or _unknown_pass(args.opt)):
            return 2
        report = run_matrix(models=models, strategies=strategies,
                            plan_passes=args.opt, **sweep_kwargs())
        out(format_matrix(report) + "\n")
        if args.output:
            _write_json(args.output, report.as_dict())
        if args.smoke:
            if not report.crossover_models:
                out("matrix smoke FAILED: no model's winning strategy "
                    "differs between backends\n")
                return 1
            out(f"matrix smoke OK: crossover on "
                f"{', '.join(report.crossover_models)}\n")
        return 0

    if args.command == "plan":
        from .plan import diff_plans, format_diff, format_plan, validate_plan

        if _unknown_pass(args.opt):
            return 2
        # A fresh system per compile: building the job does the whole
        # compile (costs, memory checks, plan, passes) without advancing
        # the simulation, so nothing is ever run.
        config = dict(global_batch=args.global_batch,
                      accumulation_steps=args.accumulation,
                      plan_passes=args.opt)
        try:
            job = ComposableSystem().job(args.benchmark, args.config,
                                         args.strategy, **config)
        except (ValueError, MemoryError) as exc:
            return _does_not_fit(exc)
        plan = job.step_plan
        out(format_plan(plan) + "\n")
        for report in job.pass_reports:
            out(f"pass {report.summary()}\n")
        status = 0
        if args.validate:
            problems = validate_plan(plan)
            if problems:
                for problem in problems:
                    out(f"plan problem: {problem}\n")
                status = 1
            else:
                out(f"\nplan OK: {len(plan)} ops pass the structure, "
                    "cycle, rank-symmetry, and bytes-conservation "
                    "passes\n")
        if args.diff:
            other = ComposableSystem().job(args.benchmark, args.config,
                                           args.diff, **config).step_plan
            out("\n" + format_diff(diff_plans(plan, other), plan, other)
                + "\n")
        return status

    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
