"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                    # artifacts and benchmarks
    python -m repro table1|table2|table3|table4|fig5
    python -m repro fig9  [--steps N]
    python -m repro fig10|fig11|fig12|fig13|fig14  [--steps N]
    python -m repro fig15 [--steps N]
    python -m repro fig16 [--steps N] [--profile] [--matrix]
    # figure sweeps also accept [--jobs N] [--no-cache] [--cache-dir DIR]
    python -m repro sharing                 # future-work tenancy studies
    python -m repro fault-tolerance [--config NAME] [--steps N] [--seed S]
                                            # chaos + recovery study
    python -m repro elasticity [--benchmark B] [--steps N] [--smoke]
                               [--output study.json]
                                            # elastic resize study
    python -m repro recommend <benchmark>   # topology recommendation
    python -m repro train <benchmark> [--config NAME] [--steps N]
                                            [--export out.csv|out.json]
                                            [--trace-out trace.json]
    python -m repro trace <benchmark> [--backend local|falcon|hybrid]
                                      [--steps N] [--trace-out trace.json]
                                      [--smoke]
    python -m repro plan <benchmark> [--strategy dp|ddp|sharded|pipeline
                                                 |tp|2d|fsdp]
                                     [--config NAME] [--validate]
                                     [--global-batch N] [--accumulation N]
                                     [--diff OTHER-STRATEGY]
                                     [--opt PASS[,PASS...]|all]
    python -m repro matrix [--smoke] [--steps N] [--models A,B]
                           [--strategies A,B] [--opt PASS|all]
                           [--output grid.json]
                                            # strategy x model crossover
                                            # frontier on both backends
    python -m repro fig16-opt [--steps N] [--trace-out trace.json]
    python -m repro perfbench [--smoke] [--jobs N] [--output DIR]
    python -m repro profile <benchmark> [--backend local|falcon|hybrid]
                                        [--strategy dp|...|tp|2d|fsdp]
                                        [--steps N] [--format text|json]
                                        [--global-batch N]
                                        [--accumulation N]
                                        [--no-what-if] [--output PATH]
    python -m repro regress [--baseline PATH] [--tolerance F] [--full]
                            [--output PATH]
    python -m repro fleet [--smoke] [--chassis N] [--hosts N]
                          [--gpus-per-chassis N] [--oversub F]
                          [--trace-jobs N] [--seed S] [--interarrival F]
                          [--output PATH]
                                            # multi-chassis fleet study

Every command prints the same rows the paper's tables/figures report.
``trace`` writes a Chrome/Perfetto ``trace_event`` JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev) and prints the per-step
compute/comm/stall/checkpoint attribution; non-local backends also trace
a local baseline and print the Fig. 11 overhead split derived from spans.
"""

from __future__ import annotations

import argparse
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

__all__ = ["main", "build_parser"]

#: ``trace --backend`` choices -> Table III configurations.
TRACE_BACKENDS = {
    "local": "localGPUs",
    "falcon": "falconGPUs",
    "hybrid": "hybridGPUs",
}

def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--no-cache``/``--cache-dir`` for the sweep commands."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="run sweep cells across N worker processes")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the on-disk result "
                             "cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")


#: ``--steps`` help where every cell is one step-plan evaluation
#: (``fig16`` and its ``--matrix``, ``matrix``, ``scaling``).
_COMPAT_STEPS_HELP = ("accepted for compatibility; sizes nothing, since "
                      "each cell is one step-plan evaluation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composable-system DL performance analysis "
                    "(IPPS 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list artifacts and benchmarks")
    for name in ("table1", "table2", "table3", "table4", "fig5"):
        sub.add_parser(name, help=f"print {name}")
    for name in ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                 "fig15", "fig16", "sharing", "scaleout", "scaling"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--steps", type=int, default=8,
                       help=_COMPAT_STEPS_HELP
                       if name in ("fig16", "scaling")
                       else "simulated optimizer steps per run")
        if name.startswith("fig1"):
            # The Figs. 10-16 sweeps run many independent cells; they
            # take the parallel/memoized harness knobs.
            _add_parallel_args(p)
        if name == "fig16":
            p.add_argument("--profile", action="store_true",
                           help="annotate every grid cell with its "
                                "bottleneck label (plan-level "
                                "critical-path attribution)")
            p.add_argument("--matrix", action="store_true",
                           help="also print the strategy crossover "
                                "frontier for the fig16 benchmark "
                                "(every registered strategy on both "
                                "backends)")

    ft = sub.add_parser("fault-tolerance",
                        help="chaos scenario vs resilient training")
    ft.add_argument("--benchmark", default="bert-large",
                    choices=benchmark_names())
    ft.add_argument("--config", default="falconGPUs",
                    choices=CONFIGURATION_ORDER)
    ft.add_argument("--steps", type=int, default=8)
    ft.add_argument("--interval", type=int, default=2,
                    help="checkpoint every N optimizer steps")
    ft.add_argument("--seed", type=int, default=None,
                    help="randomized scenario seed (default: scripted "
                         "cable-pull scenario)")
    ft.add_argument("--no-spare", action="store_true",
                    help="do not install a standby chassis GPU")
    ft.add_argument("--sweep", action="store_true",
                    help="also sweep checkpoint cadence under a port flap")

    el = sub.add_parser("elasticity",
                        help="elastic training study: resize cost, "
                             "lost work vs checkpoint-restart, "
                             "autoscaling policies")
    el.add_argument("--benchmark", default="resnet50",
                    choices=benchmark_names())
    el.add_argument("--steps", type=int, default=12)
    el.add_argument("--smoke", action="store_true",
                    help="small run for CI; also verifies the batch "
                         "invariant and exits non-zero on violation")
    el.add_argument("--output", default=None, metavar="PATH",
                    help="write the full study JSON here")

    rec = sub.add_parser("recommend",
                         help="recommend a topology for a benchmark")
    rec.add_argument("benchmark", choices=benchmark_names())
    rec.add_argument("--steps", type=int, default=8)
    rec.add_argument("--tolerance", type=float, default=7.0,
                     help="acceptable slowdown vs fastest, percent")

    train = sub.add_parser("train", help="run one training job")
    train.add_argument("benchmark", choices=benchmark_names())
    train.add_argument("--config", default="localGPUs",
                       choices=CONFIGURATION_ORDER)
    train.add_argument("--steps", type=int, default=10)
    train.add_argument("--export", default=None,
                       help="write the record to a .json or .csv file")
    train.add_argument("--trace-out", default=None,
                       help="also capture spans and write a Chrome "
                            "trace_event JSON file")

    trace = sub.add_parser(
        "trace", help="trace one short run and attribute its time")
    trace.add_argument("benchmark", choices=benchmark_names())
    trace.add_argument("--backend", default="falcon",
                       choices=sorted(TRACE_BACKENDS),
                       help="GPU attachment to trace (default: falcon; "
                            "non-local backends also trace a local "
                            "baseline for the overhead split)")
    trace.add_argument("--steps", type=int, default=10)
    trace.add_argument("--trace-out", default=None,
                       help="write the Chrome trace_event JSON here")
    trace.add_argument("--smoke", action="store_true",
                       help="tiny run + validate the trace against the "
                            "trace_event schema; non-zero exit on "
                            "violations")
    trace.add_argument("--timeline-width", type=int, default=72,
                       help="columns for the ASCII step timeline "
                            "(clamped to [8, 400])")

    fig16 = sub.add_parser(
        "fig16-opt", help="fig16 DDP variant with the optimizing plan "
                          "passes: exposed-sync closing the falcon gap")
    fig16.add_argument("--steps", type=int, default=6,
                       help="simulated optimizer steps per run")
    fig16.add_argument("--trace-out", default=None,
                       help="write a Chrome trace of the optimized run")
    fig16.add_argument("--profile", action="store_true",
                       help="annotate each optimized DDP cell with its "
                            "bottleneck label")
    _add_parallel_args(fig16)

    perfbench = sub.add_parser(
        "perfbench", help="benchmark the simulator itself: fast-path vs "
                          "event-loop plan evaluation and the Fig. 16 "
                          "grid wall-clock; writes BENCH_<date>.json")
    perfbench.add_argument("--smoke", action="store_true",
                           help="small cell subset for CI")
    perfbench.add_argument("--jobs", type=int, default=1,
                           help="also time the grid across N processes")
    perfbench.add_argument("--output", default=None, metavar="DIR",
                           help="directory for BENCH_<date>.json "
                                "(default: current directory)")

    autotune = sub.add_parser(
        "autotune", help="search plan-pass parameters (bucket cap, "
                         "chunk target, overlap on/off) per "
                         "configuration x variant; prints the "
                         "tuned-vs-default frontier and writes a "
                         "reusable TUNING.json")
    autotune.add_argument("--smoke", action="store_true",
                          help="reduced candidate grid and cell subset "
                               "for CI")
    autotune.add_argument("--no-what-if", action="store_true",
                          help="skip the per-cell what-if ceilings")
    autotune.add_argument("--output", default=None, metavar="DIR",
                          help="directory for TUNING.json "
                               "(default: current directory)")

    profile = sub.add_parser(
        "profile", help="profile one benchmark x strategy x backend "
                        "cell: critical-path attribution, utilization, "
                        "what-if speedup ceilings, bottleneck verdict")
    profile.add_argument("benchmark", choices=benchmark_names())
    profile.add_argument("--backend", default="falcon",
                         choices=sorted(TRACE_BACKENDS),
                         help="GPU attachment (default: falcon)")
    profile.add_argument("--strategy", default="ddp",
                         choices=tuple(STRATEGY_REGISTRY))
    profile.add_argument("--steps", type=int, default=None,
                         help="simulated optimizer steps (default: the "
                              "training config's)")
    profile.add_argument("--opt", default=None, metavar="PASS[,PASS...]",
                         help="apply optimization passes before "
                              "profiling (names or 'all')")
    profile.add_argument("--global-batch", type=int, default=None,
                         help="override the benchmark's native global "
                              "batch (memory-hungry strategies may "
                              "need a smaller one)")
    profile.add_argument("--accumulation", type=int, default=1,
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

    matrix = sub.add_parser(
        "matrix", help="strategy x model crossover matrix: every "
                       "registered strategy on both backends, winners "
                       "by time/sample, and the models whose winner "
                       "flips between local and falcon")
    matrix.add_argument("--smoke", action="store_true",
                        help="two-model slice for CI; exits non-zero "
                             "unless a crossover model is found")
    matrix.add_argument("--steps", type=int, default=6,
                        help=_COMPAT_STEPS_HELP)
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

    fleet = sub.add_parser(
        "fleet", help="multi-chassis fleet study: run a seeded job "
                      "trace through the cluster scheduler and report "
                      "utilization, queueing delay, and spine "
                      "contention")
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

    regress = sub.add_parser(
        "regress", help="gate a fresh perfbench run against the "
                        "committed BENCH_*.json baseline; non-zero "
                        "exit on semantic drift or perf regression")
    regress.add_argument("--baseline", default=None, metavar="PATH",
                         help="baseline report (default: newest "
                              "BENCH_*.json in the current directory)")
    regress.add_argument("--tolerance", type=float, default=None,
                         help="allowed fractional speedup drop "
                              "(default: 0.35)")
    regress.add_argument("--full", action="store_true",
                         help="run the full perfbench instead of the "
                              "smoke subset")
    regress.add_argument("--output", default=None, metavar="PATH",
                         help="write the comparison JSON here")

    plan = sub.add_parser(
        "plan", help="compile one training step to the plan IR and "
                     "print it without simulating")
    plan.add_argument("benchmark", choices=benchmark_names())
    plan.add_argument("--strategy", default="ddp",
                      choices=tuple(STRATEGY_REGISTRY))
    plan.add_argument("--config", default="localGPUs",
                      choices=CONFIGURATION_ORDER)
    plan.add_argument("--global-batch", type=int, default=None,
                      help="override the benchmark's default global batch")
    plan.add_argument("--accumulation", type=int, default=1,
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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

    def sweep_kwargs():
        """``jobs``/``cache`` kwargs from the parallel-harness flags."""
        from .experiments import NullCache, ResultCache
        cache = (NullCache() if args.no_cache
                 else ResultCache(args.cache_dir))
        return {"jobs": args.jobs, "cache": cache}

    if args.command == "list":
        out("artifacts: table1 table2 table3 table4 fig5 fig9 fig10 "
            "fig11 fig12 fig13 fig14 fig15 fig16 sharing "
            "fault-tolerance elasticity fleet\n")
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
        if getattr(args, "profile", False):
            from .experiments import bottleneck_labels
            grid = bottleneck_labels()
            rows = [(v, grid["localGPUs"][v]["label"],
                     grid["falconGPUs"][v]["label"])
                    for v in study["localGPUs"]]
            out("\n" + render_table(
                ["Variant", "local bottleneck", "falcon bottleneck"],
                rows, title="Fig 16 bottleneck annotation "
                            "(critical-path attribution)") + "\n")
        if getattr(args, "matrix", False):
            from .experiments import format_matrix, run_matrix
            report = run_matrix(models=("bert-large",), **sweep_kwargs())
            out("\n" + format_matrix(report) + "\n")
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
        if getattr(args, "profile", False):
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

    if args.command == "perfbench":
        from .experiments import run_perfbench, write_bench_report
        report = run_perfbench(smoke=args.smoke, jobs=args.jobs)
        out(render_table(
            ["Configuration", "Variant", "Ops", "Fast steps/s",
             "Executor steps/s", "Speedup"],
            [(r["configuration"], r["variant"], r["ops"],
              round(r["fastpath_steps_per_s"], 1),
              round(r["executor_steps_per_s"], 1),
              round(r["speedup"], 2))
             for r in report["plan_eval"]],
            title="Plan evaluation: fast path vs event-loop executor")
            + "\n\n")
        grid = report["fig16_grid"]
        out(render_table(
            ["Metric", "Value"],
            [("cells", grid["cells"]),
             ("sim steps / cell", grid["sim_steps"]),
             ("event-loop study (s)", round(grid["baseline_eventloop_s"],
                                            3)),
             ("fast-path grid (s)", round(grid["fastpath_s"], 3)),
             ("fast-path grid, --jobs (s)",
              "-" if grid.get("fastpath_jobs_s") is None
              else round(grid["fastpath_jobs_s"], 3)),
             ("speedup", round(grid["speedup"], 2)),
             ("values match (<=1e-5)", grid["values_match"]),
             ("max relative error", f"{grid['max_rel_err']:.2e}")],
            title="Fig. 16 grid wall-clock") + "\n")
        path = write_bench_report(report, args.output)
        out(f"wrote {path}\n")
        return 0 if grid["values_match"] else 1

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
        import json

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
            with open(args.output, "w") as fh:
                json.dump(study, fh, indent=1)
            out(f"wrote {args.output}\n")
        if args.smoke:
            ok = (acc["completed"] and acc["batch_invariant"]
                  and acc["resizes"] >= 2
                  and study["lost_work"]["lost_steps_saved"] > 0)
            out("smoke OK\n" if ok else "smoke FAILED\n")
            return 0 if ok else 1
        return 0

    if args.command == "recommend":
        recommender = TopologyRecommender(tolerance_pct=args.tolerance)
        recommendation = recommender.evaluate(args.benchmark,
                                              sim_steps=args.steps)
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
        from .experiments.tracing import CATEGORIES
        from .telemetry import (
            render_ascii_timeline,
            render_flame_summary,
            to_chrome_trace,
            validate_chrome_trace,
            write_chrome_trace,
        )

        steps = max(3, args.steps // 3) if args.smoke else args.steps
        configuration = TRACE_BACKENDS[args.backend]

        def show(run, label):
            out(render_table(
                ["Step", "Wall ms",
                 *(f"{c} ms" for c in CATEGORIES)],
                run.attribution_rows(),
                title=f"{args.benchmark} on {label}: "
                      "per-step attribution") + "\n")
            split = run.mean_step_split()
            parts = ", ".join(f"{c} {split[c] * 1e3:.3f}"
                              for c in CATEGORIES)
            out(f"steady step: {run.mean_step_seconds * 1e3:.3f} ms "
                f"({parts} ms)\n")
            out(f"span-reconstructed total: "
                f"{run.reconstructed_total:.3f} s vs reported "
                f"{run.record.total_time:.3f} s "
                f"(error {run.reconciliation_error * 100:.3f}%)\n\n")

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
        if run.steps:
            first = run.steady_steps[0]
            out("steady-state step timeline "
                f"(rank 0, step {first.step}):\n")
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
        import json

        from .experiments import profile_cell

        if args.opt:
            from .plan.passes import PassError, resolve_passes
            try:
                resolve_passes(args.opt)
            except PassError as exc:
                out(f"error: {exc}\n")
                return 2
        try:
            report = profile_cell(
                args.benchmark, TRACE_BACKENDS[args.backend],
                args.strategy, sim_steps=args.steps,
                plan_passes=args.opt,
                evaluate_what_ifs=not args.no_what_if,
                global_batch=args.global_batch,
                accumulation_steps=args.accumulation)
        except (ValueError, MemoryError) as exc:
            out(f"error: {exc}\n")
            out("hint: shrink --global-batch or raise "
                "--accumulation\n")
            return 2
        if args.format == "json":
            out(report.render_json() + "\n")
        else:
            out(report.render_text() + "\n")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            if args.format != "json":  # keep stdout parseable
                out(f"wrote {args.output}\n")
        return 0

    if args.command == "fleet":
        import json

        from .core import FLEET_FOUR_CHASSIS, FleetSpec
        from .experiments import fleet_study
        from .experiments.fleet import SMOKE_SPEC

        base = SMOKE_SPEC if args.smoke else FLEET_FOUR_CHASSIS
        spec = FleetSpec(
            name="cli",
            chassis=args.chassis or base.chassis,
            hosts=args.hosts or base.hosts,
            gpus_per_chassis=(args.gpus_per_chassis
                              or base.gpus_per_chassis),
            oversubscription=(args.oversub if args.oversub is not None
                              else base.oversubscription))
        report = fleet_study(smoke=args.smoke, spec=spec,
                             jobs=args.trace_jobs, seed=args.seed,
                             mean_interarrival=args.interarrival)
        out(render_table(
            ["Job", "Benchmark", "GPUs", "Host", "Chassis", "Queue s",
             "Run s", "Samples/s"],
            [(r["job_id"], r["benchmark"], r["gpus"], r["host"],
              "+".join(str(c) for c in r["chassis"]),
              round(r["queue_delay_s"], 1), round(r["run_s"], 1),
              round(r["throughput_samples_s"], 1))
             for r in report["records"]],
            title=f"fleet trace (seed {args.seed}): "
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
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            out(f"wrote {args.output}\n")
        if args.smoke:
            checks = report["checks"]
            for name, ok in checks.items():
                if name != "ok" and not ok:
                    out(f"invariant violated: {name}\n")
            out("smoke OK\n" if checks["ok"] else "smoke FAILED\n")
            return 0 if checks["ok"] else 1
        return 0

    if args.command == "regress":
        import json

        from .experiments import run_regression
        from .experiments.regress import DEFAULT_TOLERANCE

        tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                     else args.tolerance)
        try:
            report = run_regression(baseline_path=args.baseline,
                                    tolerance=tolerance,
                                    smoke=not args.full)
        except (FileNotFoundError, ValueError) as exc:
            out(f"error: {exc}\n")
            return 2
        out(report.render_text() + "\n")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            out(f"wrote {args.output}\n")
        return 0 if report.ok else 1

    if args.command == "matrix":
        import json

        from .experiments import format_matrix, run_matrix
        from .experiments.matrix import MATRIX_MODELS, SMOKE_MODELS

        models = tuple(args.models.split(",")) if args.models else None
        strategies = (tuple(args.strategies.split(","))
                      if args.strategies else None)
        if models is None:
            models = SMOKE_MODELS if args.smoke else MATRIX_MODELS
        known = benchmark_names()
        bad = [m for m in models if m not in known]
        if bad:
            out(f"error: unknown benchmark(s) {', '.join(bad)}; "
                f"one of {', '.join(known)}\n")
            return 2
        if args.opt:
            from .plan.passes import PassError, resolve_passes
            try:
                resolve_passes(args.opt)
            except PassError as exc:
                out(f"error: {exc}\n")
                return 2
        report = run_matrix(models=models, strategies=strategies,
                            plan_passes=args.opt, **sweep_kwargs())
        out(format_matrix(report) + "\n")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            out(f"wrote {args.output}\n")
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

        if args.opt:
            from .plan.passes import PassError, resolve_passes
            try:
                resolve_passes(args.opt)
            except PassError as exc:
                out(f"error: {exc}\n")
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
            out(f"error: {exc}\n"
                "hint: shrink --global-batch or raise --accumulation\n")
            return 2
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
