"""End-to-end benchmark: the study commands users run, timed as they run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fig16|matrix|profile|fleet
        [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
    python3 benchmarks/e2e/run.py --record-expected [--workload NAME]

A run is a closed loop with one client: iterations run one after the
other until another would overrun ``--seconds`` (there is at least one).
An iteration runs the workload's commands through ``repro.cli.main`` in
a fresh interpreter against an empty result-cache directory (the cold
run), then in fresh interpreters against the now-warm directory (the
re-runs; see ``workloads.py``).  Cache directories live under ``.work``
beside this file, so runs never touch ``~/.cache/repro``.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples.  ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics of the traced ones (see ``layers.py``)
and the tracing overhead.  Every metric is printed as
``name value unit n=SAMPLES``; the last line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The run is correct when every command exits 0, each cold run's output
hashes to ``expected.json`` and every re-run prints what its cold run
printed.  A differing output is saved beside the results for diffing.
``--out FILE`` appends the run, with every sample, to a JSON list that
``compare.py`` reads.  ``--record-expected`` rewrites ``expected.json``
from one iteration per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

#: A child still running after this long is killed and the run fails,
#: well within the 180 s a run may take.
CHILD_TIMEOUT_S = 120
#: Mean seconds of ``child.probe_loop`` on the host the baseline was
#: measured on (Intel Xeon, 2 vCPUs) at its usual speed.  That host ran
#: up to twice as slow for seconds at a time, so end-to-end times are
#: scaled by this over the mean probe time of the process that measured
#: them: host seconds at the baseline host's usual speed.
PROBE_REF_S = 0.16e-3

END_TO_END_UNITS = {"wall_s": "s", "rerun_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a command)."""


def run_child(spec: dict, cache_dir: Path) -> dict:
    """Run ``child.py`` on ``spec``; its result, or HarnessError."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir), TMPDIR=str(WORK))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child ran over {CHILD_TIMEOUT_S}s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"child exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def iteration(workload: str, seed: int, index: int, trace: bool) -> dict:
    """The cold run and the re-runs of ``workload``, one process each."""
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK))
    processes, passes = workloads.reruns(workload)

    def spec(passes: int) -> dict:
        return {"commands": workloads.commands(workload, seed, str(cache)),
                "clear_memo": workloads.clears_memo(workload),
                "passes": passes, "trace": trace, "iteration": index}

    try:
        return {"cold": run_child(spec(1), cache),
                "reruns": [run_child(spec(passes), cache)
                           for _ in range(processes)]}
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple:
    """``(untraced, traced)`` iterations of one run."""
    deadline = time.perf_counter() + seconds
    plain: list = []
    traced: list = []
    longest = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        start = time.perf_counter()
        (traced if use_trace else plain).append(
            iteration(workload, seed, len(plain) + len(traced), use_trace))
        longest = max(longest, time.perf_counter() - start)
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() + longest > deadline:
            return plain, traced


def children(it: dict) -> list:
    return [it["cold"], *it["reruns"]]


def cold_output(it: dict) -> str:
    return "".join(c["stdout"] for c in it["cold"]["passes"][0])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rerun_mismatches(it: dict) -> list:
    """``(label, stdout)`` of each re-run invocation unlike its cold one."""
    cold = it["cold"]["passes"][0]
    return [(f"rerun{r}.{p}.{i}", warm["stdout"])
            for r, child in enumerate(it["reruns"])
            for p, warm_pass in enumerate(child["passes"])
            for i, (first, warm) in enumerate(zip(cold, warm_pass))
            if warm["stdout"] != first["stdout"]]


def check(workload: str, seed: int, iterations: list, expected: dict,
          save_dir: Path) -> dict:
    """Invocation counts and output mismatches over ``iterations``."""
    want = expected.get(workload, {}).get(str(seed % workloads.SEEDS))
    attempted = failed = mismatched = 0
    for index, it in enumerate(iterations):
        invocations = [c for child in children(it)
                       for one_pass in child["passes"] for c in one_pass]
        attempted += len(invocations)
        failed += sum(c["rc"] != 0 for c in invocations)
        saved = []
        if digest(cold_output(it)) != want:
            saved.append(("cold", cold_output(it)))
        saved += rerun_mismatches(it)
        for label, text in saved:
            path = save_dir / (f"mismatch-{workload}-seed{seed}-"
                               f"iter{index}-{label}.txt")
            path.write_text(text, encoding="utf-8")
            print(f"output mismatch: wrote {path}", file=sys.stderr)
        mismatched += bool(saved)
    return {"attempted": attempted, "failed": failed,
            "mismatched_iterations": mismatched}


def pass_s(one_pass: list) -> float:
    return sum(c["seconds"] for c in one_pass)


def speed_scale(child: dict) -> float:
    """Factor taking a child's times to the baseline host's speed."""
    return PROBE_REF_S / statistics.mean(child["probe_s"])


def scaled_cold_s(it: dict) -> float:
    return pass_s(it["cold"]["passes"][0]) * speed_scale(it["cold"])


def end_to_end(plain: list) -> dict:
    """Per-metric samples of the untraced iterations."""
    return {
        "wall_s": [scaled_cold_s(it) for it in plain],
        "rerun_s": [statistics.median(map(pass_s, child["passes"]))
                    * speed_scale(child)
                    for it in plain for child in it["reruns"]],
        "setup_s": [child["setup_s"] * speed_scale(child)
                    for it in plain for child in children(it)],
        "peak_rss_mb": [it["cold"]["rss_mb"] for it in plain],
    }


def merged_trace(it: dict) -> dict:
    """The tracer totals of every process of a traced iteration."""
    total: dict = {"calls": {}, "self_s": {}, "counts": {}, "memo": {}}
    for child in children(it):
        for part, values in total.items():
            for name, value in child["trace"][part].items():
                values[name] = values.get(name, 0) + value
    return total


def per_layer(plain: list, traced: list) -> dict:
    """Per-metric samples of the traced iterations (unscaled times)."""
    runs = [layers.metrics(merged_trace(it)) for it in traced]
    samples = {name: [run[name] for run in runs] for name in runs[0]}
    untraced = statistics.median(map(scaled_cold_s, plain))
    samples["trace_overhead"] = [scaled_cold_s(it) / untraced - 1
                                 for it in traced]
    return samples


def spans_of(traced: list) -> list:
    """Every traced process's spans, with ``parent`` indexes re-based."""
    spans: list = []
    for it in traced:
        for child in children(it):
            base = len(spans)
            for span in child["trace"]["spans"]:
                parent = span["parent"]
                spans.append({**span, "parent": None if parent is None
                              else base + parent})
    return spans


def provenance() -> dict:
    """Where a result file was measured: commit, CPU count and model."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def record_expected(names: list) -> None:
    expected = load_expected()
    for workload in names:
        expected[workload] = {}
        for seed in range(workloads.SEEDS):
            it = iteration(workload, seed, 0, False)
            got = digest(cold_output(it))
            counts = check(workload, seed, [it],
                           {workload: {str(seed): got}}, WORK)
            if counts["failed"] or counts["mismatched_iterations"]:
                raise HarnessError(f"{workload} seed {seed}: a command "
                                   "failed or a re-run printed otherwise")
            expected[workload][str(seed)] = got
            print(f"{workload} seed {seed}: {got}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, metavar="FILE")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    try:
        if args.record_expected:
            record_expected([args.workload] if args.workload
                            else list(workloads.WORKLOADS))
            return 0
        trace = bool(args.trace)
        plain, traced = measure(args.workload, args.seed, args.seconds,
                                trace)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    save_dir = args.out.resolve().parent if args.out else WORK
    save_dir.mkdir(parents=True, exist_ok=True)
    counts = check(args.workload, args.seed, plain + traced,
                   load_expected(), save_dir)
    if trace:
        samples = per_layer(plain, traced)
        units = {name: layers.unit(name) for name in samples}
        spans = save_dir / f"spans-{args.workload}.json"
        spans.write_text(json.dumps(spans_of(traced)) + "\n")
    else:
        samples = end_to_end(plain)
        units = END_TO_END_UNITS
    metrics = {name: {"value": statistics.median(values),
                      "unit": units[name]}
               for name, values in samples.items()}
    correct = counts["failed"] == 0 and counts["mismatched_iterations"] == 0

    if args.out:
        append_record(args.out, {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "correct": correct, **counts, "metrics": metrics,
            "samples": samples,
            "probe_mean_s": [statistics.mean(child["probe_s"])
                             for it in plain + traced
                             for child in children(it)],
            "provenance": provenance()})
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']} "
              f"n={len(samples[name])}")
    print(json.dumps({"correct": correct,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
