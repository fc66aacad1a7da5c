"""Compare two sets of benchmark results, metric by metric.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out``; A is
the reference (the parent commit), B the candidate.  For each workload
and each metric of ``BENCHMARK.json`` it takes one value per run from
each side, the run's reported median, or every sample of the run when a
side holds only one run of the workload.  It prints the median and
quartiles of each side, then a verdict for the metrics that have a bound:

- ``unresolved``: either side's spread (interquartile range over median)
  exceeds the bound, and not every B value beats every A value;
- ``worse`` / ``better``: B's median moved by more than the bound;
- ``unchanged``: otherwise.

The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list, b: list, bound: float, better: str = "lower") -> str:
    """The verdict for B against A on one metric; see the module doc."""
    sign = 1 if better == "lower" else -1
    a_median, b_median = quartiles(a)[1], quartiles(b)[1]
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    change = sign * (b_median - a_median) / abs(a_median)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def values(records: list) -> dict:
    """``{workload: {metric: values}}``: the median of each run that
    reports the metric, or every sample when only one run does."""
    runs: dict = {}
    for record in records:
        for name, samples in record["samples"].items():
            runs.setdefault(record["workload"], {}).setdefault(
                name, []).append((record["metrics"][name]["value"], samples))
    return {workload: {name: (group[0][1] if len(group) == 1
                              else [median for median, _ in group])
                       for name, group in metrics.items()}
            for workload, metrics in runs.items()}


def _fmt(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(a_records: list, b_records: list, benchmark: dict) -> tuple:
    """Report lines and whether any metric got worse."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    order = [m["name"] for m in benchmark["end_to_end"]
             + benchmark["per_layer"]]
    a_side, b_side = values(a_records), values(b_records)
    lines = [f"{'workload':<9} {'metric':<34} {'A median [q1, q3]':<36} "
             f"{'B median [q1, q3]':<36} {'change':>8}  verdict"]
    worse = False
    for workload in sorted(set(a_side) & set(b_side)):
        for name in order:
            a = a_side[workload].get(name)
            b = b_side[workload].get(name)
            if not a or not b:
                continue
            a_median = quartiles(a)[1]
            change = ((quartiles(b)[1] - a_median) / abs(a_median)
                      if a_median else 0.0)
            spec = bounds.get(name)
            result = ("no bound" if spec is None
                      else verdict(a, b, spec["bound"], spec["better"]))
            worse |= result == "worse"
            lines.append(f"{workload:<9} {name:<34} {_fmt(a):<36} "
                         f"{_fmt(b):<36} {change:>+8.1%}  {result}")
    return lines, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, worse = compare(a, b, json.loads(BENCHMARK.read_text()))
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
