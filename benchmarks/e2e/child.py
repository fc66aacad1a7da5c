"""One process of a benchmark iteration, started fresh by ``run.py``.

Usage: ``python child.py SPEC_JSON``.  The child imports ``repro`` (timed
as ``setup_s``), then runs the spec's ``commands`` through
``repro.cli.main`` ``passes`` times, with standard output captured.
With ``clear_memo`` it clears the compile memo before each command, so
that each starts as cold as a fresh process.  With ``trace`` it wraps
the layers first (see ``layers.py``); ``iteration`` tags its spans.

A :class:`SpeedProbe` samples the host's speed throughout (``probe_s``),
which ``run.py`` uses to correct for it.  The last line of standard
output is the result as JSON.  The exit code is non-zero only when the
harness itself failed; a command that fails is reported in the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def invoke(main, argv: list, clock) -> dict:
    """Run one CLI command with its standard output captured."""
    buf = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed invocation
        traceback.print_exc()
        rc = 1
    seconds = clock() - start
    return {"argv": argv, "rc": rc or 0, "seconds": seconds,
            "stdout": buf.getvalue()}


def probe_loop(steps: int = 2000) -> int:
    """A fixed integer loop: no allocation and no code of ``repro``."""
    x = 0
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe:
    """Samples the host's speed all through the child's life.

    Every ``INTERVAL_S`` of wall time a timer signal interrupts the
    program and times ``probe_loop``.  The host's speed drifts and
    stalls within seconds, and the loop slows with it, so the mean loop
    time over a process tells how fast the host ran meanwhile; ``run.py``
    scales the process's times by it.  :meth:`clock` leaves out the time
    spent sampling, about 0.3%.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        """Seconds from an arbitrary origin, less time spent sampling."""
        return time.perf_counter() - self.spent


def run(spec: dict) -> dict:
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(SRC))
    start = probe.clock()
    import repro.cli
    import repro.experiments  # what every command body imports first
    setup_s = probe.clock() - start

    from repro.training import clear_plan_compile_cache, plan_compile_stats

    main = repro.cli.main
    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer, install
        tracer = Tracer(iteration=spec["iteration"])
        install(tracer, layers.targets())
        main = tracer.wrap("command", main)

    memo = {"hits": 0, "misses": 0}

    def absorb_memo_stats() -> None:
        for key, value in plan_compile_stats().items():
            memo[key] += value

    def run_pass() -> list:
        outcomes = []
        for argv in spec["commands"]:
            if spec["clear_memo"]:
                absorb_memo_stats()
                clear_plan_compile_cache()
            outcomes.append(invoke(main, argv, probe.clock))
        return outcomes

    passes = [run_pass() for _ in range(spec["passes"])]
    probe.stop()
    result = {
        "setup_s": setup_s,
        "passes": passes,
        # ru_maxrss is in KiB on Linux.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": probe.samples,
    }
    absorb_memo_stats()
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "counts": tracer.counts, "memo": memo,
                           "spans": tracer.spans}
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
