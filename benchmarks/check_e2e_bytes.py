"""Check the end-to-end workloads' printed bytes against their record.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/check_e2e_bytes.py

For each workload of ``benchmarks/e2e/workloads.py``, and for each
distinct output hash that ``benchmarks/e2e/expected.json`` records for
it (at the lowest seed that records it: one seed for ``fig16``,
``matrix`` and ``profile``, whose commands ignore the seed, and one per
job trace for ``fleet``), runs its commands through ``repro.cli.main``
in this interpreter against an empty result cache, with standard output
captured and, where the workload's ``clears_memo`` says so, the compile
memo cleared before each command.  The SHA-256 of the concatenated
output must equal the recorded hash.  Each run is then repeated against
the now-warm cache, as a user re-runs a command, and must print the
same bytes again.  Exits non-zero on a failed command, a differing hash
or a warm run that differs from the cold one.  The files under
``benchmarks/e2e`` are only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import workloads  # noqa: E402


def output_of(workload: str, seed: int, cache_dir: str) -> str:
    """The concatenated stdout of ``workload``'s commands at ``seed``."""
    from repro.cli import main
    from repro.training import clear_plan_compile_cache

    buf = io.StringIO()
    for argv in workloads.commands(workload, seed, cache_dir):
        if workloads.clears_memo(workload):
            clear_plan_compile_cache()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        if rc:
            raise SystemExit(f"{workload}: {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def seeds_to_check(recorded: dict) -> list:
    """The lowest seed recording each distinct hash, in seed order."""
    first: dict = {}
    for seed in sorted(recorded, key=int):
        first.setdefault(recorded[seed], int(seed))
    return sorted(first.values())


def main() -> int:
    expected = json.loads((E2E / "expected.json").read_text())
    failures = 0
    with tempfile.TemporaryDirectory() as root:
        os.environ["REPRO_CACHE_DIR"] = root
        for workload in workloads.WORKLOADS:
            recorded = expected[workload]
            for seed in seeds_to_check(recorded):
                cache_dir = str(Path(root) / workload / str(seed))
                start = time.perf_counter()
                cold = output_of(workload, seed, cache_dir)
                cold_s = time.perf_counter() - start
                warm = output_of(workload, seed, cache_dir)
                warm_s = time.perf_counter() - start - cold_s
                got = hashlib.sha256(cold.encode("utf-8")).hexdigest()
                ok = got == recorded[str(seed)]
                same = warm == cold
                failures += (not ok) + (not same)
                print(f"{workload:8s} seed {seed} "
                      f"{'ok' if ok else 'MISMATCH'} {got[:16]} "
                      f"({cold_s:.1f}s); warm re-run "
                      f"{'same bytes' if same else 'DIFFERS'} "
                      f"({warm_s:.2f}s)", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
