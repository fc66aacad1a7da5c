"""NumPy loads only where an array is built.

Plan evaluation and result-cache hits build no array, so importing the
package, the commands that answer from plan evaluation, and every warm
re-run must work in a fresh interpreter where ``import numpy`` fails
(``sys.modules["numpy"] = None``) and print the bytes of a normal run.
Each check runs in a subprocess: the test process has numpy loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs ``repro.cli.main`` on argv with ``import numpy`` failing.
BLOCKED = ("import sys; sys.modules['numpy'] = None; "
           "from repro.cli import main; sys.exit(main(sys.argv[1:]))")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _repro(argv: list, blocked: bool = False) -> str:
    proc = _python("-c", BLOCKED, *argv) if blocked \
        else _python("-m", "repro", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_its_cli_loads_no_numpy():
    proc = _python("-c", "import sys, repro, repro.cli, repro.experiments; "
                         "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["fig16", "--no-cache"],
    ["plan", "bert-large", "--strategy", "ddp", "--validate"],
], ids=["fig16", "plan"])
def test_plan_evaluation_prints_the_same_bytes_without_numpy(argv):
    assert _repro(argv, blocked=True) == _repro(argv)


@pytest.mark.parametrize("argv", [
    ["fleet", "--smoke", "--output", "{tmp}/fleet.json"],
    ["profile", "resnet50", "--backend", "local", "--strategy", "ddp",
     "--steps", "2"],
], ids=["fleet", "profile"])
def test_a_warm_rerun_prints_the_cold_bytes_without_numpy(argv, tmp_path):
    """The cold run (numpy loaded) fills the cache; the blocked re-run
    prints its stdout and writes its ``--output`` file byte for byte."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    cold = _repro(argv)
    outputs = sorted(tmp_path.glob("*.json"))
    cold_files = [p.read_bytes() for p in outputs]
    for p in outputs:
        p.unlink()
    assert _repro(argv, blocked=True) == cold
    assert [p.read_bytes() for p in outputs] == cold_files


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the plan leg forks only on Linux")
def test_a_fresh_profile_process_forks_before_numpy_loads():
    """A profile cell forks its plan leg after building the job; in a
    fresh process nothing has loaded numpy (and its BLAS threads) yet."""
    script = textwrap.dedent("""
        import os, sys
        from repro.experiments import profiling
        # The forked placement, even where one CPU is usable.
        profiling.worker_count = lambda jobs, misses: 2
        real_fork, seen = os.fork, []

        def fork():
            seen.append("numpy" in sys.modules)
            return real_fork()

        os.fork = fork
        from repro.cli import main
        code = main(sys.argv[1:])
        print(seen, file=sys.stderr)
        sys.exit(code)
    """)
    proc = _python("-c", script, "profile", "resnet50", "--backend",
                   "local", "--strategy", "ddp", "--steps", "2",
                   "--no-cache")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[False]"
