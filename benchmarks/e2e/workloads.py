"""The benchmark's workloads: the study commands one iteration runs.

An iteration runs a workload's commands in a fresh interpreter against an
empty result cache (the cold run), then again in fresh interpreters
against the now-warm cache (the re-runs), as a user re-runs a command.
Seeds are taken modulo ``SEEDS``.

The benchmark's acceptance takes the spread of each metric across ten
seeds, so a seed may change a workload's inputs only where that leaves
the cost alone.  Only ``fleet`` has such inputs: job traces of equal
size.  Reordering the ``matrix`` strategies or the ``profile`` commands
changed the peak memory by up to 13%, so their order is fixed.
"""

from __future__ import annotations

__all__ = ["WORKLOADS", "SEEDS", "commands", "reruns", "clears_memo"]

WORKLOADS = ("fig16", "matrix", "profile", "fleet")
SEEDS = 10

#: ``repro profile`` cells on falcon: (model, strategy, ``--opt all``).
PROFILE_TABLE = (
    ("bert-large", "ddp", False),
    ("bert-large", "ddp", True),
    ("bert-large", "sharded", False),
    ("bert-base", "ddp", False),
    ("bert-large", "fsdp", False),
    ("bert-large", "sharded", True),
    ("bert-base", "sharded", False),
    ("bert-large", "pipeline", False),
    ("bert-base", "ddp", True),
    ("bert-large", "dp", False),
)

#: ``repro fleet --seed`` per benchmark seed.  Over trace seeds 0-59 a
#: 128-job trace simulates 0.18M to 0.37M events and peaks at 50 to
#: 75 MB; these ten simulate 0.240M to 0.255M events and peak at 57.6 to
#: 60.4 MB.
FLEET_TRACE_SEEDS = (5, 7, 15, 19, 21, 41, 42, 45, 53, 56)


def _cache_args(cache_dir: str) -> list:
    return ["--jobs", "1", "--cache-dir", cache_dir]


def commands(workload: str, seed: int, cache_dir: str) -> list:
    """The argv lists of one pass of ``workload`` at ``seed``.

    - ``fig16``: the paper's fixed 12-cell grid.
    - ``matrix``: every strategy on the CI smoke pair, both backends.
    - ``profile``: the ten ``PROFILE_TABLE`` cells, in order.
    - ``fleet``: the default four-chassis fleet on the seed's job trace.
    """
    if workload == "fig16":
        return [["fig16", *_cache_args(cache_dir)]]
    if workload == "matrix":
        return [["matrix", "--models", "resnet50,bert-large", "--steps",
                 "4", *_cache_args(cache_dir)]]
    if workload == "profile":
        return [["profile", model, "--backend", "falcon", "--strategy",
                 strategy, "--steps", "4", *(["--opt", "all"] if opt else [])]
                for model, strategy, opt in PROFILE_TABLE]
    if workload == "fleet":
        trace = FLEET_TRACE_SEEDS[seed % SEEDS]
        return [["fleet", "--trace-jobs", "128", "--interarrival", "0.5",
                 "--seed", str(trace)]]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")


def reruns(workload: str) -> tuple:
    """``(re-run processes, passes in each)`` per iteration.

    ``fig16``'s re-run only reads the result cache and takes a few
    milliseconds, and one process reads it up to 20% faster than the
    next: its ``rerun_s`` samples four processes, each the median of 20
    passes.
    """
    return (4, 20) if workload == "fig16" else (1, 1)


def clears_memo(workload: str) -> bool:
    """Whether each command starts from an empty compile memo.

    ``profile`` runs ten commands in one interpreter; clearing the memo
    between them makes each as cold as it is for a user, who runs each
    in a fresh process.
    """
    return workload == "profile"
