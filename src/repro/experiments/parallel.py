"""Parallel, memoized experiment execution.

The paper's evaluation is a grid of (benchmark × configuration ×
strategy × precision) cells, and every figure study used to replay its
slice of that grid serially through the full simulator.  This module
factors grid execution into three pieces:

- **Cells** — plain-dict descriptions of one simulation (picklable, so
  they can cross a process boundary, and canonically JSON-serializable,
  so they can be hashed).  Five kinds: ``experiment`` (one training
  run, :func:`experiment_cell`), ``step`` (one step-plan evaluation,
  :func:`step_cell`), ``matrix`` (one ``repro matrix`` cell,
  :func:`matrix_cell`), ``profile`` (one ``repro profile``
  bottleneck report, :func:`profile_report_cell`) and ``fleet`` (one
  ``repro fleet`` trace report, :func:`fleet_cell`).
- **ResultCache** — a content-addressed on-disk cache.  The key is the
  SHA-256 of the cell's canonical JSON plus a digest of the model's
  source (:func:`model_source_digest`), so a cell is recomputed iff
  anything that could change its result changed: benchmark,
  configuration, strategy (and its knobs), precision policy, batch, step
  counts, plan passes, jitter seed, or the simulator code.  Corrupt or
  truncated entries read as misses and are recomputed.
- **run_cells** — the fan-out engine: serves hits from the cache,
  executes misses either in-process or across a
  ``concurrent.futures.ProcessPoolExecutor`` (:func:`worker_count`
  workers, never more than the misses), and stores fresh results back.

Figure studies build their grids as cells and call :func:`run_cells`;
the CLI exposes ``--jobs N``, ``--no-cache``, and ``--cache-dir`` on
the sweep commands, and ``--no-cache`` and ``--cache-dir`` on
``profile`` and ``fleet`` (one cell each, nothing to fan out).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .runner import ExperimentRecord

__all__ = [
    "ResultCache",
    "NullCache",
    "default_cache_dir",
    "experiment_cell",
    "fleet_cell",
    "matrix_cell",
    "model_source_digest",
    "profile_report_cell",
    "record_from_value",
    "record_to_value",
    "run_cells",
    "step_cell",
    "worker_count",
]

#: Environment override for the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentRecord)
                       if f.name != "result")

#: The ``repro`` subpackages whose source decides a cached value: the
#: simulator, the management layer composing it, the fleet scheduler
#: and trace generator, and the telemetry and experiment code that turn
#: a run or a plan timing into a cell value.
MODEL_PACKAGES = ("sim", "fabric", "devices", "plan", "training",
                  "workloads", "core", "management", "fleet",
                  "telemetry", "experiments")
#: Root of the ``repro`` package the cache-key digest reads.
MODEL_SOURCE_ROOT = Path(__file__).parent.parent


@functools.lru_cache(maxsize=None)
def model_source_digest(root: Path) -> str:
    """SHA-256 over the ``.py`` files of :data:`MODEL_PACKAGES` under
    ``root`` (a ``repro`` package directory).

    Each file contributes its path relative to ``root`` and its bytes,
    in sorted order, so editing, adding, removing or renaming any model
    source changes the digest.  Computed on first use and memoized per
    root: never at import, and not once per cache key.
    """
    digest = hashlib.sha256()
    for package in MODEL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


class NullCache:
    """A cache that never hits and never writes (``--no-cache``)."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def load(self, cell: dict) -> Optional[dict]:
        self.misses += 1
        return None

    def store(self, cell: dict, value: dict) -> None:
        pass


class ResultCache:
    """Content-addressed experiment-result cache on local disk.

    One JSON file per cell, named by the cell's content hash.  Values
    are plain dicts of scalars (never live simulation objects).
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, cell: dict) -> str:
        model = model_source_digest(MODEL_SOURCE_ROOT)
        payload = json.dumps({"cell": cell, "model": model},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path(self, cell: dict) -> Path:
        return self.root / f"{self.key(cell)}.json"

    def load(self, cell: dict) -> Optional[dict]:
        """The cached value for ``cell``, or ``None``.

        Unreadable or corrupt entries (truncated writes, bad JSON, wrong
        shape) are treated as misses — the cell simply recomputes.
        """
        path = self.path(cell)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            value = entry["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if not isinstance(value, dict):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, cell: dict, value: dict) -> None:
        """Write ``value`` as ``cell``'s entry, atomically.

        Each call writes its own temporary file beside the entry and
        renames it into place, so processes storing the same cell at
        once never share a half-written file; the last rename wins.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(cell)
        entry = {"cell": cell, "value": value}
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{path.stem}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.stores += 1


# -- cell construction -------------------------------------------------------

def _strategy_spec(strategy) -> Optional[dict]:
    """Canonical (registry key, constructor kwargs) form of a strategy.

    Strategies are tiny value objects whose instance dict mirrors their
    constructor signature.  A type :data:`STRATEGY_REGISTRY` does not
    hold, or a non-JSON knob, cannot be rebuilt from a cell and raises
    :class:`ValueError`.
    """
    if strategy is None:
        return None
    from ..training import STRATEGY_REGISTRY
    name = {cls: key for key, cls in STRATEGY_REGISTRY.items()}.get(
        type(strategy))
    if name is None:
        raise ValueError(
            f"strategy {type(strategy).__name__} is not a "
            f"STRATEGY_REGISTRY type; one of {tuple(STRATEGY_REGISTRY)}")
    kwargs = dict(sorted(vars(strategy).items()))
    try:
        json.dumps(kwargs)
    except (TypeError, ValueError):
        raise ValueError(f"strategy {name!r} has knobs that are not "
                         f"JSON values: {kwargs!r}") from None
    return {"name": name, "kwargs": kwargs}


def _passes_spec(plan_passes):
    """Resolve a ``plan_passes`` spec to its canonical knob-valued form.

    Cell keys must reflect the *resolved* pass parameters (bucket cap,
    chunk target), not the spelling of the spec: ``"bucketing"`` and
    ``GradientBucketing(cap_bytes=25e6)`` compile different plans and
    may not alias in the cache.  Returns ``None`` for ``None`` and
    raises for specs :func:`resolve_passes` cannot build.
    """
    if plan_passes is None:
        return None
    from ..plan.passes import passes_to_spec
    return passes_to_spec(plan_passes)


def _training_cell(kind: str, benchmark: str, configuration: str,
                   strategy, policy, global_batch: Optional[int],
                   train_kwargs: dict, **fields) -> dict:
    """The cell dict shared by ``experiment`` and ``step`` cells.

    Raises :class:`ValueError` naming the argument a cell cannot hold:
    an unregistered or non-JSON strategy, unresolvable ``plan_passes``,
    or a non-JSON training kwarg.
    """
    from ..plan.passes import PassError
    train_kwargs = dict(sorted(train_kwargs.items()))
    if "plan_passes" in train_kwargs:
        try:
            train_kwargs["plan_passes"] = _passes_spec(
                train_kwargs["plan_passes"])
        except PassError as exc:
            raise ValueError(f"plan_passes: {exc}") from None
    cell = {
        "kind": kind,
        "benchmark": benchmark,
        "configuration": configuration,
        "strategy": _strategy_spec(strategy),
        "policy": getattr(policy, "name", None),
        "global_batch": global_batch,
        **fields,
        "train_kwargs": train_kwargs,
    }
    try:
        json.dumps(cell)
    except (TypeError, ValueError):
        raise ValueError(f"training kwargs are not JSON values: "
                         f"{train_kwargs!r}") from None
    return cell


def experiment_cell(benchmark: str, configuration: str,
                    strategy=None, policy=None,
                    global_batch: Optional[int] = None,
                    sim_steps: int = 10, sim_checkpoints: int = 1,
                    **train_kwargs) -> dict:
    """A cell for one :func:`~repro.experiments.run_configuration` call.

    Raises :class:`ValueError` when the call cannot be expressed as a
    pure, serializable cell (see :func:`_training_cell`).
    """
    return _training_cell("experiment", benchmark, configuration,
                          strategy, policy, global_batch, train_kwargs,
                          sim_steps=sim_steps,
                          sim_checkpoints=sim_checkpoints)


def step_cell(benchmark: str, configuration: str,
              strategy=None, policy=None,
              global_batch: Optional[int] = None,
              **train_kwargs) -> dict:
    """A cell for one evaluation of a training job's step plan.

    Its value is ``{"step_time", "exposed_sync", "engine"}``: the
    steady-state seconds per optimizer step, rank 0's seconds of
    communication no compute hides (see
    :func:`~repro.plan.executor.exposed_comm_seconds`), and the engine
    that produced them (``fastpath``, or ``executor`` when the fast
    path refused).  No step count: one plan evaluation is the step
    time, so nothing is trained.  Raises :class:`ValueError` under the
    same conditions as :func:`experiment_cell`.
    """
    return _training_cell("step", benchmark, configuration, strategy,
                          policy, global_batch, train_kwargs)


def matrix_cell(benchmark: str, configuration: str, strategy: str,
                plan_passes) -> dict:
    """A cell for one (backend, model, strategy :data:`STRATEGY_REGISTRY`
    key) of ``repro matrix``; its value is the
    :class:`~repro.experiments.matrix.MatrixCell` fields."""
    return {"kind": "matrix", "benchmark": benchmark,
            "configuration": configuration, "strategy": strategy,
            "plan_passes": _passes_spec(plan_passes)}


def profile_report_cell(benchmark: str, configuration: str, strategy: str,
                        plan_passes=None, sim_steps: Optional[int] = None,
                        global_batch: Optional[int] = None,
                        accumulation_steps: int = 1,
                        evaluate_what_ifs: bool = True) -> dict:
    """A cell for one ``repro profile`` report: ``strategy`` is a
    :data:`STRATEGY_REGISTRY` key and the other arguments are
    :func:`~repro.experiments.profile_cell`'s.

    Its value is the :meth:`~repro.telemetry.BottleneckReport.to_json`
    dict.  The key holds the resolved passes, so spellings of one
    pipeline share an entry; the value's ``meta.plan_passes`` is that
    resolved spec, and a caller showing the user's spelling sets it
    after the load.
    """
    return {"kind": "profile", "benchmark": benchmark,
            "configuration": configuration, "strategy": strategy,
            "plan_passes": _passes_spec(plan_passes),
            "sim_steps": sim_steps, "global_batch": global_batch,
            "accumulation_steps": accumulation_steps,
            "what_if": evaluate_what_ifs}


def fleet_cell(smoke: bool = False, spec=None,
               jobs: Optional[int] = None, seed: int = 0,
               mean_interarrival: Optional[float] = None,
               sim_steps: Optional[tuple] = None) -> dict:
    """A cell for one ``repro fleet`` report; the arguments are
    :func:`~repro.experiments.fleet_study`'s.

    Its value is the study's report dict.  The key holds the inputs as
    :func:`~repro.experiments.fleet.resolve_fleet_inputs` resolves them,
    so ``smoke=True`` and its spelled-out defaults share an entry.  The
    whole :class:`~repro.core.FleetSpec` enters the key, its name too,
    because the report names the spec.
    """
    from .fleet import resolve_fleet_inputs
    spec, jobs, mean_interarrival, sim_steps = resolve_fleet_inputs(
        smoke, spec, jobs, mean_interarrival, sim_steps)
    return {"kind": "fleet", "spec": dataclasses.asdict(spec), "jobs": jobs,
            "seed": seed, "mean_interarrival": mean_interarrival,
            "sim_steps": list(sim_steps), "smoke": smoke}


def record_to_value(record: ExperimentRecord) -> dict:
    """Flatten a record to its cacheable scalar fields."""
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def record_from_value(value: dict) -> ExperimentRecord:
    """Rebuild a record from cached scalars (``result`` is ``None``:
    cached cells carry no live simulation objects)."""
    return ExperimentRecord(result=None,
                            **{name: value[name]
                               for name in _RECORD_FIELDS})


# -- cell execution ----------------------------------------------------------

def _build_strategy(spec: Optional[dict]):
    if spec is None:
        return None
    from ..training import STRATEGY_REGISTRY
    return STRATEGY_REGISTRY[spec["name"]](**spec["kwargs"])


def _build_policy(name: Optional[str]):
    from ..training import AMP_POLICY, FP32_POLICY
    if name is None:
        return AMP_POLICY
    policies = {p.name: p for p in (AMP_POLICY, FP32_POLICY)}
    try:
        return policies[name]
    except KeyError:
        raise ValueError(f"unknown precision policy {name!r}") from None


def _build_passes(spec):
    """Pass instances from a cell's canonical ``plan_passes`` spec."""
    from ..plan.passes import passes_from_spec
    return None if spec is None else passes_from_spec(spec)


def _train_kwargs(cell: dict) -> dict:
    """A training cell's extra TrainingConfig kwargs, passes rebuilt."""
    train_kwargs = dict(cell["train_kwargs"])
    if "plan_passes" in train_kwargs:
        train_kwargs["plan_passes"] = _build_passes(
            train_kwargs["plan_passes"])
    return train_kwargs


def _execute_cell(cell: dict) -> dict:
    """Run one cell to completion and return its (JSONable) value.

    Module-level by design: :class:`ProcessPoolExecutor` workers import
    it by qualified name when cells fan out across processes.
    """
    kind = cell["kind"]
    if kind == "experiment":
        from .runner import run_configuration
        record = run_configuration(
            cell["benchmark"], cell["configuration"],
            strategy=_build_strategy(cell["strategy"]),
            policy=_build_policy(cell["policy"]),
            global_batch=cell["global_batch"],
            sim_steps=cell["sim_steps"],
            sim_checkpoints=cell["sim_checkpoints"],
            **_train_kwargs(cell),
        )
        return record_to_value(record)
    if kind == "step":
        from ..core import ComposableSystem
        from ..plan.executor import exposed_comm_seconds
        from ..plan.fastpath import evaluate_plan
        job = ComposableSystem().job(
            cell["benchmark"], cell["configuration"],
            _build_strategy(cell["strategy"]),
            _build_policy(cell["policy"]),
            global_batch=cell["global_batch"],
            **_train_kwargs(cell))
        timing = evaluate_plan(job.step_plan, job._exec_ctx)
        return {"step_time": timing.makespan,
                "exposed_sync": exposed_comm_seconds(job.step_plan,
                                                     timing.op_times),
                "engine": timing.mode}
    if kind == "matrix":
        from .matrix import evaluate_cell
        return evaluate_cell(cell["benchmark"], cell["configuration"],
                             cell["strategy"],
                             _build_passes(cell["plan_passes"]))
    if kind == "profile":
        from .profiling import profile_cell
        report = profile_cell(
            cell["benchmark"], cell["configuration"], cell["strategy"],
            sim_steps=cell["sim_steps"],
            plan_passes=_build_passes(cell["plan_passes"]),
            evaluate_what_ifs=cell["what_if"],
            global_batch=cell["global_batch"],
            accumulation_steps=cell["accumulation_steps"])
        report.meta["plan_passes"] = cell["plan_passes"]
        return report.to_json()
    if kind == "fleet":
        from ..core import FleetSpec
        from .fleet import fleet_study
        return fleet_study(smoke=cell["smoke"],
                           spec=FleetSpec(**cell["spec"]),
                           jobs=cell["jobs"], seed=cell["seed"],
                           mean_interarrival=cell["mean_interarrival"],
                           sim_steps=cell["sim_steps"])
    raise ValueError(f"unknown cell kind {kind!r}")


#: Most worker processes a sweep starts when ``jobs`` is not given.
MAX_DEFAULT_JOBS = 4


def worker_count(jobs: Optional[int], misses: int) -> int:
    """Worker processes for ``misses`` cells: ``jobs``, or by default
    the CPUs this process may run on (at most :data:`MAX_DEFAULT_JOBS`),
    never more than the misses.  1 means in-process, no pool."""
    if jobs is None:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # not every platform has affinity masks
            usable = os.cpu_count() or 1
        jobs = min(usable, MAX_DEFAULT_JOBS)
    return max(1, min(jobs, misses))


def run_cells(cells: list, jobs: Optional[int] = 1, cache=None) -> list:
    """Evaluate cells, serving cached hits and fanning out the misses.

    Returns values in cell order.  Misses execute on a process pool of
    :func:`worker_count` workers (``jobs=None`` picks the default), or
    in-process when that is 1; the parent stores their results, so the
    cache needs no cross-process locking.  ``cache=None`` means no
    memoization (a throwaway :class:`NullCache`).
    """
    cache = cache if cache is not None else NullCache()
    results: list = [None] * len(cells)
    pending: list = []
    for index, cell in enumerate(cells):
        value = cache.load(cell)
        if value is not None:
            results[index] = value
        else:
            pending.append(index)
    if pending:
        workers = worker_count(jobs, len(pending))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(_execute_cell,
                                      [cells[i] for i in pending]))
        else:
            fresh = [_execute_cell(cells[i]) for i in pending]
        for index, value in zip(pending, fresh):
            results[index] = value
            cache.store(cells[index], value)
    return results
