"""Parallel, memoized experiment execution.

The paper's evaluation is a grid of (benchmark × configuration ×
strategy × precision) cells, and every figure study used to replay its
slice of that grid serially through the full simulator.  This module
factors grid execution into three pieces:

- **Cells** — plain-dict descriptions of one simulation (picklable, so
  they can cross a process boundary, and canonically JSON-serializable,
  so they can be hashed).
- **ResultCache** — a content-addressed on-disk cache.  The key is the
  SHA-256 of the cell's canonical JSON plus a digest of the model's
  source (:func:`model_source_digest`), so a cell is recomputed iff
  anything that could change its result changed: benchmark,
  configuration, strategy (and its knobs), precision policy, batch, step
  counts, plan passes, jitter seed, or the simulator code.  Corrupt or
  truncated entries read as misses and are recomputed.
- **run_cells** — the fan-out engine: serves hits from the cache,
  executes misses either in-process or across a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs > 1``), and stores
  fresh results back.

Figure studies build their grids as cells and call :func:`run_cells`;
the CLI exposes ``--jobs N``, ``--no-cache``, and ``--cache-dir``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .runner import ExperimentRecord

__all__ = [
    "ResultCache",
    "NullCache",
    "default_cache_dir",
    "experiment_cell",
    "model_source_digest",
    "opt_profile_cell",
    "record_from_value",
    "record_to_value",
    "run_cells",
    "step_cell",
]

#: Environment override for the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentRecord)
                       if f.name != "result")

#: The ``repro`` subpackages whose source decides a simulated result.
MODEL_PACKAGES = ("sim", "fabric", "devices", "plan", "training",
                  "workloads", "core")
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
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(cell)
        tmp = path.with_suffix(".tmp")
        entry = {"cell": cell, "value": value}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
        self.stores += 1


# -- cell construction -------------------------------------------------------

def _strategy_spec(strategy) -> Optional[dict]:
    """Canonical (class name, constructor kwargs) form of a strategy.

    Strategies are tiny value objects whose instance dict mirrors their
    constructor signature; anything fancier is not cell-serializable and
    returns ``None`` (callers then bypass the cache).
    """
    if strategy is None:
        return None
    kwargs = dict(sorted(vars(strategy).items()))
    try:
        json.dumps(kwargs)
    except (TypeError, ValueError):
        return None
    return {"type": type(strategy).__name__, "kwargs": kwargs}


def _passes_spec(plan_passes):
    """Resolve a ``plan_passes`` spec to its canonical knob-valued form.

    Cell keys must reflect the *resolved* pass parameters (bucket cap,
    chunk target), not the spelling of the spec: ``"bucketing"`` and
    ``GradientBucketing(cap_bytes=25e6)`` compile different plans and
    may not alias in the cache.  Returns ``None`` for ``None`` and
    raises for specs :func:`resolve_passes` cannot build (callers treat
    that as not-cacheable).
    """
    if plan_passes is None:
        return None
    from ..plan.passes import passes_to_spec
    return passes_to_spec(plan_passes)


def _training_cell(kind: str, benchmark: str, configuration: str,
                   strategy, policy, global_batch: Optional[int],
                   train_kwargs: dict, **fields) -> Optional[dict]:
    """The cell dict shared by ``experiment`` and ``step`` cells, or
    ``None`` when the arguments are not serializable."""
    train_kwargs = dict(sorted(train_kwargs.items()))
    if "plan_passes" in train_kwargs:
        try:
            train_kwargs["plan_passes"] = _passes_spec(
                train_kwargs["plan_passes"])
        except Exception:
            return None
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
    if strategy is not None and cell["strategy"] is None:
        return None
    try:
        json.dumps(cell)
    except (TypeError, ValueError):
        return None
    return cell


def experiment_cell(benchmark: str, configuration: str,
                    strategy=None, policy=None,
                    global_batch: Optional[int] = None,
                    sim_steps: int = 10, sim_checkpoints: int = 1,
                    **train_kwargs) -> Optional[dict]:
    """A cell for one :func:`~repro.experiments.run_configuration` call.

    Returns ``None`` when the call cannot be expressed as a pure,
    serializable cell (exotic strategy or non-JSON kwargs) — callers
    fall back to running in-process without the cache.
    """
    return _training_cell("experiment", benchmark, configuration,
                          strategy, policy, global_batch, train_kwargs,
                          sim_steps=sim_steps,
                          sim_checkpoints=sim_checkpoints)


def step_cell(benchmark: str, configuration: str,
              strategy=None, policy=None,
              global_batch: Optional[int] = None,
              **train_kwargs) -> Optional[dict]:
    """A cell for one evaluation of a training job's step plan.

    Its value is ``{"step_time", "engine"}``: the steady-state seconds
    per optimizer step and the engine that produced them (``fastpath``,
    or ``executor`` when the fast path refused).  No step count: one
    plan evaluation is the step time, so nothing is trained.  ``None``
    under the same conditions as :func:`experiment_cell`.
    """
    return _training_cell("step", benchmark, configuration, strategy,
                          policy, global_batch, train_kwargs)


def opt_profile_cell(benchmark: str, configuration: str, sim_steps: int,
                     pipeline: str, plan_passes: Optional[str]) -> dict:
    """A cell for one pipeline of the optimized-DDP study (fig16-opt)."""
    return {
        "kind": "opt-profile",
        "benchmark": benchmark,
        "configuration": configuration,
        "sim_steps": sim_steps,
        "pipeline": pipeline,
        "plan_passes": _passes_spec(plan_passes),
    }


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
    types = {cls.__name__: cls for cls in STRATEGY_REGISTRY.values()}
    try:
        cls = types[spec["type"]]
    except KeyError:
        raise ValueError(f"unknown strategy type {spec['type']!r}") from None
    return cls(**spec["kwargs"])


def _build_policy(name: Optional[str]):
    from ..training import AMP_POLICY, FP32_POLICY
    if name is None:
        return AMP_POLICY
    policies = {p.name: p for p in (AMP_POLICY, FP32_POLICY)}
    try:
        return policies[name]
    except KeyError:
        raise ValueError(f"unknown precision policy {name!r}") from None


def _train_kwargs(cell: dict) -> dict:
    """A training cell's extra TrainingConfig kwargs, passes rebuilt."""
    train_kwargs = dict(cell["train_kwargs"])
    if train_kwargs.get("plan_passes") is not None:
        from ..plan.passes import passes_from_spec
        train_kwargs["plan_passes"] = passes_from_spec(
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
        from ..plan.fastpath import evaluate_plan
        from .profiling import _build_cell_job
        job = _build_cell_job(
            cell["benchmark"], cell["configuration"],
            _build_strategy(cell["strategy"]),
            policy=_build_policy(cell["policy"]),
            global_batch=cell["global_batch"],
            **_train_kwargs(cell))
        timing = evaluate_plan(job.step_plan, job._exec_ctx)
        return {"step_time": timing.makespan, "engine": timing.mode}
    if kind == "opt-profile":
        from ..training import AMP_POLICY, DistributedDataParallel
        from .software_opts import _exposed_sync_per_step
        from .tracing import traced_run
        plan_passes = cell["plan_passes"]
        if plan_passes is not None:
            from ..plan.passes import passes_from_spec
            plan_passes = passes_from_spec(plan_passes)
        run = traced_run(
            cell["benchmark"], cell["configuration"],
            sim_steps=cell["sim_steps"],
            strategy=DistributedDataParallel(), policy=AMP_POLICY,
            plan_passes=plan_passes)
        return {
            "step_time": run.record.step_time,
            "exposed_sync": _exposed_sync_per_step(run),
            "time_per_sample": 1.0 / run.record.throughput,
        }
    raise ValueError(f"unknown cell kind {kind!r}")


def run_cells(cells: list, jobs: int = 1, cache=None) -> list:
    """Evaluate cells, serving cached hits and fanning out the misses.

    Returns values in cell order.  With ``jobs > 1`` misses execute on a
    process pool; the parent stores their results, so the cache needs no
    cross-process locking.  ``cache=None`` means no memoization (a
    throwaway :class:`NullCache`).
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
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                fresh = list(pool.map(_execute_cell,
                                      [cells[i] for i in pending]))
        else:
            fresh = [_execute_cell(cells[i]) for i in pending]
        for index, value in zip(pending, fresh):
            results[index] = value
            cache.store(cells[index], value)
    return results
