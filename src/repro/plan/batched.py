"""Evaluate many ``(plan, ctx)`` lanes on the fast path, one at a time.

Each lane runs :func:`~repro.plan.fastpath.fastpath_schedule` on its
own plan and context, so every timing is exactly that lane's scalar
evaluation.  Ineligible lanes raise
:class:`~repro.plan.fastpath.FastPathUnsupported`.  The end-to-end
benchmark's layer tracer (``benchmarks/e2e/layers.py``) wraps
:func:`evaluate_batch` and reads ``timings`` and ``diverged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .fastpath import fastpath_schedule

__all__ = ["BatchResult", "evaluate_batch"]


@dataclass
class BatchResult:
    """Outcome of one :func:`evaluate_batch` call."""

    #: Per-lane timings, in input order.
    timings: list
    #: Always empty: every lane runs once; kept for the layer tracer.
    diverged: list = field(default_factory=list)


def evaluate_batch(lanes: Sequence[tuple]) -> BatchResult:
    """Evaluate every ``(plan, ctx)`` lane on the fast path, in order."""
    return BatchResult(timings=[fastpath_schedule(plan, ctx)
                                for plan, ctx in lanes])
