"""Elastic training: mid-run recomposition at invariant batch semantics.

:class:`ElasticTrainingJob` extends the fault-tolerant runtime with
*controlled* resizes: grow onto freed chassis GPUs (operator- or
autoscaler-initiated) and shrink away from preempted ones, both without
losing completed work.  The mechanism reuses the runtime's existing
teardown machinery as a **safe-point protocol**:

1. A resize request (:meth:`ElasticTrainingJob.request_resize`, or an
   :class:`~repro.elastic.autoscaler.AutoscalePolicy` verdict) is only
   *latched*; nothing observable happens while a step is in flight.
2. The job's step listener — which fires exactly at optimizer-step
   boundaries, after the step's collectives drained and before any
   checkpoint for that boundary starts — converts the latched request
   into a :class:`ResizeSignal` delivered through the job's failure
   event.  The orderly-teardown path quiesces every rank, so a resize
   can never interrupt an in-flight collective: deferral to the
   boundary is structural, not cooperative.
3. Recovery routes the signal to :meth:`_grow` / :meth:`_shrink`, which
   claim or release devices through the management inventory and call
   the shared :meth:`~repro.training.resilience.FaultTolerantTrainingJob.
   _recompose` path — the new membership's state-redistribution plan is
   spliced in front of the resumed job's first step.
4. The next attempt recompiles the step plan at the new world size with
   :class:`~repro.elastic.virtual.VirtualBatchSpec` overrides, so the
   effective global batch is identical before and after the resize.

Because the interrupted step had fully committed (the signal fires
*after* the optimizer step), resize resumes from the last **completed**
step, not the last checkpoint — the lost-work advantage over
checkpoint-restart that the elasticity study quantifies.  Plain faults
on replicated (non-sharded) strategies get the same treatment when at
least one ring member survives: some rank still holds the full model
state, so rolling back to a checkpoint would discard work the ring can
simply redistribute.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..management.inventory import InventoryError
from ..training.loop import TrainingInterrupted
from ..training.resilience import FaultTolerantTrainingJob
from .autoscaler import AutoscalePolicy
from .virtual import VirtualBatchSpec

__all__ = ["ResizeSignal", "ElasticTrainingJob"]

_RESIZE_KINDS = ("grow", "shrink")


class ResizeSignal(Exception):
    """A controlled resize request, delivered at a step boundary.

    Travels the same failure-event path as a fabric fault (so the
    teardown/recovery machinery is shared), but recovery treats it as a
    planned event: no checkpoint rollback, no restart-budget charge.
    """

    def __init__(self, kind: str, targets: Sequence[str] = (),
                 reason: str = ""):
        if kind not in _RESIZE_KINDS:
            raise ValueError(
                f"resize kind must be one of {_RESIZE_KINDS}, "
                f"got {kind!r}")
        self.kind = kind
        #: Device node names: spares to claim (grow) / members to drop
        #: (shrink).  Empty grow targets mean "any available spares".
        self.targets = tuple(targets)
        self.reason = reason
        label = f"{kind} {list(self.targets)}" if self.targets else kind
        super().__init__(
            f"resize requested: {label}" + (f" ({reason})" if reason
                                            else ""))


class ElasticTrainingJob(FaultTolerantTrainingJob):
    """Fault-tolerant training that also resizes on purpose."""

    def __init__(self, *args, virtual_batch: VirtualBatchSpec,
                 autoscaler: Optional[AutoscalePolicy] = None, **kwargs):
        super().__init__(*args, **kwargs)
        world = len(self.gpus)
        if virtual_batch.virtual_nodes % world != 0:
            raise ValueError(
                f"initial world {world} does not divide virtual_nodes "
                f"{virtual_batch.virtual_nodes}")
        if virtual_batch.global_batch \
                != self.config.resolved_global_batch():
            raise ValueError(
                f"virtual-batch global batch {virtual_batch.global_batch}"
                f" != config global batch "
                f"{self.config.resolved_global_batch()}")
        self.virtual_batch = virtual_batch
        self.autoscaler = autoscaler
        # Realize the spec at the starting world so even a fault-free
        # run uses virtual-node accumulation semantics.
        self.config = replace(self.config,
                              **virtual_batch.config_overrides(world))
        self._requested: Optional[ResizeSignal] = None
        #: (global step, world size, effective global batch) per step —
        #: the batch column is the invariant the acceptance test checks.
        self.step_ledger: list[tuple[int, int, int]] = []
        self._steps_before_attempt = 0
        self.on_attempt.append(self._install_elastic_hooks)

    # -- public control surface -------------------------------------------

    def request_resize(self, kind: str, targets: Sequence[str] = (),
                       reason: str = "") -> None:
        """Latch a resize; it takes effect at the next step boundary.

        Safe to call at any simulation time (e.g. from an operator
        process reacting to a preemption notice) — an in-flight step is
        never interrupted.
        """
        self._requested = ResizeSignal(kind, targets, reason)

    # -- safe-point protocol ----------------------------------------------
    def _install_elastic_hooks(self, job, attempt: int) -> None:
        def on_step(steps_completed: int, now: float) -> None:
            gstep = self._steps_before_attempt + steps_completed
            self.step_ledger.append(
                (gstep, len(self.gpus), job.global_batch))
            if steps_completed >= job.config.sim_steps:
                return  # attempt is finishing; nothing left to resize
            signal = self._poll_resize(now, gstep)
            if signal is not None:
                job._report_failure(signal)
        job.add_step_listener(on_step)

    def _poll_resize(self, now: float,
                     gstep: int) -> Optional[ResizeSignal]:
        if self._requested is not None:
            signal, self._requested = self._requested, None
            return signal
        if self.autoscaler is None:
            return None
        spares = len(self.inventory.spare_gpus()) \
            if self.inventory is not None else 0
        verdict = self.autoscaler.observe(now, gstep, len(self.gpus),
                                          spares)
        if verdict == "grow" \
                and len(self.gpus) < self.virtual_batch.virtual_nodes:
            return ResizeSignal(
                "grow", reason=f"autoscaler:{self.autoscaler.name}")
        return None

    # -- hook overrides ----------------------------------------------------
    def _attempt_config(self, remaining: int):
        self._steps_before_attempt = self.config.sim_steps - remaining
        return replace(
            self.config, sim_steps=remaining,
            **self.virtual_batch.config_overrides(len(self.gpus)))

    def _is_resize(self, exc: TrainingInterrupted) -> bool:
        return isinstance(exc.cause, ResizeSignal)

    def _durable_steps(self, exc: TrainingInterrupted) -> int:
        if isinstance(exc.cause, ResizeSignal):
            # The signal fires after the optimizer step committed: every
            # completed step is durable, no rollback.
            return exc.steps_completed
        if not self.config.strategy.sharded \
                and any(self._reachable(g) for g in self.gpus):
            # Replicated state: a surviving rank holds the full model,
            # so a fault costs the in-flight step, not a checkpoint
            # rollback — recomposition redistributes live state.
            self._record("live_state_recovered",
                         durable_steps=exc.steps_completed)
            return exc.steps_completed
        return super()._durable_steps(exc)

    def _admit_ring(self, gpus: list) -> tuple[list, list]:
        world = self.virtual_batch.feasible_world(len(gpus))
        return list(gpus[:world]), list(gpus[world:])

    def _release_parked(self, parked: list) -> None:
        for gpu in parked:
            if self.inventory is not None \
                    and self.inventory.manages(gpu.name):
                self.inventory.detach(gpu.name)  # idempotent
            self._record("gpu_parked", device=gpu.name,
                         reason="virtual-node divisibility")

    # -- resize recovery ---------------------------------------------------
    def _recover(self, cause: Optional[BaseException] = None) -> bool:
        if isinstance(cause, ResizeSignal):
            self._budget_note = None
            if cause.kind == "grow":
                return self._grow(cause)
            return self._shrink(cause)
        return super()._recover(cause)

    def _grow(self, signal: ResizeSignal) -> bool:
        targets = list(signal.targets)
        if not targets and self.inventory is not None:
            targets = [g.name for g in self.inventory.spare_gpus()]
        world = len(self.gpus)
        goal = self.virtual_batch.feasible_world(world + len(targets))
        if goal <= world:
            self._record("grow_abandoned",
                         reason="no feasible larger world",
                         world=world, candidates=targets)
            return True
        claimed = []
        for name in targets:
            if len(claimed) >= goal - world:
                break
            gpu = self._claim_spare(name)
            if gpu is not None:
                claimed.append(gpu)
        feasible = self.virtual_batch.feasible_world(world + len(claimed))
        if feasible <= world:
            for gpu in claimed:  # give back what we cannot use
                self.inventory.detach(gpu.name)
            self._record("grow_abandoned", reason="inventory contended",
                         world=world, candidates=targets)
            return True
        for gpu in claimed[feasible - world:]:
            self.inventory.detach(gpu.name)
        return self._recompose(
            list(self.gpus) + claimed[:feasible - world], kind="grow",
            detected_at=self._detected_at)

    def _claim_spare(self, name: str):
        """Attach one spare, backing off through contention; None on
        failure (the grow proceeds with whatever it did claim)."""
        if self.inventory is None or not self.inventory.manages(name):
            return None
        res = self.resilience
        backoff = res.backoff_initial
        for poll in range(max(1, res.reattach_attempts)):
            try:
                self.inventory.attach(name, self.host.name)
            except InventoryError as exc:
                self._record("inventory_contended", device=name,
                             poll=poll + 1, reason=str(exc))
                self._backoff_sleep(backoff)
                backoff = min(backoff * res.backoff_factor,
                              res.backoff_max)
                continue
            gpu = self.inventory.gpu(name)
            if not self._reachable(gpu):
                self.inventory.detach(name)
                self._record("hotplug_unavailable", device=name,
                             reason="spare unreachable")
                return None
            return gpu
        return None

    def _shrink(self, signal: ResizeSignal) -> bool:
        victims = set(signal.targets)
        survivors = [g for g in self.gpus if g.name not in victims]
        if not survivors:
            return self._give_up(
                "shrink would empty the ring",
                targets=sorted(victims))
        for gpu in self.gpus:
            if gpu.name in victims and self.inventory is not None \
                    and self.inventory.manages(gpu.name):
                self.inventory.detach(gpu.name)  # back to the spare pool
        return self._recompose(survivors, kind="shrink",
                               detected_at=self._detected_at)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ElasticTrainingJob world={len(self.gpus)} "
                f"V={self.virtual_batch.virtual_nodes} "
                f"G={self.virtual_batch.global_batch}>")
