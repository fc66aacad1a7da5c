"""FIFO cluster scheduler over composable fleet inventory.

The scheduler is the consumer of everything the fleet layer provides:
jobs arrive from a trace, wait in a FIFO queue, and are placed onto
chassis GPUs through the management plane (:class:`~repro.management.
Inventory` attach/detach — the same hot-plug path single-system
experiments use).  Placement policy, in order:

1. pick the least-loaded host (fewest running jobs, ties by index);
2. prefer a **single chassis** with enough free GPUs, the host's home
   chassis first — packing keeps collective rings off the spine;
3. otherwise **spread** across chassis, composing a cross-chassis ring
   whose allreduce traffic transits the spine (measurably slower — the
   contention signal the fleet study reports);
4. admission is port-bounded: visiting a chassis consumes one of its
   four host ports (refcounted, returned when the last job using it
   completes).  If no port is free the candidate is skipped, and a job
   that fits nowhere waits at the head of the queue (plain FIFO —
   no backfilling, so head-of-line blocking is visible in the delays).

Each placement pays the hot-plug latency (device re-enumeration) before
training starts, then runs a real :class:`~repro.training.TrainingJob`
on the shared :class:`~repro.sim.Environment` — concurrent jobs contend
for spine uplinks, drawer trunks, and host memory exactly as the fluid
flow model resolves them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.cluster import HOTPLUG_SECONDS
from ..core.fleet import ComposableFleet, FleetError
from ..management import InventoryError
from ..training import (
    DataParallel,
    DistributedDataParallel,
    TrainingConfig,
    TrainingJob,
)
from ..workloads import get_benchmark
from .trace import JobRequest

__all__ = ["ClusterScheduler", "FleetRunResult", "JobRecord"]

#: Strategy keys a trace may request.
STRATEGIES = {
    "ddp": DistributedDataParallel,
    "dp": DataParallel,
}


@dataclass
class JobRecord:
    """Lifecycle of one scheduled job."""

    job_id: int
    benchmark: str
    strategy: str
    gpus: int
    gpu_names: tuple
    host: str
    #: Chassis indexes the job's GPUs came from.
    chassis: tuple
    arrival: float
    #: When the scheduler granted the GPUs.
    placed: float
    #: When training began (placement + hot-plug enumeration).
    started: float
    finished: float
    #: Steady-state seconds per optimizer step.
    step_time: float
    throughput_samples_s: float

    @property
    def queue_delay(self) -> float:
        return self.placed - self.arrival

    @property
    def run_seconds(self) -> float:
        return self.finished - self.placed

    @property
    def cross_chassis(self) -> bool:
        return len(self.chassis) > 1

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "benchmark": self.benchmark,
            "strategy": self.strategy,
            "gpus": self.gpus,
            "host": self.host,
            "chassis": list(self.chassis),
            "cross_chassis": self.cross_chassis,
            "arrival_s": self.arrival,
            "queue_delay_s": self.queue_delay,
            "run_s": self.run_seconds,
            "step_time_s": self.step_time,
            "throughput_samples_s": self.throughput_samples_s,
        }


@dataclass
class FleetRunResult:
    """Everything a fleet run produced, plus the aggregate views."""

    fleet: ComposableFleet = field(repr=False)
    records: list = field(default_factory=list)
    makespan: float = 0.0

    @property
    def total_gpus(self) -> int:
        return self.fleet.spec.total_gpus

    @property
    def mean_queue_delay(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.queue_delay for r in self.records) / len(self.records)

    @property
    def max_queue_delay(self) -> float:
        return max((r.queue_delay for r in self.records), default=0.0)

    @property
    def gpu_utilization(self) -> float:
        """Busy GPU-seconds over total GPU-seconds of the makespan."""
        if self.makespan <= 0:
            return 0.0
        busy = sum(r.gpus * r.run_seconds for r in self.records)
        return busy / (self.total_gpus * self.makespan)

    @property
    def cross_chassis_jobs(self) -> int:
        return sum(1 for r in self.records if r.cross_chassis)

    def spine_traffic(self) -> dict:
        """Per-spine-link mean rates over the whole run (GB/s)."""
        return self.fleet.spine_traffic(0.0, max(self.makespan, 1e-9))

    def as_dict(self) -> dict:
        return {
            "spec": self.fleet.spec.name,
            "chassis": self.fleet.spec.chassis,
            "hosts": self.fleet.spec.hosts,
            "oversubscription": self.fleet.spec.oversubscription,
            "total_gpus": self.total_gpus,
            "jobs": len(self.records),
            "makespan_s": self.makespan,
            "gpu_utilization": self.gpu_utilization,
            "mean_queue_delay_s": self.mean_queue_delay,
            "max_queue_delay_s": self.max_queue_delay,
            "cross_chassis_jobs": self.cross_chassis_jobs,
            "spine_traffic_gbs": self.spine_traffic(),
            "records": [r.as_dict() for r in self.records],
        }


class ClusterScheduler:
    """FIFO scheduler placing trace jobs onto a composable fleet."""

    def __init__(self, fleet: ComposableFleet,
                 hotplug_seconds: float = HOTPLUG_SECONDS):
        self.fleet = fleet
        self.hotplug_seconds = hotplug_seconds
        self._queue: deque = deque()
        self._records: list[JobRecord] = []
        #: host name -> running job count (load-balancing signal).
        self._load = {host.name: 0 for host in fleet.hosts}
        self._expected = 0
        self._done_evt = None

    # -- entry point -------------------------------------------------------
    def run(self, requests: Sequence[JobRequest]) -> FleetRunResult:
        """Run the whole trace to completion; returns the result."""
        cap = self.fleet.spec.total_gpus
        for req in requests:
            if req.gpus > cap:
                raise ValueError(
                    f"job {req.job_id} wants {req.gpus} GPUs but the "
                    f"fleet has {cap}")
            if req.strategy not in STRATEGIES:
                raise ValueError(
                    f"job {req.job_id}: unknown strategy "
                    f"{req.strategy!r} (have {sorted(STRATEGIES)})")
        env = self.fleet.env
        self._expected = len(requests)
        self._done_evt = env.event()
        if not requests:
            return FleetRunResult(fleet=self.fleet)
        env.process(self._arrivals(sorted(requests,
                                          key=lambda r: r.arrival)))
        env.run(until=self._done_evt)
        records = sorted(self._records, key=lambda r: r.job_id)
        makespan = max(r.finished for r in records)
        return FleetRunResult(fleet=self.fleet, records=records,
                              makespan=makespan)

    # -- processes ---------------------------------------------------------
    def _arrivals(self, requests):
        for req in requests:
            delay = req.arrival - self.fleet.env.now
            if delay > 0:
                yield self.fleet.env.timeout(delay)
            self._queue.append(req)
            self._dispatch()

    def _dispatch(self) -> None:
        """Place queued jobs in FIFO order; stop at the first that does
        not fit (no backfilling)."""
        while self._queue:
            placement = self._try_place(self._queue[0])
            if placement is None:
                return
            req = self._queue.popleft()
            host, gpu_names, admissions = placement
            self._load[host.name] += 1
            self.fleet.env.process(
                self._run_job(req, host, gpu_names, admissions))

    def _run_job(self, req, host, gpu_names, admissions):
        placed = self.fleet.env.now
        # Hot-plug enumeration of the composed devices.
        yield self.fleet.env.timeout(self.hotplug_seconds)
        started = self.fleet.env.now
        config = TrainingConfig(
            benchmark=get_benchmark(req.benchmark),
            strategy=STRATEGIES[req.strategy](),
            global_batch=req.global_batch,
            sim_steps=req.sim_steps,
        )
        gpus = [self.fleet.gpu(name) for name in gpu_names]
        job = TrainingJob(self.fleet.env, self.fleet.topology, host,
                          gpus, host.scratch, config)
        yield job.start()
        result = job.collect()
        finished = self.fleet.env.now
        self._teardown(host, gpu_names, admissions)
        self._load[host.name] -= 1
        self._records.append(JobRecord(
            job_id=req.job_id,
            benchmark=req.benchmark,
            strategy=req.strategy,
            gpus=req.gpus,
            gpu_names=tuple(gpu_names),
            host=host.name,
            chassis=tuple(sorted({self.fleet.chassis_of[n]
                                  for n in gpu_names})),
            arrival=req.arrival,
            placed=placed,
            started=started,
            finished=finished,
            step_time=result.step_time,
            throughput_samples_s=(result.global_batch / result.step_time
                                  if result.step_time else 0.0),
        ))
        if len(self._records) == self._expected:
            self._done_evt.succeed(len(self._records))
        else:
            self._dispatch()

    # -- placement ---------------------------------------------------------
    def _host_order(self) -> list:
        return sorted(self.fleet.hosts,
                      key=lambda h: (self._load[h.name], h.name))

    def _chassis_order(self, host) -> list[int]:
        """Home chassis of the host first, then the rest by index."""
        index = self.fleet.hosts.index(host)
        n_hosts = len(self.fleet.hosts)
        return sorted(range(self.fleet.spec.chassis),
                      key=lambda c: (0 if c % n_hosts == index else 1, c))

    def _drawer_of(self, chassis: int, gpu_name: str) -> int:
        slot = self.fleet.falcons[chassis].slot_of(gpu_name)
        if slot is None:
            raise KeyError(f"{gpu_name!r} not installed in chassis {chassis}")
        return slot.drawer_index

    def _try_place(self, req) -> Optional[tuple]:
        """(host, gpu names, admissions held) or None if nothing fits."""
        for host in self._host_order():
            order = self._chassis_order(host)
            # Pass 1: pack into a single chassis.
            for chassis in order:
                free = self.fleet.free_gpus(chassis)
                if len(free) >= req.gpus:
                    placement = self._claim(host, free[:req.gpus])
                    if placement is not None:
                        return placement
            # Pass 2: spread across chassis in preference order.
            pool: list[str] = []
            for chassis in order:
                pool.extend(self.fleet.free_gpus(chassis))
            if len(pool) >= req.gpus:
                placement = self._claim(host, pool[:req.gpus])
                if placement is not None:
                    return placement
        return None

    def _claim(self, host, gpu_names) -> Optional[tuple]:
        """Admit + attach; unwinds and returns None on port exhaustion."""
        needed = sorted({(self.fleet.chassis_of[n],
                          self._drawer_of(self.fleet.chassis_of[n], n))
                         for n in gpu_names})
        admitted: list[tuple] = []
        attached: list[str] = []
        try:
            for chassis, drawer in needed:
                self.fleet.admit(host.name, chassis, drawer)
                admitted.append((chassis, drawer))
            for name in gpu_names:
                self.fleet.inventory_of(name).attach(name, host.name)
                attached.append(name)
        except (FleetError, InventoryError):
            for name in attached:
                self.fleet.inventory_of(name).detach(name)
            for chassis, drawer in admitted:
                self.fleet.release(host.name, chassis, drawer)
            return None
        return host, list(gpu_names), admitted

    def _teardown(self, host, gpu_names, admissions) -> None:
        for name in gpu_names:
            self.fleet.inventory_of(name).detach(name)
        for chassis, drawer in admissions:
            self.fleet.release(host.name, chassis, drawer)
