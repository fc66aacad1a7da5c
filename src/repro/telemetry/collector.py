"""Sampled system-level metrics (the paper's wandb/Nsight stand-in).

A :class:`MetricsCollector` runs a sampling process inside the simulation
that periodically records, per watched device:

- GPU utilization (busy seconds per wall second, %) — Figs. 9/10,
- GPU memory utilization (%) — Fig. 10,
- GPU memory-access time (% of time HBM-bound) — Fig. 10,
- CPU utilization (%) — Fig. 13,
- host memory utilization (%) — Fig. 14.

Each metric is a :class:`~repro.sim.TimeSeries`, so the experiment layer
can pull both whole-run traces (Fig. 9's utilization-over-time curves)
and summary statistics (Fig. 10/13/14's per-configuration bars).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import Environment, TimeSeries

if TYPE_CHECKING:  # imports for annotations only — keeps repro.telemetry
    # importable from the device/fabric layers without a cycle.
    import numpy as np

    from ..devices.cpu import CPU
    from ..devices.gpu import GPU
    from ..devices.host import HostServer
    from .registry import MetricsRegistry

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Periodic sampler over GPUs, CPUs, and host memory."""

    def __init__(self, env: Environment, sample_interval: float = 0.25,
                 registry: Optional["MetricsRegistry"] = None):
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.env = env
        self.sample_interval = sample_interval
        self.registry = registry
        self._gpus: list[GPU] = []
        self._cpus: list[CPU] = []
        self._hosts: list[HostServer] = []
        self.gpu_util: dict[str, TimeSeries] = {}
        self.gpu_mem: dict[str, TimeSeries] = {}
        self.gpu_mem_access: dict[str, TimeSeries] = {}
        self.cpu_util: dict[str, TimeSeries] = {}
        self.host_mem: dict[str, TimeSeries] = {}
        self._running = False
        self._stopped = False
        self._finalized = False
        self._start_time: Optional[float] = None
        self._sample_times: list[float] = []

    # -- registration -----------------------------------------------------
    def watch_gpu(self, gpu: "GPU") -> None:
        if gpu.name in self.gpu_util:
            return
        self._gpus.append(gpu)
        self.gpu_util[gpu.name] = TimeSeries(f"{gpu.name}:util", "%")
        self.gpu_mem[gpu.name] = TimeSeries(f"{gpu.name}:mem", "%")
        self.gpu_mem_access[gpu.name] = TimeSeries(
            f"{gpu.name}:mem_access", "%")
        self._publish(f"gpu/{gpu.name}/util", self.gpu_util[gpu.name])
        self._publish(f"gpu/{gpu.name}/mem", self.gpu_mem[gpu.name])
        self._publish(f"gpu/{gpu.name}/mem_access",
                      self.gpu_mem_access[gpu.name])

    def watch_cpu(self, cpu: "CPU") -> None:
        if cpu.name in self.cpu_util:
            return
        self._cpus.append(cpu)
        self.cpu_util[cpu.name] = TimeSeries(f"{cpu.name}:util", "%")
        self._publish(f"cpu/{cpu.name}/util", self.cpu_util[cpu.name])

    def watch_host(self, host: "HostServer") -> None:
        if host.name in self.host_mem:
            return
        self._hosts.append(host)
        self.host_mem[host.name] = TimeSeries(f"{host.name}:mem", "%")
        self._publish(f"host/{host.name}/mem", self.host_mem[host.name])
        self.watch_cpu(host.cpu)

    def _publish(self, name: str, series: TimeSeries) -> None:
        if self.registry is not None:
            self.registry.attach(name, series)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (idempotent while running).

        A collector is single-use: once :meth:`stop` has run, the sample
        loop is dead and the busy-derived series are finalized, so a
        restart would silently record nothing.  Starting after stop
        therefore raises instead — create a fresh collector per attempt
        (see ``FaultTolerantTrainingJob``, which already does).
        """
        if self._running:
            return
        if self._stopped:
            raise RuntimeError(
                "MetricsCollector cannot be restarted after stop(); "
                "create a new collector for each run")
        self._running = True
        self._start_time = self.env.now
        self.env.process(self._sample_loop())

    def stop(self) -> None:
        """Stop sampling and finalize busy-derived series (idempotent).

        Gauge metrics (memory levels) are sampled live; *busy-fraction*
        metrics (GPU/CPU utilization, memory-access time) are derived here
        from the devices' final busy counters, because querying a trailing
        window mid-simulation would miss kernels still in flight — the
        post-hoc read is a consistent estimator over every window.
        """
        self._stopped = True
        self._running = False
        self._finalize()

    def _sample_loop(self):
        dt = self.sample_interval
        while not self._stopped:
            yield self.env.timeout(dt)
            now = self.env.now
            self._sample_times.append(now)
            for gpu in self._gpus:
                self.gpu_mem[gpu.name].record(
                    now, 100.0 * gpu.memory_utilization)
            for host in self._hosts:
                self.host_mem[host.name].record(
                    now, 100.0 * host.memory_utilization)

    def _finalize(self) -> None:
        if self._finalized:
            return
        if self._start_time is None:
            # stop() before start(): nothing was sampled, nothing to derive.
            self._finalized = True
            return
        self._finalized = True
        import numpy as np
        # Each sample describes the interval [prev, now]; record it at the
        # interval *start* so the TimeSeries' sample-and-hold semantics
        # (values apply forward in time) line up with reality.  A final
        # interval up to stop time plus a closing point ensure the last
        # value carries weight in time-weighted statistics.
        edges = [self._start_time]
        for now in self._sample_times:
            if now > edges[-1]:
                edges.append(now)
        if self.env.now > edges[-1]:
            edges.append(self.env.now)
        starts = edges[:-1]
        spans = np.diff(edges)
        for gpu in self._gpus:
            for series, counter in ((self.gpu_util, gpu.busy),
                                    (self.gpu_mem_access, gpu.mem_busy)):
                self._record_all(series[gpu.name], starts,
                                 self._fractions(counter, edges, spans))
        for cpu in self._cpus:
            self._record_all(self.cpu_util[cpu.name], starts,
                             self._fractions(cpu.busy, edges,
                                             spans * cpu.spec.cores))
        prev = edges[-1]
        for series in (self.gpu_util, self.gpu_mem_access, self.cpu_util):
            for ts in series.values():
                last = ts.last()
                if last is not None and prev > ts.times[-1]:
                    ts.record(prev, last)

    @staticmethod
    def _fractions(counter, edges: list, spans: np.ndarray) -> list:
        """``min(1, growth / span)`` per window from one interpolation
        over every edge: the floats ``GPU.busy_fraction`` (and
        ``mem_access_fraction``, ``CPU.utilization``) give window by
        window.  Busy counters only lump time in (their rate stays 0.0),
        so the curve is flat past its last breakpoint either way."""
        import numpy as np
        times, totals = counter.breakpoints(edges[-1])
        growth = np.diff(np.interp(edges, times, totals))
        return np.minimum(1.0, growth / spans).tolist()

    @staticmethod
    def _record_all(series: TimeSeries, starts: list,
                    fractions: list) -> None:
        for start, fraction in zip(starts, fractions):
            series.record(start, 100.0 * fraction)

    # -- aggregation ----------------------------------------------------------
    def mean_gpu_utilization(self, t0: Optional[float] = None,
                             t1: Optional[float] = None) -> float:
        """Mean GPU utilization (%) across all watched GPUs."""
        return self._mean_over(self.gpu_util, t0, t1)

    def mean_gpu_memory(self, t0: Optional[float] = None,
                        t1: Optional[float] = None) -> float:
        return self._mean_over(self.gpu_mem, t0, t1)

    def mean_gpu_mem_access(self, t0: Optional[float] = None,
                            t1: Optional[float] = None) -> float:
        return self._mean_over(self.gpu_mem_access, t0, t1)

    def mean_cpu_utilization(self, t0: Optional[float] = None,
                             t1: Optional[float] = None) -> float:
        return self._mean_over(self.cpu_util, t0, t1)

    def mean_host_memory(self, t0: Optional[float] = None,
                         t1: Optional[float] = None) -> float:
        return self._mean_over(self.host_mem, t0, t1)

    @staticmethod
    def _mean_over(series: dict[str, TimeSeries],
                   t0: Optional[float], t1: Optional[float]) -> float:
        values = []
        for ts in series.values():
            s = ts.summary(t0, t1)
            if s.count:
                values.append(s.time_weighted_mean)
        return sum(values) / len(values) if values else float("nan")
