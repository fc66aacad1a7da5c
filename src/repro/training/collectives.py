"""NCCL-style collective communication scheduled on the fabric.

A :class:`Communicator` groups a set of GPU ranks (topology node names)
and implements the collectives PyTorch DDP/DP rely on — ring allreduce,
broadcast, reduce, reduce-scatter, all-gather — as *actual transfer
schedules* on the modelled topology.  Every phase launches the real
point-to-point transfers, so link contention (e.g. eight Falcon GPUs
funnelling through host ports, or a hybrid ring crossing the CDFP cable)
emerges from the fluid-flow fabric rather than from a closed-form cost
formula.

Collectives are *synchronizing*: each rank calls the operation and the
returned event fires only when the whole collective completes, with the
op starting once the slowest rank arrives — exactly how NCCL kernels
block on stragglers.

The ring order is chosen from the rank list as given; for NVLink-meshed
local GPUs callers should pass the hybrid-cube-mesh Hamiltonian order
(:data:`repro.fabric.nvlink.RING_ORDER`) so every hop stays on NVLink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment, Event
from ..fabric.link import Protocol
from ..fabric.topology import Route, Topology
from ..telemetry.trace import NULL_TRACER, Category, Tracer, Track

__all__ = ["Communicator", "CollectiveError", "CollectiveTimeout",
           "TRANSPORT_PENALTY", "REFERENCE_CHUNK_BYTES"]

#: NCCL transport efficiency, expressed as byte inflation per protocol.
#: NVLink rings run close to line rate; the PCIe transport stages chunks
#: through bounce buffers (and, across root ports, through host shared
#: memory), so sustained collective "bus bandwidth" on PCIe-attached V100s
#: is roughly half the p2p line rate — the well-known gap between
#: p2pBandwidthLatencyTest and nccl-tests busbw.  Calibrated so that
#: BERT-large fine-tuning on falcon-attached GPUs lands at ~2x the local
#: NVLink configuration (paper Fig. 11).
TRANSPORT_PENALTY: dict[Protocol, float] = {
    Protocol.NVLINK2: 1.05,
    Protocol.PCIE3: 2.2,
    Protocol.PCIE4: 2.2,
    Protocol.CDFP: 2.2,
}
_DEFAULT_TRANSPORT_PENALTY = 1.5

#: Staging chunk size the calibrated penalties correspond to.  Callers
#: may pass an explicit ``chunk_bytes`` (e.g. from the plan optimizer's
#: topology-aware chunk-sizing pass); larger chunks amortize per-chunk
#: staging overhead, scaling the *excess* penalty by
#: ``sqrt(reference / chunk)``, floored so even huge chunks keep 40% of
#: the excess (protocol overheads that never amortize).
REFERENCE_CHUNK_BYTES = 1e6
_CHUNK_AMORTIZATION_FLOOR = 0.4


class CollectiveError(Exception):
    """Mismatched or invalid collective usage."""


class CollectiveTimeout(Exception):
    """A collective exceeded the communicator's watchdog timeout.

    Mirrors NCCL's ``NCCL_TIMEOUT`` / PyTorch's ProcessGroup watchdog:
    when one rank stalls (dead link, dropped GPU), the surviving ranks
    must not hang forever inside the kernel — the watchdog aborts them
    so the training runtime can run recovery.
    """

    def __init__(self, kind: str, waited: float):
        super().__init__(
            f"collective {kind!r} timed out after {waited:.3f}s")
        self.kind = kind
        self.waited = waited


@dataclass(eq=False)  # identity semantics: ops are tracked in sets
class _PendingOp:
    """One in-flight collective: rank arrival times and the done event."""

    kind: str
    nbytes: float
    root: Optional[int]
    done: Event
    chunk_bytes: Optional[float] = None
    arrived: dict = field(default_factory=dict)  # rank -> arrival time


#: Collectives implemented as NCCL device kernels: a participating GPU
#: shows busy (nvidia-smi utilization) from the moment its rank launches
#: the kernel until the collective completes — including time spent
#: waiting for stragglers.  This is why the paper's Fig. 10 sees *higher*
#: GPU utilization on Falcon configurations (longer-running communication
#: kernels), while DP's memcpy-based broadcast/gather leaves GPUs idle.
_KERNEL_COLLECTIVES = frozenset({"allreduce", "reduce_scatter", "allgather"})


class Communicator:
    """A communicator over an ordered list of GPU node names."""

    def __init__(self, env: Environment, topology: Topology,
                 ranks: list[str], gpus: Optional[list] = None,
                 transport_penalty: Optional[dict] = None,
                 watchdog: Optional[float] = None,
                 tracer: Optional[Tracer] = None):
        if len(ranks) < 1:
            raise CollectiveError("communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise CollectiveError("duplicate ranks in communicator")
        if gpus is not None and len(gpus) != len(ranks):
            raise CollectiveError("gpus must align with ranks")
        if watchdog is not None and watchdog <= 0:
            raise CollectiveError("watchdog timeout must be positive")
        self.env = env
        self.topology = topology
        self.ranks = list(ranks)
        #: Optional GPU devices per rank, for NCCL-kernel busy accounting.
        self.gpus = list(gpus) if gpus is not None else None
        #: Per-protocol byte inflation; override for sensitivity studies.
        self.transport_penalty = dict(TRANSPORT_PENALTY
                                      if transport_penalty is None
                                      else transport_penalty)
        #: Watchdog timeout, seconds of sim time a rank may wait inside a
        #: collective before :class:`CollectiveTimeout` is raised at it.
        self.watchdog = watchdog
        #: Span tracer; each executing collective borrows a "comm" lane.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._op_seq = [0] * len(ranks)
        self._pending: dict[int, _PendingOp] = {}
        self._executing: set[_PendingOp] = set()
        self._closed = False
        self._subgroups: dict[tuple, "Communicator"] = {}
        #: (src, dst, chunk_bytes) -> (route, its transport factor).
        self._factors: dict[tuple, tuple[Route, float]] = {}
        #: Completed collective count (introspection).
        self.completed_ops = 0

    @property
    def world_size(self) -> int:
        return len(self.ranks)

    def subgroup(self, ranks_idx) -> "Communicator":
        """A child communicator over a subset of this one's ranks.

        ``ranks_idx`` are *parent* rank indices (sorted, unique).  The
        child shares the environment, topology, transport penalties,
        watchdog, and tracer, keeps its own rendezvous sequence (like an
        NCCL sub-communicator from ``ncclCommSplit``), and is cached so
        every plan op targeting the same group rendezvouses on the same
        child.  Aborting the parent aborts all children.
        """
        key = tuple(ranks_idx)
        if list(key) != sorted(set(key)):
            raise CollectiveError(f"subgroup {key} must be sorted, unique")
        if any(not 0 <= i < self.world_size for i in key):
            raise CollectiveError(f"subgroup {key} has out-of-range ranks")
        child = self._subgroups.get(key)
        if child is None:
            child = Communicator(
                self.env, self.topology,
                [self.ranks[i] for i in key],
                gpus=([self.gpus[i] for i in key]
                      if self.gpus is not None else None),
                transport_penalty=self.transport_penalty,
                watchdog=self.watchdog, tracer=self.tracer)
            child._closed = self._closed
            self._subgroups[key] = child
        return child

    # -- public collectives ------------------------------------------------
    def allreduce(self, rank: int, nbytes: float, *,
                  chunk_bytes: Optional[float] = None) -> Event:
        """Ring allreduce of ``nbytes`` per rank.  Returns the done event."""
        return self._join(rank, "allreduce", nbytes, None, chunk_bytes)

    def reduce_scatter(self, rank: int, nbytes: float, *,
                       chunk_bytes: Optional[float] = None) -> Event:
        """Ring reduce-scatter: each rank ends with 1/N of the reduction."""
        return self._join(rank, "reduce_scatter", nbytes, None, chunk_bytes)

    def allgather(self, rank: int, nbytes: float, *,
                  chunk_bytes: Optional[float] = None) -> Event:
        """Ring all-gather of per-rank shards totalling ``nbytes``."""
        return self._join(rank, "allgather", nbytes, None, chunk_bytes)

    def broadcast(self, rank: int, nbytes: float, root: int = 0, *,
                  chunk_bytes: Optional[float] = None) -> Event:
        """Root sends ``nbytes`` to every other rank (DP-style fan-out)."""
        return self._join(rank, "broadcast", nbytes, root, chunk_bytes)

    def reduce(self, rank: int, nbytes: float, root: int = 0, *,
               chunk_bytes: Optional[float] = None) -> Event:
        """Every rank sends ``nbytes`` to the root (DP-style fan-in)."""
        return self._join(rank, "reduce", nbytes, root, chunk_bytes)

    def barrier(self, rank: int) -> Event:
        """Synchronize all ranks without moving data."""
        return self._join(rank, "barrier", 0.0, None, None)

    # -- rendezvous ---------------------------------------------------------
    def _join(self, rank: int, kind: str, nbytes: float,
              root: Optional[int],
              chunk_bytes: Optional[float] = None) -> Event:
        if not 0 <= rank < self.world_size:
            raise CollectiveError(f"rank {rank} out of range")
        if nbytes < 0:
            raise CollectiveError("nbytes must be >= 0")
        if root is not None and not 0 <= root < self.world_size:
            raise CollectiveError(f"root {root} out of range")
        if chunk_bytes is not None and chunk_bytes <= 0:
            raise CollectiveError("chunk_bytes must be positive")
        if self._closed:
            # Aborted communicator: resolve immediately so straggler ranks
            # unwind instead of waiting on a collective that will never run.
            done = self.env.event()
            done.succeed(None)
            return done
        opid = self._op_seq[rank]
        self._op_seq[rank] += 1
        op = self._pending.get(opid)
        if op is None:
            op = _PendingOp(kind, nbytes, root, self.env.event(),
                            chunk_bytes)
            self._pending[opid] = op
        else:
            if op.kind != kind or op.nbytes != nbytes or op.root != root \
                    or op.chunk_bytes != chunk_bytes:
                raise CollectiveError(
                    f"collective mismatch at op {opid}: rank {rank} called "
                    f"{kind}({nbytes}, root={root}, "
                    f"chunk={chunk_bytes}) but op is "
                    f"{op.kind}({op.nbytes}, root={op.root}, "
                    f"chunk={op.chunk_bytes})")
        if rank in op.arrived:
            raise CollectiveError(
                f"rank {rank} joined op {opid} twice")
        op.arrived[rank] = self.env.now
        if self.gpus is not None and kind in _KERNEL_COLLECTIVES:
            # Anchor: the NCCL kernel launches now on this rank's stream.
            self.gpus[rank].busy.add(self.env.now, 0.0)
        if len(op.arrived) == self.world_size:
            del self._pending[opid]
            self.env.process(self._execute(op))
        if self.watchdog is None:
            return op.done
        return self.env.process(self._guarded(op))

    def _guarded(self, op: _PendingOp):
        """Watchdog wrapper: wait on the op, bounded by the timeout.

        Mirrors the NCCL/ProcessGroup watchdog thread — a rank stuck
        inside a collective longer than the timeout gets a
        :class:`CollectiveTimeout` raised at its ``yield`` instead of
        hanging forever on a dead peer.
        """
        timeout = self.env.timeout(self.watchdog)
        try:
            yield self.env.any_of([op.done, timeout])
        except Exception:
            if self._closed:
                return None
            raise
        if self._closed:
            return None
        if op.done.triggered:
            return op.done.value
        raise CollectiveTimeout(op.kind, self.watchdog)

    def _execute(self, op: _PendingOp):
        self._executing.add(op)
        track = self.tracer.lane("comm")
        arrivals = op.arrived.values()
        span = self.tracer.span(
            op.kind, Category.COMM, track,
            bytes=op.nbytes, world=self.world_size,
            # Straggler skew: how long the first rank waited for the last.
            arrival_skew_s=(max(arrivals) - min(arrivals)) if arrivals
            else 0.0)
        try:
            if self.world_size == 1 or op.kind == "barrier" or op.nbytes == 0:
                yield self.env.timeout(0.0)
            elif op.kind == "allreduce":
                yield from self._ring_phases(op.nbytes,
                                             2 * (self.world_size - 1),
                                             track, op.chunk_bytes)
            elif op.kind == "reduce_scatter":
                yield from self._ring_phases(op.nbytes, self.world_size - 1,
                                             track, op.chunk_bytes)
            elif op.kind == "allgather":
                yield from self._ring_phases(op.nbytes, self.world_size - 1,
                                             track, op.chunk_bytes)
            elif op.kind == "broadcast":
                yield from self._star(op.root, op.nbytes, outbound=True,
                                      track=track,
                                      chunk_bytes=op.chunk_bytes)
            elif op.kind == "reduce":
                yield from self._star(op.root, op.nbytes, outbound=False,
                                      track=track,
                                      chunk_bytes=op.chunk_bytes)
            else:  # pragma: no cover - guarded by _join
                raise CollectiveError(f"unknown collective {op.kind!r}")
        except Exception as exc:
            span.close(failed=True)
            self.tracer.release_lane(track)
            # A transfer died under us (link pulled, GPU dropped).  Every
            # rank waits on the same done event, so failing it broadcasts
            # the fault to the whole communicator — like an NCCL kernel
            # erroring out on all ranks at once.  Pre-defuse: if every
            # rank was already torn down nobody retrieves the failure,
            # and an undefused failure would crash the simulation.
            self._executing.discard(op)
            if self._closed or op.done.triggered:
                return
            op.done.defused = True
            op.done.fail(exc)
            return
        span.close()
        self.tracer.release_lane(track)
        self._executing.discard(op)
        if op.done.triggered:  # abort() resolved it while we were running
            return
        if self.gpus is not None and op.kind in _KERNEL_COLLECTIVES:
            now = self.env.now
            for rank, arrival in op.arrived.items():
                self.gpus[rank].busy.add(now, now - arrival)
        self.completed_ops += 1
        op.done.succeed()

    def abort(self) -> None:
        """Tear the communicator down (``ncclCommAbort``).

        Resolves every pending and in-flight collective with ``None`` so
        no process is left waiting on an event that will never fire, and
        silences the watchdog.  Used by the training runtime before
        rebuilding collectives during fault recovery.
        """
        if self._closed:
            return
        self._closed = True
        for op in self._pending.values():
            if not op.done.triggered:
                op.done.succeed(None)
        self._pending.clear()
        for op in list(self._executing):
            if not op.done.triggered:
                op.done.succeed(None)
        for child in self._subgroups.values():
            child.abort()

    @property
    def closed(self) -> bool:
        """True once :meth:`abort` has been called."""
        return self._closed

    # -- schedules ------------------------------------------------------------
    def _transport_factor(self, route: Route,
                          chunk_bytes: Optional[float] = None) -> float:
        """Byte inflation for NCCL's transport over this route.

        With an explicit staging ``chunk_bytes``, the *excess* over line
        rate amortizes as ``sqrt(reference / chunk)`` (per-chunk setup
        spread over more payload), floored at 40% of the excess; chunks
        at or below the reference pay the full calibrated penalty.
        """
        factor = 1.0
        for seg in route.segments:
            penalty = self.transport_penalty.get(
                seg.link.spec.protocol, _DEFAULT_TRANSPORT_PENALTY)
            factor = max(factor, penalty)
        if chunk_bytes is not None and factor > 1.0 \
                and chunk_bytes > REFERENCE_CHUNK_BYTES:
            scale = max(math.sqrt(REFERENCE_CHUNK_BYTES / chunk_bytes),
                        _CHUNK_AMORTIZATION_FLOOR)
            factor = 1.0 + (factor - 1.0) * scale
        return factor

    def _send(self, src: str, dst: str, nbytes: float, label: str,
              chunk_bytes: Optional[float] = None):
        """One collective hop, inflated by the transport penalty.

        The route is looked up at every hop.  Its factor is computed
        once per route object: the topology drops its cached routes on
        every fail, restore or retrain, so a hop that reads the same
        ``Route`` as before crosses links of unchanged specs.
        """
        route = self.topology.route(src, dst)
        key = (src, dst, chunk_bytes)
        cached = self._factors.get(key)
        if cached is not None and cached[0] is route:
            factor = cached[1]
        else:
            factor = self._transport_factor(route, chunk_bytes)
            self._factors[key] = (route, factor)
        return self.topology.transfer_route(route, nbytes * factor, label)

    def _ring_phases(self, nbytes: float, phases: int,
                     track: Track = None,
                     chunk_bytes: Optional[float] = None):
        """Ring schedule: ``phases`` rounds of chunk sends to the neighbour.

        Each round, every rank sends ``nbytes / world_size`` to its ring
        successor concurrently; the round completes when the slowest hop
        (the bottleneck link, possibly contended) finishes.
        """
        chunk = nbytes / self.world_size
        n = self.world_size
        for phase in range(phases):
            with self.tracer.span("round", Category.COMM, track,
                                  phase=phase, chunk_bytes=chunk):
                transfers = [
                    self._send(self.ranks[i], self.ranks[(i + 1) % n],
                               chunk, "ring", chunk_bytes)
                    for i in range(n)
                ]
                yield self.env.all_of(transfers)

    def _star(self, root: int, nbytes: float, outbound: bool,
              track: Track = None,
              chunk_bytes: Optional[float] = None):
        """Star schedule: root simultaneously sends to (or receives from)
        every other rank; the root's links are the natural bottleneck."""
        others = [i for i in range(self.world_size) if i != root]
        with self.tracer.span("fan-out" if outbound else "fan-in",
                              Category.COMM, track, bytes=nbytes):
            transfers = []
            for i in others:
                if outbound:
                    src, dst = self.ranks[root], self.ranks[i]
                else:
                    src, dst = self.ranks[i], self.ranks[root]
                transfers.append(
                    self._send(src, dst, nbytes, "star", chunk_bytes))
            yield self.env.all_of(transfers)

    # -- analytics ------------------------------------------------------------
    def allreduce_bytes_on_wire(self, nbytes: float) -> float:
        """Total bytes a ring allreduce moves per rank."""
        n = self.world_size
        return 2.0 * (n - 1) / n * nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator world={self.world_size}>"
