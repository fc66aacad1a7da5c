"""The step-program IR: typed ops, plans, and a builder.

Ops are immutable records.  Every op belongs to exactly one *rank* (its
program), carries a display ``name`` (the telemetry span name), a span
``category``, a wire/memory ``bytes`` annotation, and the ``deps`` tuple
of op uids that must complete before it may start.  Dependencies may
cross ranks — that is how pipeline parallelism expresses activation
hand-offs — while collectives and barriers additionally synchronize at
runtime through the communicator's rendezvous.

The op taxonomy (``Compute``, ``H2DCopy``, ``D2HCopy``, ``Collective``,
``StorageRead``, ``StorageWrite``, ``Barrier``) follows the paper's data
workflow; two pragmatic extensions make real schedules expressible:

- :class:`Delay` — a pure time offset.  DDP's bucket-readiness points
  ("bucket i's gradients exist 40% into backward") and the framework's
  per-step overhead (a *fraction of elapsed step time*, so only the
  executor can resolve it) are schedule facts, not device work.
- :class:`P2PCopy` — a direct GPU-to-GPU transfer, the primitive behind
  pipeline-parallel activation/gradient hand-offs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from ..devices.gpu import Precision
from ..telemetry.trace import Category

__all__ = [
    "PlanError",
    "Op",
    "Compute",
    "H2DCopy",
    "D2HCopy",
    "P2PCopy",
    "Collective",
    "StorageRead",
    "StorageWrite",
    "Barrier",
    "Delay",
    "COLLECTIVE_KINDS",
    "collective_schedule",
    "op_endpoints",
    "storage_leg",
    "StepPlan",
    "PlanBuilder",
    "format_plan",
]

#: Collective flavours the executor can drive on a Communicator.
COLLECTIVE_KINDS = ("allreduce", "reduce_scatter", "all_gather",
                    "broadcast", "reduce")
#: Ring-scheduled kinds -> phase count as a function of the member count.
_RING_PHASES = {
    "allreduce": lambda n: 2 * (n - 1),
    "reduce_scatter": lambda n: n - 1,
    "all_gather": lambda n: n - 1,
}


class PlanError(Exception):
    """Structural misuse while building or consuming a plan."""


@dataclass(frozen=True)
class Op:
    """One node of the step DAG (base class; use the typed subclasses)."""

    kind: ClassVar[str] = "op"

    uid: str
    rank: int
    name: str
    #: Uids of ops that must complete before this op starts.
    deps: tuple = ()
    category: Category = Category.OTHER
    #: Bytes this op moves (0 for pure compute/waits).
    bytes: float = 0.0
    #: Whether the executor derives a telemetry span from this op.
    traced: bool = True
    #: Conservation-lint tag: which logical payload these bytes belong to
    #: (e.g. "gradients"); see ``StepPlan.meta["conservation"]``.
    payload: Optional[str] = None
    #: How many compiler-emitted ops an optimization pass fused into this
    #: one (0 = untouched by any pass; >= 2 after bucketing/copy fusion).
    fused: int = 0

    def describe(self) -> str:
        """One-line rendering used by ``format_plan`` and the CLI."""
        extra = self._describe_extra()
        if self.fused:
            extra += f" fused={self.fused}"
        dep = ",".join(self.deps) if self.deps else "-"
        nbytes = f" {self.bytes / 1e6:.2f}MB" if self.bytes else ""
        return (f"[{self.uid}] {self.kind:<13} {self.name:<18}"
                f"{nbytes}{extra}  <- {dep}")

    def _describe_extra(self) -> str:
        return ""


@dataclass(frozen=True)
class Compute(Op):
    """A GPU kernel: roofline-costed from FLOPs and HBM traffic."""

    kind: ClassVar[str] = "compute"

    flops: float = 0.0
    hbm_bytes: float = 0.0
    precision: Precision = Precision.FP32
    efficiency: float = 1.0
    #: Whether the kernel draws a multiplicative jitter sample.
    jittered: bool = False
    category: Category = Category.COMPUTE

    def _describe_extra(self) -> str:
        return f" {self.flops / 1e9:.1f}GF"


@dataclass(frozen=True)
class H2DCopy(Op):
    """Host DRAM -> this rank's GPU over the attach fabric."""

    kind: ClassVar[str] = "h2d_copy"
    category: Category = Category.DATA
    label: str = "h2d"


@dataclass(frozen=True)
class D2HCopy(Op):
    """This rank's GPU -> host DRAM (checkpoint drains)."""

    kind: ClassVar[str] = "d2h_copy"
    category: Category = Category.CHECKPOINT
    label: str = "d2h"


@dataclass(frozen=True)
class P2PCopy(Op):
    """Direct GPU-to-GPU transfer (pipeline activation hand-off)."""

    kind: ClassVar[str] = "p2p_copy"
    category: Category = Category.COMM
    label: str = "p2p"
    dst_rank: int = -1

    def _describe_extra(self) -> str:
        return f" ->r{self.dst_rank}"


@dataclass(frozen=True)
class Collective(Op):
    """One rank's participation in a communicator-wide collective.

    Every rank contributes one ``Collective`` op per logical operation;
    ``bytes`` is the per-rank payload (NCCL semantics).  At runtime the
    communicator's rendezvous enforces that all ranks join matching ops
    in matching order — the static mirror of that invariant is the
    validator's rank-symmetry pass.

    ``group`` restricts the collective to a subset of world ranks
    (``None`` = world-wide, which :class:`PlanBuilder` also stores for a
    group of every rank): a sorted tuple of world rank indices that
    rendezvous on their own sub-communicator.  ``root`` stays a *world*
    rank index and must be a group member.  This is how 2D parallelism
    expresses intra-TP-group vs. cross-DP-group communicators.
    """

    kind: ClassVar[str] = "collective"
    category: Category = Category.COMM
    comm: str = "allreduce"
    root: Optional[int] = None
    #: Transport staging chunk size chosen by the chunk-sizing pass
    #: (``None`` = communicator default); forwarded to the communicator,
    #: whose transport penalty amortizes with larger chunks.
    chunk_bytes: Optional[float] = None
    #: Participating world ranks (``None`` = all ranks).
    group: Optional[tuple] = None

    def _describe_extra(self) -> str:
        root = f" root={self.root}" if self.root is not None else ""
        chunk = (f" chunk={self.chunk_bytes / 1e6:.1f}MB"
                 if self.chunk_bytes is not None else "")
        grp = (" grp=" + ",".join(str(r) for r in self.group)
               if self.group is not None else "")
        return f" {self.comm}{root}{chunk}{grp}"

    def schedule(self, world_size: int) -> tuple:
        """This op's :func:`collective_schedule` in a plan of
        ``world_size`` ranks."""
        members = range(world_size) if self.group is None else self.group
        return collective_schedule(self.comm, members, self.root)


def collective_schedule(comm: str, members, root: Optional[int] = None
                        ) -> tuple:
    """The transfer schedule of one collective: ``(phases, divisor, pairs)``.

    ``comm`` is the IR kind, ``members`` the participating world ranks in
    communicator order (any sequence), and ``root`` a world rank
    (``None`` = the first member).  Each of ``phases`` rounds sends
    ``bytes / divisor`` over every ``(src, dst)`` world-rank pair of
    ``pairs`` at once, and a round ends when its slowest pair does.  Ring
    kinds send to the ring successor, ``broadcast`` fans out from the
    root and ``reduce`` fans in to it.  Fewer than two members move
    nothing: ``(0, 1, ())``.

    This is the schedule ``Communicator`` runs; the communicator keeps
    its own copy as the event-loop reference the fast engines are
    tested against.
    """
    ring = _RING_PHASES.get(comm)
    if ring is None and comm not in ("broadcast", "reduce"):
        raise PlanError(f"unknown collective kind {comm!r}")
    n = len(members)
    if n < 2:
        return 0, 1, ()
    if ring is not None:
        return ring(n), n, tuple((members[i], members[(i + 1) % n])
                                 for i in range(n))
    root = members[0] if root is None else root
    others = [r for r in members if r != root]
    if comm == "broadcast":
        return 1, 1, tuple((root, r) for r in others)
    return 1, 1, tuple((r, root) for r in others)


@dataclass(frozen=True)
class StorageRead(Op):
    """Storage device -> host DRAM."""

    kind: ClassVar[str] = "storage_read"
    category: Category = Category.STORAGE


@dataclass(frozen=True)
class StorageWrite(Op):
    """Host DRAM -> storage device (checkpoint persistence)."""

    kind: ClassVar[str] = "storage_write"
    category: Category = Category.STORAGE


@dataclass(frozen=True)
class Barrier(Op):
    """Synchronize all ranks without moving data."""

    kind: ClassVar[str] = "barrier"
    category: Category = Category.STALL


@dataclass(frozen=True)
class Delay(Op):
    """A pure time offset: ``seconds`` plus ``elapsed_fraction`` of the
    time elapsed since this rank entered the plan (the executor resolves
    the latter — it models per-step framework overhead, which PyTorch
    exhibits proportionally to step length)."""

    kind: ClassVar[str] = "delay"
    category: Category = Category.COMPUTE

    seconds: float = 0.0
    elapsed_fraction: float = 0.0

    def _describe_extra(self) -> str:
        if self.elapsed_fraction:
            return f" {self.elapsed_fraction:.3f}*elapsed"
        return f" {self.seconds * 1e3:.3f}ms"


#: Endpoint specs name a transfer's nodes independently of any one
#: system: ``("gpu", r)`` is rank ``r``'s GPU, ``("host",)`` host DRAM,
#: ``("media",)`` the storage media node and ``("comm", r)`` world rank
#: ``r`` of the communicator.  ``ExecutionContext.node`` resolves them.
_HOST = ("host",)
_MEDIA = ("media",)


def op_endpoints(op) -> tuple:
    """``(src, dst)`` endpoint specs of a transfer or storage op."""
    if isinstance(op, H2DCopy):
        return _HOST, ("gpu", op.rank)
    if isinstance(op, D2HCopy):
        return ("gpu", op.rank), _HOST
    if isinstance(op, P2PCopy):
        return ("gpu", op.rank), ("gpu", op.dst_rank)
    if isinstance(op, StorageRead):
        return _MEDIA, _HOST
    if isinstance(op, StorageWrite):
        return _HOST, _MEDIA
    raise PlanError(f"op kind {op.kind!r} has no transfer endpoints")


def storage_leg(op, spec) -> tuple:
    """``(streamed bytes, fixed latency)`` of a storage op on a drive
    with :class:`~repro.devices.storage.StorageSpec` ``spec``.

    Writes stream their bytes inflated by the read/write bandwidth ratio
    (the media link is sized to the read rate), as ``StorageDevice``
    models them.
    """
    if isinstance(op, StorageRead):
        return op.bytes, spec.read_latency
    return op.bytes * (spec.read_bandwidth / spec.write_bandwidth), \
        spec.write_latency


class StepPlan:
    """An immutable program: ops for every rank plus plan-level metadata.

    ``meta`` carries the compiling strategy's declarations — notably
    ``meta["conservation"]``, a ``{payload: total_bytes}`` mapping the
    bytes-conservation lint checks against the sum of op bytes tagged
    with that payload (catching, e.g., bucket-splitting bugs).
    """

    def __init__(self, name: str, world_size: int, ops,
                 meta: Optional[dict] = None):
        if world_size < 1:
            raise PlanError("world_size must be >= 1")
        self.name = name
        self.world_size = world_size
        self.ops: tuple = tuple(ops)
        self.meta: dict = dict(meta or {})
        #: Stamped True by ``assert_valid`` once the plan passes every
        #: lint, so repeated executions skip re-validation (monotone: a
        #: plan's ops are immutable after construction).
        self.validated = False
        self._by_uid = {}
        for op in self.ops:
            if op.uid in self._by_uid:
                raise PlanError(f"duplicate op uid {op.uid!r}")
            self._by_uid[op.uid] = op

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def op(self, uid: str) -> Op:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise PlanError(f"no op {uid!r} in plan {self.name!r}") from None

    def __contains__(self, uid: str) -> bool:
        return uid in self._by_uid

    def by_rank(self, rank: int) -> list:
        """This rank's ops in program (insertion) order."""
        return [op for op in self.ops if op.rank == rank]

    def topo_order(self) -> list:
        """Ops in a dependency-respecting order (raises on cycles)."""
        from .validate import topological_order
        return topological_order(self)

    def counts(self) -> dict:
        """``{op kind: count}`` over the whole plan."""
        out: dict = {}
        for op in self.ops:
            out[op.kind] = out.get(op.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StepPlan {self.name!r} world={self.world_size} "
                f"ops={len(self.ops)}>")


class PlanBuilder:
    """Accumulates ops with auto-generated uids, then builds a StepPlan.

    Uids are ``r{rank}:{name}`` (suffixed ``@n`` on repeats), so plans
    compiled twice from the same strategy get identical uids — which is
    what makes :func:`repro.plan.diff_plans` line up ops across plans.
    """

    def __init__(self, name: str, world_size: int,
                 meta: Optional[dict] = None):
        self.name = name
        self.world_size = world_size
        self.meta = dict(meta or {})
        self._ops: list = []
        self._uid_counts: dict = {}

    def _uid(self, rank: int, name: str) -> str:
        base = f"r{rank}:{name}"
        n = self._uid_counts.get(base, 0)
        self._uid_counts[base] = n + 1
        return base if n == 0 else f"{base}@{n}"

    def _add(self, cls, rank: int, name: str, deps=(), **kw) -> str:
        if not 0 <= rank < self.world_size:
            raise PlanError(f"rank {rank} out of range "
                            f"[0, {self.world_size})")
        uid = self._uid(rank, name)
        deps = tuple(d for d in deps if d is not None)
        self._ops.append(cls(uid=uid, rank=rank, name=name, deps=deps,
                             **kw))
        return uid

    # -- typed helpers (each returns the new op's uid) ---------------------
    def compute(self, rank: int, name: str, *, flops: float,
                hbm_bytes: float, precision: Precision,
                efficiency: float, deps=(), jittered: bool = False,
                traced: bool = True) -> str:
        return self._add(Compute, rank, name, deps, flops=flops,
                         hbm_bytes=hbm_bytes, precision=precision,
                         efficiency=efficiency, jittered=jittered,
                         traced=traced)

    def collective(self, rank: int, name: str, comm: str, nbytes: float,
                   *, root: Optional[int] = None, deps=(),
                   payload: Optional[str] = None,
                   category: Category = Category.COMM,
                   group: Optional[tuple] = None,
                   traced: bool = True) -> str:
        if comm not in COLLECTIVE_KINDS:
            raise PlanError(f"unknown collective kind {comm!r}")
        if group is not None:
            group = tuple(group)
            if list(group) != sorted(set(group)):
                raise PlanError(f"group {group} must be sorted and unique")
            if any(not 0 <= g < self.world_size for g in group):
                raise PlanError(f"group {group} has out-of-range ranks")
            if rank not in group:
                raise PlanError(f"rank {rank} not in its group {group}")
            if root is not None and root not in group:
                raise PlanError(f"root {root} not in group {group}")
            if len(group) == self.world_size:
                group = None
        return self._add(Collective, rank, name, deps, comm=comm,
                         bytes=nbytes, root=root, payload=payload,
                         category=category, group=group, traced=traced)

    def barrier(self, rank: int, name: str = "barrier", *, deps=(),
                traced: bool = True) -> str:
        return self._add(Barrier, rank, name, deps, traced=traced)

    def delay(self, rank: int, name: str, *, seconds: float = 0.0,
              elapsed_fraction: float = 0.0, deps=(),
              category: Category = Category.COMPUTE,
              traced: bool = True) -> str:
        return self._add(Delay, rank, name, deps, seconds=seconds,
                         elapsed_fraction=elapsed_fraction,
                         category=category, traced=traced)

    def h2d(self, rank: int, name: str, nbytes: float, *, deps=(),
            label: str = "h2d", payload: Optional[str] = None,
            category: Category = Category.DATA,
            traced: bool = True) -> str:
        return self._add(H2DCopy, rank, name, deps, bytes=nbytes,
                         label=label, payload=payload, category=category,
                         traced=traced)

    def d2h(self, rank: int, name: str, nbytes: float, *, deps=(),
            label: str = "d2h", payload: Optional[str] = None,
            category: Category = Category.CHECKPOINT,
            traced: bool = True) -> str:
        return self._add(D2HCopy, rank, name, deps, bytes=nbytes,
                         label=label, payload=payload, category=category,
                         traced=traced)

    def p2p(self, rank: int, name: str, dst_rank: int, nbytes: float, *,
            deps=(), label: str = "p2p", payload: Optional[str] = None,
            traced: bool = True) -> str:
        if not 0 <= dst_rank < self.world_size:
            raise PlanError(f"dst_rank {dst_rank} out of range")
        if dst_rank == rank:
            raise PlanError("p2p copy to the sending rank itself")
        return self._add(P2PCopy, rank, name, deps, dst_rank=dst_rank,
                         bytes=nbytes, label=label, payload=payload,
                         traced=traced)

    def storage_read(self, rank: int, name: str, nbytes: float, *,
                     deps=(), payload: Optional[str] = None,
                     category: Category = Category.STORAGE,
                     traced: bool = True) -> str:
        return self._add(StorageRead, rank, name, deps, bytes=nbytes,
                         payload=payload, category=category,
                         traced=traced)

    def storage_write(self, rank: int, name: str, nbytes: float, *,
                      deps=(), payload: Optional[str] = None,
                      category: Category = Category.STORAGE,
                      traced: bool = True) -> str:
        return self._add(StorageWrite, rank, name, deps, bytes=nbytes,
                         payload=payload, category=category,
                         traced=traced)

    def declare_conservation(self, payload: str, total_bytes: float) -> None:
        """Declare the expected plan-wide byte total for a payload tag."""
        self.meta.setdefault("conservation", {})[payload] = total_bytes

    def build(self) -> StepPlan:
        plan = StepPlan(self.name, self.world_size, self._ops, self.meta)
        for op in plan:
            for dep in op.deps:
                if dep not in plan:
                    raise PlanError(
                        f"op {op.uid!r} depends on unknown op {dep!r}")
        return plan


def format_plan(plan: StepPlan, ranks: Optional[list] = None) -> str:
    """Human-readable program listing, one section per rank."""
    lines = [f"plan {plan.name}  world={plan.world_size}  "
             f"ops={len(plan)}"]
    counts = " ".join(f"{k}={v}" for k, v in sorted(plan.counts().items()))
    lines.append(f"  kinds: {counts}")
    for key, value in sorted(plan.meta.items()):
        if key == "conservation":
            decl = " ".join(f"{p}={b / 1e6:.2f}MB"
                            for p, b in sorted(value.items()))
            lines.append(f"  conservation: {decl}")
        else:
            lines.append(f"  {key}: {value}")
    show = range(plan.world_size) if ranks is None else ranks
    for rank in show:
        lines.append(f"rank {rank}:")
        for op in plan.by_rank(rank):
            lines.append(f"  {op.describe()}")
    return "\n".join(lines)
