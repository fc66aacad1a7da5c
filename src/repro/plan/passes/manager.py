"""The pass manager: ordered plan rewrites with invariant enforcement.

A :class:`PlanPass` is a pure plan-to-plan rewrite.  The manager's
contract is the optimization layer's safety net:

1. the input plan must already be valid (passes may rely on rank
   symmetry when grouping collectives);
2. after *every* pass the rewritten plan is re-validated — a pass that
   breaks structure, introduces a cycle, desynchronizes the ranks, or
   loses bytes fails loudly at compile time, never at execution time;
3. each pass's effect is recorded as a :class:`PassReport` holding the
   uid-matched :class:`~repro.plan.diff.PlanDiff`, so ``repro plan
   --opt`` can print exactly what each rewrite did.

Passes are registered under short CLI names in :data:`PASS_REGISTRY`;
:func:`resolve_passes` turns ``"bucketing,overlap"`` / ``"all"`` /
already-constructed instances into a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..diff import PlanDiff, diff_plans
from ..ir import Op, PlanError, StepPlan
from ..validate import assert_valid

__all__ = [
    "PassError",
    "PassContext",
    "PlanPass",
    "PassReport",
    "PassManager",
    "PASS_REGISTRY",
    "DEFAULT_PIPELINE",
    "resolve_passes",
    "passes_to_spec",
    "passes_from_spec",
    "retarget_deps",
    "drop_orphaned_gates",
]


class PassError(PlanError):
    """A pass was misconfigured or produced an invalid plan."""


@dataclass
class PassContext:
    """What topology-aware passes may consult (all optional).

    ``rank_nodes`` maps rank index -> topology node name of that rank's
    GPU; passes that size chunks from measured link bandwidth need it
    plus ``topology``.  Structure-only passes ignore the context.
    """

    topology: object = None
    rank_nodes: Sequence[str] = ()
    host_node: Optional[str] = None


class PlanPass:
    """Base class: a named, pure plan-to-plan rewrite."""

    name = "base"

    def run(self, plan: StepPlan, ctx: PassContext) -> StepPlan:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


@dataclass
class PassReport:
    """One pass's measured effect on the plan."""

    pass_name: str
    ops_before: int
    ops_after: int
    diff: PlanDiff = field(repr=False)

    @property
    def changed(self) -> bool:
        return not self.diff.identical

    def summary(self) -> str:
        d = self.diff
        return (f"{self.pass_name}: {self.ops_before} -> "
                f"{self.ops_after} ops (+{len(d.added)} "
                f"-{len(d.removed)} ~{len({c.uid for c in d.changed})})")


class PassManager:
    """Run an ordered pipeline of passes, validating after each one."""

    def __init__(self, passes: Sequence[PlanPass]):
        for p in passes:
            if not isinstance(p, PlanPass):
                raise PassError(f"not a PlanPass: {p!r}")
        self.passes = list(passes)
        self.reports: list[PassReport] = []

    def run(self, plan: StepPlan,
            ctx: Optional[PassContext] = None) -> StepPlan:
        ctx = ctx or PassContext()
        assert_valid(plan)
        self.reports = []
        for p in self.passes:
            rewritten = assert_valid(p.run(plan, ctx))
            self.reports.append(PassReport(
                pass_name=p.name, ops_before=len(plan),
                ops_after=len(rewritten),
                diff=diff_plans(plan, rewritten)))
            plan = rewritten
        if self.passes:
            applied = ",".join(p.describe() for p in self.passes)
            plan = StepPlan(plan.name, plan.world_size, plan.ops,
                            {**plan.meta, "opt": applied})
        return plan


# -- shared rewrite helpers ------------------------------------------------

def retarget_deps(ops: Sequence[Op], mapping: dict) -> list[Op]:
    """Rewrite every op's deps through ``mapping`` (removed uid ->
    replacement uid), deduplicating while preserving order.  Ops whose
    deps are untouched are returned unchanged (same object, same uid) so
    the differ sees them as identical."""
    out = []
    for op in ops:
        if not any(d in mapping for d in op.deps):
            out.append(op)
            continue
        seen: list = []
        for dep in op.deps:
            dep = mapping.get(dep, dep)
            if dep is not None and dep not in seen:
                seen.append(dep)
        out.append(replace(op, deps=tuple(seen)))
    return out


def drop_orphaned_gates(ops: Sequence[Op], candidates: set) -> list[Op]:
    """Remove untraced ops in ``candidates`` that no op depends on any
    more (dead launch gates left behind by a fusion/retiming rewrite)."""
    used: set = set()
    for op in ops:
        used.update(op.deps)
    return [op for op in ops if op.uid not in candidates
            or op.uid in used]


# -- registry --------------------------------------------------------------

def _registry() -> dict:
    from .bucketing import GradientBucketing
    from .chunking import CollectiveChunkSizing
    from .copy_fusion import CopyFusion
    from .overlap import OverlapScheduling
    return {
        "bucketing": GradientBucketing,
        "overlap": OverlapScheduling,
        "copy-fusion": CopyFusion,
        "chunk-size": CollectiveChunkSizing,
    }


#: CLI/pipeline name -> pass class (constructed with defaults).
PASS_REGISTRY = _registry()

#: ``--opt all``: the canonical order.  Bucketing first (fewer, bigger
#: collectives), overlap re-times the fused launches, copy fusion cleans
#: up adjacent transfers, chunk sizing annotates whatever survived.
DEFAULT_PIPELINE = ("bucketing", "overlap", "copy-fusion", "chunk-size")


def resolve_passes(spec) -> list[PlanPass]:
    """Build a pipeline from a spec: ``"bucketing,overlap"``, ``"all"``,
    or any iterable mixing names and :class:`PlanPass` instances."""
    if isinstance(spec, str):
        spec = [s.strip() for s in spec.split(",") if s.strip()]
    out: list[PlanPass] = []
    for item in spec:
        if isinstance(item, PlanPass):
            out.append(item)
        elif item == "all":
            out.extend(PASS_REGISTRY[name]() for name in DEFAULT_PIPELINE)
        elif item in PASS_REGISTRY:
            out.append(PASS_REGISTRY[item]())
        else:
            known = ", ".join(sorted(PASS_REGISTRY))
            raise PassError(
                f"unknown plan pass {item!r} (known: {known}, all)")
    return out


def passes_to_spec(spec) -> list[dict]:
    """Canonical JSONable form of a pass pipeline, knobs *resolved*.

    ``[{"pass": name, "params": {...}}]`` — every constructor parameter
    appears with its concrete value, so two pipelines that differ only
    in a knob (bucket cap, chunk target) serialize differently.  This is
    the form cell caches and tuning tables persist; reverse with
    :func:`passes_from_spec`.  Accepts anything
    :func:`resolve_passes` accepts.
    """
    return [{"pass": p.name, "params": dict(sorted(vars(p).items()))}
            for p in resolve_passes(spec)]


def passes_from_spec(spec: Sequence[dict]) -> list[PlanPass]:
    """Rebuild pass instances from :func:`passes_to_spec` output."""
    out: list[PlanPass] = []
    for entry in spec:
        name = entry["pass"]
        if name not in PASS_REGISTRY:
            known = ", ".join(sorted(PASS_REGISTRY))
            raise PassError(
                f"unknown plan pass {name!r} in spec (known: {known})")
        out.append(PASS_REGISTRY[name](**entry.get("params", {})))
    return out
