"""Backend-agnostic step-program IR (the compiler/executor split).

A training step is expressed as a :class:`StepPlan` — a typed DAG of ops
(compute kernels, host/device copies, collectives, storage I/O, barriers,
delays) with per-op cost/byte annotations and declared dependencies.
Parallel strategies *compile* plans; one generic executor replays them on
the DES :class:`~repro.sim.Environment`, driving the same GPU, fabric,
collective, and storage models the hand-written schedules used to call
directly.  Telemetry spans are derived mechanically from op identities.

The package is deliberately backend-agnostic: it imports only the sim
kernel, the devices/fabric/storage models it drives, and the tracer — it
never imports ``repro.training`` (strategies import *us*).
"""

from .ir import (
    Barrier,
    Collective,
    Compute,
    D2HCopy,
    Delay,
    H2DCopy,
    Op,
    P2PCopy,
    PlanBuilder,
    PlanError,
    StepPlan,
    StorageRead,
    StorageWrite,
    format_plan,
)
from .validate import PlanValidationError, assert_valid, validate_plan
from .diff import PlanDiff, diff_plans, format_diff
from .executor import ExecutionContext, PlanExecution
from .fastpath import (
    FastPathUnsupported,
    PlanTiming,
    evaluate_plan,
    fastpath_schedule,
    fastpath_support,
)
from .passes import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    PassContext,
    PassError,
    PassManager,
    PassReport,
    PlanPass,
    resolve_passes,
)
from .reshard import compile_reshard, splice_plans

__all__ = [
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
    "StepPlan",
    "PlanBuilder",
    "PlanError",
    "format_plan",
    "PlanValidationError",
    "validate_plan",
    "assert_valid",
    "PlanDiff",
    "diff_plans",
    "format_diff",
    "ExecutionContext",
    "PlanExecution",
    "FastPathUnsupported",
    "PlanTiming",
    "fastpath_support",
    "fastpath_schedule",
    "evaluate_plan",
    "PlanPass",
    "PassContext",
    "PassError",
    "PassManager",
    "PassReport",
    "PASS_REGISTRY",
    "DEFAULT_PIPELINE",
    "resolve_passes",
    "compile_reshard",
    "splice_plans",
]
