"""Experiment harness: one runner per paper table/figure.

============  ==========================================
Artifact      Entry point
============  ==========================================
Table I       :data:`repro.core.SOFTWARE_STACK`
Table II      :func:`repro.workloads.get_benchmark` summaries
Table III     :data:`repro.core.CONFIGURATION_DESCRIPTIONS`
Table IV      :func:`repro.experiments.microbench.table4`
Fig. 5        :data:`repro.core.COMM_REQUIREMENTS`
Fig. 9        :func:`repro.experiments.traces.gpu_utilization_trace`
Figs. 10-14   :func:`repro.experiments.sweeps.gpu_config_sweep`
Fig. 15       :func:`repro.experiments.sweeps.storage_config_sweep`
Fig. 16       :func:`repro.experiments.software_opts.software_optimization_study`
============  ==========================================

Beyond the paper: :mod:`~repro.experiments.sharing` (advanced-mode
tenancy, ring placement, reconfiguration), :mod:`~repro.experiments.
resilience` (degraded uplinks), :mod:`~repro.experiments.
fault_tolerance` (chaos scenarios vs checkpoint-restart + hot-plug
recovery), :mod:`~repro.experiments.elasticity` (mid-run recomposition:
resize cost, lost work vs checkpoint-restart, autoscaling policies),
:mod:`~repro.experiments.scale_out`
(NVLink vs PCIe fabric vs Ethernet), :mod:`~repro.experiments.
dual_connection` (paper §III-B cabling), :mod:`~repro.experiments.
scaling_laws` (what actually drives the size-overhead correlation),
:mod:`~repro.experiments.recommender` (the §VI topology-recommendation
framework), :mod:`~repro.experiments.profiling` (bottleneck reports and
Fig. 16 grid annotation via the plan-level profiler),
:mod:`~repro.experiments.matrix` (the strategy x model x backend
crossover frontier: which parallelization wins where, and which models
flip winners between the local and composed fabrics),
:mod:`~repro.experiments.fleet`
(multi-chassis cluster scheduling: utilization, queueing delay, spine
contention), and :mod:`~repro.experiments.export` (CSV/JSON writers).
"""

from .dual_connection import DualConnectionResult, dual_connection_study
from .elasticity import (
    ElasticityRecord,
    autoscaler_comparison,
    elastic_resize_run,
    elasticity_study,
    lost_work_comparison,
    reconfiguration_sweep,
)
from .fault_tolerance import (
    FaultToleranceRecord,
    cable_pull_scenario,
    checkpoint_cadence_sweep,
    fault_tolerance_study,
)
from .export import (
    record_to_dict,
    records_to_csv,
    records_to_json,
    write_records,
)
from .fleet import SMOKE_SPEC, fleet_study
from .microbench import P2PResult, measure_pair, table4
from .resilience import DegradationResult, degraded_uplink_study
from .scale_out import ScaleOutResult, allreduce_scale_out_study
from .scaling_laws import (
    BatchPoint,
    ScalingPoint,
    overhead_vs_batch,
    overhead_vs_model_size,
)
from .recommender import (
    Recommendation,
    ResourcePricing,
    ScoredConfiguration,
    TopologyRecommender,
)
from .matrix import (
    MATRIX_MODELS,
    SMOKE_MODELS,
    MatrixCell,
    MatrixReport,
    format_matrix,
    run_matrix,
)
from .autotune import (
    candidate_pipelines,
    run_autotune,
    write_tuning_table,
)
from .parallel import (
    NullCache,
    ResultCache,
    default_cache_dir,
    run_cells,
)
from .profiling import bottleneck_labels, profile_cell
from .runner import ExperimentRecord, run_configuration
from .tracing import (
    OverheadSplit,
    TracedRun,
    overhead_split,
    traced_run,
)
from .sharing import (
    PlacementResult,
    ReconfigurationResult,
    SharingResult,
    reconfiguration_study,
    ring_placement_study,
    tenancy_isolation_study,
)
from .software_opts import (
    OptVariant,
    VARIANTS,
    optimized_ddp_study,
    software_optimization_study,
    time_reduction_pct,
)
from .sweeps import (
    GPU_CONFIGS,
    STORAGE_CONFIGS,
    gpu_config_sweep,
    relative_time_rows,
    storage_config_sweep,
    telemetry_rows,
    traffic_rows,
)
from .tables import format_value, render_table
from .traces import UtilizationTrace, count_dips, gpu_utilization_trace

__all__ = [
    "table4",
    "P2PResult",
    "measure_pair",
    "ExperimentRecord",
    "run_configuration",
    "ResultCache",
    "NullCache",
    "default_cache_dir",
    "run_cells",
    "candidate_pipelines",
    "run_autotune",
    "write_tuning_table",
    "fleet_study",
    "SMOKE_SPEC",
    "profile_cell",
    "bottleneck_labels",
    "MatrixCell",
    "MatrixReport",
    "MATRIX_MODELS",
    "SMOKE_MODELS",
    "run_matrix",
    "format_matrix",
    "gpu_config_sweep",
    "storage_config_sweep",
    "GPU_CONFIGS",
    "STORAGE_CONFIGS",
    "relative_time_rows",
    "telemetry_rows",
    "traffic_rows",
    "gpu_utilization_trace",
    "UtilizationTrace",
    "count_dips",
    "optimized_ddp_study",
    "software_optimization_study",
    "OptVariant",
    "VARIANTS",
    "time_reduction_pct",
    "render_table",
    "format_value",
    "TopologyRecommender",
    "ResourcePricing",
    "Recommendation",
    "ScoredConfiguration",
    "SharingResult",
    "PlacementResult",
    "ReconfigurationResult",
    "tenancy_isolation_study",
    "ring_placement_study",
    "reconfiguration_study",
    "DegradationResult",
    "degraded_uplink_study",
    "FaultToleranceRecord",
    "cable_pull_scenario",
    "fault_tolerance_study",
    "checkpoint_cadence_sweep",
    "ElasticityRecord",
    "elastic_resize_run",
    "lost_work_comparison",
    "reconfiguration_sweep",
    "autoscaler_comparison",
    "elasticity_study",
    "ScaleOutResult",
    "allreduce_scale_out_study",
    "DualConnectionResult",
    "dual_connection_study",
    "ScalingPoint",
    "BatchPoint",
    "overhead_vs_model_size",
    "overhead_vs_batch",
    "record_to_dict",
    "records_to_json",
    "records_to_csv",
    "write_records",
    "TracedRun",
    "OverheadSplit",
    "traced_run",
    "overhead_split",
]
