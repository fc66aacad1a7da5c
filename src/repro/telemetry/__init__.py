"""Observability: span tracing, metrics registry, sampled collectors.

The subsystem has three pillars (see DESIGN.md "Observability"):

- :mod:`repro.telemetry.trace` — sim-time span tracer (Nsight stand-in),
- :mod:`repro.telemetry.registry` — namespaced metrics directory
  unifying :class:`~repro.sim.TimeSeries`, counters, and derived gauges,
- :mod:`repro.telemetry.export` — Chrome/Perfetto trace_event JSON,
  flat JSONL, flame summary and ASCII timeline,
- :mod:`repro.telemetry.profile` — the plan-level profiler: measured
  critical-path attribution, per-resource utilization, what-if speedup
  ceilings, and the :class:`BottleneckReport` (Figs. 11/16 diagnosis).

:class:`MetricsCollector` remains the periodic sampler behind the
utilization figures (9/10/13/14); it can publish its series into a
:class:`MetricsRegistry` via the ``registry=`` constructor argument.
"""

from .collector import MetricsCollector
from .export import (
    flame_rows,
    render_ascii_timeline,
    render_flame_summary,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .profile import (
    ATTRIBUTION_CATEGORIES,
    SCALE_BUCKETS,
    Attribution,
    BottleneckReport,
    CriticalPath,
    PathSegment,
    PlanProfile,
    RunProfile,
    WhatIf,
    WindowProfile,
    attribution,
    bottleneck_label,
    critical_path,
    imbalance,
    predict_scaled_timing,
    profile_plan,
    profile_run,
    relaxation_is_exact,
    render_report_text,
    scale_plan,
    utilization,
    what_if,
)
from .registry import MetricError, MetricsRegistry
from .trace import NULL_TRACER, Category, Span, Tracer, Track

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "SCALE_BUCKETS",
    "Attribution",
    "BottleneckReport",
    "CriticalPath",
    "PathSegment",
    "PlanProfile",
    "RunProfile",
    "WhatIf",
    "WindowProfile",
    "attribution",
    "bottleneck_label",
    "critical_path",
    "imbalance",
    "predict_scaled_timing",
    "profile_plan",
    "profile_run",
    "relaxation_is_exact",
    "render_report_text",
    "scale_plan",
    "utilization",
    "what_if",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricError",
    "Tracer",
    "Span",
    "Track",
    "Category",
    "NULL_TRACER",
    "flame_rows",
    "render_flame_summary",
    "render_ascii_timeline",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
