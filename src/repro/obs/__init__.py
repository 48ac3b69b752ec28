"""``repro.obs``: tracing spans, streaming metrics, profiling hooks.

Three stdlib-only layers behind one per-run handle:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  log-scale :class:`StreamingHistogram`\\ s (p50/p95/p99 without
  retaining samples);
* :class:`Tracer` — hierarchical spans over the plan pipeline, exported
  as Trace Event Format loadable in Perfetto / chrome://tracing
  (``python -m repro.obs.report`` renders a text report from the file);
* :func:`configure_logging` — the one entry point of the namespaced
  ``repro.*`` logging hierarchy.

Enable per run via ``PlatformConfig.observability =
ObservabilityConfig(...)``; the default (``None``) keeps every hot path
on the no-op-cheap :data:`OBS_DISABLED` singleton.
"""

from repro.obs.logconfig import configure_logging
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.runtime import OBS_DISABLED, Observability, ObservabilityConfig
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    build_span_tree,
    parse_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "Observability",
    "ObservabilityConfig",
    "OBS_DISABLED",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "parse_trace",
    "build_span_tree",
    "configure_logging",
]
