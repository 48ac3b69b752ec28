"""The per-run observability handle: tracer + metrics.

One :class:`Observability` object travels with one platform run; every
instrumented layer (platform, planner, incremental engine, travel
model) sees the same handle, so spans nest across layers and
metrics land in one registry.  The disabled path is the module singleton
:data:`OBS_DISABLED` — a distinct class whose every method is a
constant-time no-op, so hot-path call sites can hold an observability
reference unconditionally and pay only an attribute load plus a cheap
call (or nothing at all, when they guard on ``obs.enabled``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, _NULL_SPAN, _NullSpan

__all__ = ["ObservabilityConfig", "Observability", "OBS_DISABLED"]


@dataclass
class ObservabilityConfig:
    """What to collect when observability is on.

    Attributes
    ----------
    trace:
        Record hierarchical spans / instants / counter samples.
    metrics:
        Maintain the per-run :class:`MetricsRegistry`.
    trace_path:
        When set, the platform writes the trace here at the end of the
        run (Perfetto-loadable JSON; see :meth:`Tracer.write`).
    """

    trace: bool = True
    metrics: bool = True
    trace_path: Optional[str] = None


class Observability:
    """Enabled observability: a live tracer plus a metrics registry."""

    enabled = True

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config or ObservabilityConfig()
        self.tracer: Tracer | NullTracer = (
            Tracer() if self.config.trace else NULL_TRACER
        )
        self.registry = MetricsRegistry()
        #: Registry operations performed (one int add per op) — the event
        #: count the overhead benchmark multiplies by a microbenched
        #: per-op cost (see benchmarks/perf/test_observability_overhead.py).
        self.ops = 0

    # ------------------------------------------------------------------ #
    # Tracing
    # ------------------------------------------------------------------ #
    def span(self, name: str, cat: str = "span", **args: object):
        return self.tracer.span(name, cat=cat, **args)

    def instant(self, name: str, **args: object) -> None:
        self.tracer.instant(name, **args)

    def counter_event(self, name: str, **values: float) -> None:
        self.tracer.counter(name, **values)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0) -> None:
        self.ops += 1
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.ops += 1
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.ops += 1
        self.registry.histogram(name).record(value)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Registry snapshot plus per-phase totals aggregated from spans."""
        snap = self.registry.snapshot()
        phases: Dict[str, Dict[str, float]] = {}
        for event in self.tracer.events:
            if event.get("ph") != "X":
                continue
            entry = phases.setdefault(str(event["name"]), {"count": 0.0, "total_ms": 0.0})
            entry["count"] += 1.0
            entry["total_ms"] += float(event["dur"]) / 1000.0
        snap["phases"] = {name: phases[name] for name in sorted(phases)}
        return snap

    def write_trace(self, path: Optional[str] = None) -> Optional[str]:
        """Write the trace to ``path`` (default: the configured path)."""
        target = path or self.config.trace_path
        if target is None or not self.tracer.enabled:
            return None
        self.tracer.write(target)
        return target


class _DisabledObservability:
    """The no-op twin of :class:`Observability` (module singleton)."""

    enabled = False
    tracer = NULL_TRACER
    ops = 0

    def span(self, name: str, cat: str = "span", **args: object) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args: object) -> None:
        pass

    def counter_event(self, name: str, **values: float) -> None:
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}

    def write_trace(self, path: Optional[str] = None) -> None:
        return None


OBS_DISABLED = _DisabledObservability()
