"""Observability runtime overhead: a fully traced replay vs the no-op path.

One measurement, written into the ``observability_overhead`` section of
``BENCH_planning.json`` (merged, so the sections owned by the other perf
modules survive): a full :class:`SCPlatform` replay of the Yueche-like
quick stream under DTA with every repro.obs feature armed — hierarchical
spans over the whole plan pipeline, streaming metrics, and the IPC
profiling switch.

The gate is machine-invariant: trace events and registry ops per plan
call (``events_per_plan`` / ``ops_per_plan``) may not exceed the values
committed in ``BENCH_planning.json`` — asserted here and by
``benchmarks/perf/check_regression.py``.  Both are deterministic counts
of what the enabled path does.  The wall-clock ``overhead_ratio`` below
is recorded for information only: it is the hook cost over a replay,
so every cheaper replan raises it, and on a shared host it spreads
across the old 1.05 bound run to run.

Measurement notes for the ratio: back-to-back A/B timings do not survive
shared runners (see test_resilience_overhead.py — drift swamps single-digit
effects), so the estimate is **same-run derived**.  One traced replay
measures the total process CPU time; the observability cost inside it is
reconstructed as *events × per-event cost + registry ops × per-op cost*,
where the per-event and per-op costs are micro-timed right before the
replay (min over several tight-loop passes, same process, same clock).
Every span and instant appends exactly one event and every
count/gauge/observe bumps :attr:`Observability.ops` by one, so the two
products cover everything the enabled path does that the disabled path
does not — except the per-call-site constant of the no-op guard itself,
which the disabled run also pays and which therefore cancels out of the
ratio's denominator by construction.  The ratio is ``total / (total -
hooks)``: numerator and denominator come from the same run, so
machine-wide slowdowns cancel.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from conftest import print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: The committed baseline whose per-plan-call counts are the ceiling.
COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_planning.json"

#: Traced replays; the committed ratio is their median.
TRACED_REPS = 5
#: Tight-loop passes when micro-timing the per-event / per-op costs.
MICRO_PASSES = 5
#: Loop length of each micro-timing pass.
MICRO_N = 20_000


def _per_event_cost() -> float:
    """Seconds per emitted span event (enter + exit + append)."""
    from repro.obs.trace import Tracer

    best = float("inf")
    for _ in range(MICRO_PASSES):
        tracer = Tracer()
        start = time.process_time()
        for _ in range(MICRO_N):
            with tracer.span("bench"):
                pass
        best = min(best, (time.process_time() - start) / MICRO_N)
    return best


def _per_op_cost() -> float:
    """Seconds per registry operation.

    Timed on ``count`` — on the serial replay measured here the op mix is
    almost entirely counter increments (the incremental engine's per-epoch
    reuse counters); histogram observes only appear on the pooled path.
    """
    from repro.obs.runtime import Observability

    best = float("inf")
    for _ in range(MICRO_PASSES):
        obs = Observability()
        start = time.process_time()
        for _ in range(MICRO_N):
            obs.count("bench")
        best = min(best, (time.process_time() - start) / MICRO_N)
    return best


class TestObservabilityOverhead:
    def _build(self, instance, observability):
        from repro.assignment.planner import PlannerConfig
        from repro.assignment.strategies import DTAStrategy
        from repro.simulation.platform import PlatformConfig, SCPlatform

        return SCPlatform(
            instance,
            DTAStrategy(config=PlannerConfig()),
            PlatformConfig(
                replan_interval=0.0,
                observability=observability,
            ),
        )

    def test_observability_overhead(self, bench_scale, perf_results):
        from repro.datasets.yueche import generate_yueche
        from repro.obs import ObservabilityConfig

        workload = generate_yueche(scale=bench_scale.workload_scale, seed=11)
        instance = workload.instance

        def timed(traced):
            observability = ObservabilityConfig() if traced else None
            platform = self._build(instance, observability)
            start = time.process_time()
            metrics = platform.run()
            return time.process_time() - start, metrics, platform

        timed(False), timed(True)  # warm-up pair, discarded

        base_s, base_metrics, _ = timed(False)
        per_event_s = _per_event_cost()
        per_op_s = _per_op_cost()

        ratios, traced_times = [], []
        for _ in range(TRACED_REPS):
            traced_s, traced_metrics, traced_platform = timed(True)
            obs = traced_platform.obs
            hooks_s = per_event_s * len(obs.tracer.events) + per_op_s * obs.ops
            ratios.append(traced_s / max(traced_s - hooks_s, 1e-9))
            traced_times.append(traced_s)

        # Observation-only: every decision matches the untraced run.
        assert (
            traced_metrics.deterministic_state() == base_metrics.deterministic_state()
        )
        trace = traced_platform.obs.tracer.events
        events = len(trace)
        ops = traced_platform.obs.ops
        plan_calls = sum(1 for event in trace if event["name"] == "plan")
        assert events > 0 and ops > 0 and plan_calls > 0

        overhead = statistics.median(ratios)
        entry = {
            "workers": instance.num_workers,
            "tasks": instance.num_tasks,
            "baseline_ms": round(base_s * 1000.0, 3),
            "traced_ms": round(min(traced_times) * 1000.0, 3),
            "trace_events": events,
            "registry_ops": ops,
            "plan_calls": plan_calls,
            "events_per_plan": round(events / plan_calls, 4),
            "ops_per_plan": round(ops / plan_calls, 4),
            "overhead_ratio": round(overhead, 4),
        }
        perf_results.setdefault("observability_overhead", {})["small"] = entry
        print_figure(
            "Observability overhead — traced platform vs no-op path (DTA)",
            [
                {
                    "scale": f"small ({entry['workers']}w/{entry['tasks']}t)",
                    "baseline_ms": entry["baseline_ms"],
                    "traced_ms": entry["traced_ms"],
                    "events": events,
                    "ops": ops,
                    "overhead": f"{(overhead - 1.0) * 100.0:+.1f}%",
                }
            ],
            ["scale", "baseline_ms", "traced_ms", "events", "ops", "overhead"],
        )
        # The same ceiling check_regression.py enforces, applied inline so
        # the smoke run fails fast: no more events or ops per plan call
        # than the committed run emitted.
        committed = json.loads(COMMITTED.read_text())["observability_overhead"]["small"]
        assert entry["events_per_plan"] <= committed["events_per_plan"]
        assert entry["ops_per_plan"] <= committed["ops_per_plan"]
