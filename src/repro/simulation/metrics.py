"""Metric collection for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.metrics import StreamingHistogram
from repro.simulation.record import EpochRecord

#: Epoch classes the replan-latency distribution is partitioned by:
#: ``full`` — the epoch was fully recomputed; ``incremental`` — the
#: dirty-region engine served part of it from cache; ``degraded`` — a
#: deadline forced a rung below ``full``.
EPOCH_CLASSES = ("full", "incremental", "degraded")


@dataclass
class SimulationMetrics:
    """Counters and timers accumulated during one simulation run.

    ``cpu_times`` records the wall-clock cost of every planning call so
    that the paper's "CPU time" metric (average cost of performing task
    assignment at each time instance) can be reported.
    """

    assigned_tasks: int = 0
    dispatched_tasks: int = 0
    expired_tasks: int = 0
    replans: int = 0
    cpu_times: List[float] = field(default_factory=list)
    assigned_per_worker: Dict[int, int] = field(default_factory=dict)
    #: Malformed events rejected at ingestion (see ``validate_event``).
    rejected_events: int = 0
    #: Duplicate / stale deliveries ignored by the platform (a task already
    #: assigned or open, a worker re-arriving while serving a task).
    duplicate_events: int = 0
    #: Epochs a corrupted incremental cache was detected and healed by a
    #: cache drop + full replan.
    invariant_repairs: int = 0
    #: How many counted planning epochs each degradation rung served
    #: (``full`` / ``partial`` / ``greedy`` / ``carryover``).
    degradation_rungs: Dict[str, int] = field(default_factory=dict)
    #: Always 0: component searches run in process.  Both fields stay
    #: because ``benchmarks/e2e/measure.py`` reads them; they go in the
    #: next benchmark-change PR (ROADMAP item 4), alongside
    #: ``PlannerConfig.bound_mode``.  Not part of :meth:`deterministic_state`.
    parallel_components: int = 0
    executor_overhead_s: float = 0.0
    #: Replan-latency distribution per epoch class (see
    #: :data:`EPOCH_CLASSES`): streaming log-scale histograms answering
    #: p50/p95/p99 without retaining samples.  The recorded values are
    #: the same wall-clock measurements as ``cpu_times``, so the field is
    #: excluded from :meth:`deterministic_state` for the same reason.
    latency_by_class: Dict[str, StreamingHistogram] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def fold(self, record: EpochRecord) -> None:
        """Accumulate one epoch's record: the only way the counters move."""
        self.rejected_events += record.rejected
        self.duplicate_events += record.duplicates
        self.expired_tasks += record.expired
        self.invariant_repairs += record.repairs
        if record.counted:
            self.replans += 1
            self.cpu_times.append(record.cpu)
            histogram = self.latency_by_class.get(record.cls)
            if histogram is None:
                histogram = self.latency_by_class[record.cls] = StreamingHistogram()
            histogram.record(record.cpu)
            rungs = self.degradation_rungs
            rungs[record.rung] = rungs.get(record.rung, 0) + 1
        self.dispatched_tasks += len(record.dispatches)
        self.assigned_tasks += len(record.dispatches)
        per_worker = self.assigned_per_worker
        for worker_id, _task_id in record.dispatches:
            per_worker[worker_id] = per_worker.get(worker_id, 0) + 1

    # ------------------------------------------------------------------ #
    @property
    def total_cpu_time(self) -> float:
        return float(sum(self.cpu_times))

    @property
    def mean_cpu_time(self) -> float:
        """Average planning cost per time instance (the paper's CPU time)."""
        return self.total_cpu_time / len(self.cpu_times) if self.cpu_times else 0.0

    @property
    def degraded_epochs(self) -> int:
        """Counted planning epochs served by any rung below ``full``."""
        return sum(
            count for rung, count in self.degradation_rungs.items() if rung != "full"
        )

    def replan_latency_summary(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 (and count/mean/min/max) per epoch class, in ms.

        Includes an ``overall`` entry merging every class — the number an
        operator alarms on before caring which class blew the budget.
        """
        summary: Dict[str, Dict[str, float]] = {}
        overall = StreamingHistogram()
        for epoch_class in sorted(self.latency_by_class):
            histogram = self.latency_by_class[epoch_class]
            summary[epoch_class] = histogram.summary(scale=1000.0)
            overall.merge(histogram)
        if overall.count:
            summary["overall"] = overall.summary(scale=1000.0)
        return summary

    def as_dict(self) -> Dict[str, float]:
        return {
            "assigned_tasks": float(self.assigned_tasks),
            "dispatched_tasks": float(self.dispatched_tasks),
            "expired_tasks": float(self.expired_tasks),
            "replans": float(self.replans),
            "total_cpu_time": self.total_cpu_time,
            "mean_cpu_time": self.mean_cpu_time,
            "active_workers": float(len(self.assigned_per_worker)),
            "rejected_events": float(self.rejected_events),
            "duplicate_events": float(self.duplicate_events),
            "invariant_repairs": float(self.invariant_repairs),
            "degraded_epochs": float(self.degraded_epochs),
        }

    def deterministic_state(self) -> Dict[str, object]:
        """Every counter that is a pure function of the simulated stream.

        This is the bit-for-bit contract of checkpoint/recovery: a killed
        run resumed from checkpoint + journal must reproduce this mapping
        exactly.  ``cpu_times`` are wall-clock measurements and can never
        agree across runs, so only their count participates (the journal
        preserves the crashed run's recorded values verbatim; a fresh
        uninterrupted run measures its own).
        """
        return {
            "assigned_tasks": self.assigned_tasks,
            "dispatched_tasks": self.dispatched_tasks,
            "expired_tasks": self.expired_tasks,
            "replans": self.replans,
            "num_cpu_samples": len(self.cpu_times),
            "assigned_per_worker": dict(sorted(self.assigned_per_worker.items())),
            "rejected_events": self.rejected_events,
            "duplicate_events": self.duplicate_events,
            "invariant_repairs": self.invariant_repairs,
            "degradation_rungs": dict(sorted(self.degradation_rungs.items())),
        }
