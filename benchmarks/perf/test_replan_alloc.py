"""Allocation footprint of the incremental replan engine.

PR 10's allocation work (field-wise fingerprint compares, interned
available-id sets, in-place ``_WorkerEntry`` reuse, shared per-epoch task
coordinate arrays) is a *memory-churn* optimisation: wall-clock speedups
are already gated by ``test_incremental_replan.py``, so this module gates
the footprint itself.  Each event of the dirty single-event stream is
planned under ``tracemalloc`` with the trace buffer cleared per call; the
recorded **peak traced bytes** is the event's transient allocation
ceiling — how much new memory the replan needed at its high-water mark.

Writes a ``replan_alloc`` section into ``BENCH_planning.json`` (merged).
``alloc_reduction`` — the full pipeline's per-event ceiling over the
incremental engine's, same run, same machine, same snapshots — is gated
by ``check_regression.py`` at an absolute floor of
``ALLOC_REDUCTION_FLOOR`` (2.0: the dirty-region engine must allocate at
most half of what a full replan allocates per event).  Absolute byte
counts are reported as context only: they shift with Python/NumPy
versions.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import print_figure
from test_incremental_replan import make_stream_snapshot

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: (name, workers, tasks) — the dirty-stream scales of the other modules.
SCALES = [
    ("small", 25, 150),
    ("medium", 100, 800),
]


def _traced_peak(fn):
    """Peak traced bytes allocated while running ``fn`` (trace cleared)."""
    tracemalloc.clear_traces()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    return result, peak


def _kb(values):
    return float(np.asarray(values, dtype=np.float64).mean() / 1024.0)


class TestReplanAllocationCeiling:
    def test_single_event_stream_allocation(self, bench_scale, perf_results):
        """Per-event peak allocation, full pipeline vs incremental engine."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.core.task import Task
        from repro.spatial.geometry import Point
        from repro.spatial.travel import EuclideanTravelModel

        num_events = 8 if bench_scale.name == "quick" else 16
        section = {}
        rows = []
        for name, num_workers, num_tasks in SCALES:
            workers, tasks, area, rng = make_stream_snapshot(num_workers, num_tasks)
            travel = EuclideanTravelModel(1.0)
            full = TaskPlanner(PlannerConfig(), travel=travel)
            incremental = TaskPlanner(PlannerConfig(), travel=travel)
            incremental.plan(workers, tasks, 0.0)
            full.plan(workers, tasks, 0.0)

            now = 0.0
            next_id = 50_000
            full_peaks, inc_peaks, quiet_peaks = [], [], []
            tracemalloc.start()
            try:
                for event in range(num_events):
                    now += 0.2
                    if event % 3 == 2 and tasks:
                        task = tasks.pop(rng.randrange(len(tasks)))
                        widx = rng.randrange(len(workers))
                        workers[widx] = workers[widx].moved_to(task.location)
                    else:
                        tasks.append(
                            Task(
                                next_id,
                                Point(rng.uniform(0, area), rng.uniform(0, area)),
                                now,
                                now + rng.uniform(20.0, 80.0),
                            )
                        )
                        next_id += 1
                    inc_outcome, peak = _traced_peak(
                        lambda: incremental.plan(workers, tasks, now)
                    )
                    inc_peaks.append(peak)
                    def full_replan():
                        # The emptied caches are allocated inside the
                        # trace, as a new engine's were.
                        full.reset_cache()
                        return full.plan(workers, tasks, now)

                    full_outcome, peak = _traced_peak(full_replan)
                    full_peaks.append(peak)
                    # The reduction only counts on provably equivalent work.
                    assert [
                        (wp.worker.worker_id, wp.sequence.task_ids)
                        for wp in inc_outcome.assignment
                    ] == [
                        (wp.worker.worker_id, wp.sequence.task_ids)
                        for wp in full_outcome.assignment
                    ]
                    assert inc_outcome.nodes_expanded == full_outcome.nodes_expanded
                # Quiet epochs — nothing changed since the last plan — are
                # the engine's pure reuse path (context, not gated).
                for _ in range(4):
                    now += 0.2
                    _, peak = _traced_peak(
                        lambda: incremental.plan(workers, tasks, now)
                    )
                    quiet_peaks.append(peak)
            finally:
                tracemalloc.stop()

            full_kb, inc_kb, quiet_kb = _kb(full_peaks), _kb(inc_peaks), _kb(quiet_peaks)
            reduction = full_kb / max(inc_kb, 1e-9)
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "events": num_events,
                "full_peak_kb": round(full_kb, 1),
                "incremental_peak_kb": round(inc_kb, 1),
                "quiet_peak_kb": round(quiet_kb, 1),
                "alloc_reduction": round(reduction, 2),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "full_peak_kb": f"{full_kb:.0f}",
                    "incr_peak_kb": f"{inc_kb:.0f}",
                    "quiet_peak_kb": f"{quiet_kb:.1f}",
                    "reduction": f"{reduction:.1f}x",
                }
            )
        perf_results.setdefault("replan_alloc", {})["single_event_stream"] = section
        print_figure(
            "Per-event allocation ceiling — full pipeline vs incremental engine",
            rows,
            ["scale", "full_peak_kb", "incr_peak_kb", "quiet_peak_kb", "reduction"],
        )
        # In-test floors mirror check_regression.py's ALLOC_REDUCTION_FLOOR;
        # the committed numbers are far above them.
        assert section["medium"]["alloc_reduction"] >= 2.0
        assert section["small"]["alloc_reduction"] >= 2.0
