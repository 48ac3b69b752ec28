"""Incremental-replan microbenchmarks: dirty-region vs full replanning.

Two measurements, written into the ``incremental_replan`` section of
``BENCH_planning.json`` (merged, so the sections owned by
``test_planning_perf.py`` survive):

* **single-event stream** — a density-controlled snapshot evolves through
  single-arrival / single-dispatch events with time advancing between
  decision points, exactly the workload shape of Algorithm 3.  Every event
  is planned twice: by the full-replan pipeline (the same engine reset
  before every plan, vectorized kernel) and by the incremental engine; both latencies are recorded and the assignments are asserted
  bit-identical, so the speedup is measured on provably equivalent work.
* **streaming platform** — a full :class:`SCPlatform` replay of the
  Yueche-like workload under DTA, full vs incremental, comparing the
  paper's CPU-time metric (mean replan latency per decision point).

The same-run speedup ratios are machine-invariant and regression-gated by
``benchmarks/perf/check_regression.py``; absolute latencies are context.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from conftest import cold_strategy, print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: (name, workers, tasks) of the density-controlled snapshots.
STREAM_SCALES = [
    ("small", 25, 150),
    ("medium", 100, 800),
]

STREAM_DENSITY = 8.0


def make_stream_snapshot(num_workers, num_tasks, seed=7, reach=1.0):
    """Density-controlled snapshot with staggered task lifetimes."""
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    area = math.sqrt(num_tasks * math.pi * reach * reach / STREAM_DENSITY)
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, area), rng.uniform(0, area)),
            reach * rng.uniform(0.8, 1.2),
            0.0,
            240.0,
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(
            10_000 + j,
            Point(rng.uniform(0, area), rng.uniform(0, area)),
            0.0,
            rng.uniform(20.0, 80.0),
        )
        for j in range(num_tasks)
    ]
    return workers, tasks, area, rng


def _plan_signature(outcome):
    return [
        (wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment
    ]


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


class TestSingleEventStream:
    def test_single_event_stream_latency(self, bench_scale, perf_results):
        """Per-event replan latency, full pipeline vs incremental engine."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.core.task import Task
        from repro.spatial.geometry import Point
        from repro.spatial.travel import EuclideanTravelModel

        num_events = 8 if bench_scale.name == "quick" else 16
        section = {}
        rows = []
        for name, num_workers, num_tasks in STREAM_SCALES:
            workers, tasks, area, rng = make_stream_snapshot(num_workers, num_tasks)
            travel = EuclideanTravelModel(1.0)
            full = TaskPlanner(PlannerConfig(), travel=travel)
            incremental = TaskPlanner(PlannerConfig(), travel=travel)
            # Warm both: the cold first plan is identical work for both
            # engines; the stream measures the steady single-event state.
            incremental.plan(workers, tasks, 0.0)
            full.plan(workers, tasks, 0.0)

            now = 0.0
            next_id = 50_000
            full_samples = []
            incremental_samples = []
            reused = recomputed = 0
            for event in range(num_events):
                now += 0.2
                if event % 3 == 2 and tasks:
                    # Dispatch: a task leaves the snapshot and its worker
                    # relocates to the task location.
                    task = tasks.pop(rng.randrange(len(tasks)))
                    widx = rng.randrange(len(workers))
                    workers[widx] = workers[widx].moved_to(task.location)
                else:
                    # Arrival: one new task enters the snapshot.
                    tasks.append(
                        Task(
                            next_id,
                            Point(rng.uniform(0, area), rng.uniform(0, area)),
                            now,
                            now + rng.uniform(20.0, 80.0),
                        )
                    )
                    next_id += 1
                start = time.perf_counter()
                inc_outcome = incremental.plan(workers, tasks, now)
                incremental_samples.append(time.perf_counter() - start)
                start = time.perf_counter()
                full.reset_cache()
                full_outcome = full.plan(workers, tasks, now)
                full_samples.append(time.perf_counter() - start)
                # The speedup only counts if the answers are identical.
                assert _plan_signature(inc_outcome) == _plan_signature(full_outcome)
                assert inc_outcome.nodes_expanded == full_outcome.nodes_expanded
                reused += inc_outcome.reused_workers
                recomputed += inc_outcome.recomputed_workers

            full_mean, full_p95 = _latency_stats(full_samples)
            inc_mean, inc_p95 = _latency_stats(incremental_samples)
            speedup = full_mean / max(inc_mean, 1e-9)
            reuse_fraction = reused / max(reused + recomputed, 1)
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "events": num_events,
                "full_mean_ms": round(full_mean, 3),
                "full_p95_ms": round(full_p95, 3),
                "incremental_mean_ms": round(inc_mean, 3),
                "incremental_p95_ms": round(inc_p95, 3),
                "worker_reuse_fraction": round(reuse_fraction, 3),
                "speedup": round(speedup, 2),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "full_mean_ms": f"{full_mean:.1f}",
                    "incr_mean_ms": f"{inc_mean:.1f}",
                    "worker_reuse": f"{reuse_fraction:.0%}",
                    "speedup": f"{speedup:.2f}x",
                }
            )
        perf_results.setdefault("incremental_replan", {})["single_event_stream"] = section
        print_figure(
            "Single-event replan latency — full pipeline vs incremental engine",
            rows,
            ["scale", "full_mean_ms", "incr_mean_ms", "worker_reuse", "speedup"],
        )
        # Sanity floors well below the committed baseline (absorbing machine
        # noise); the committed BENCH_planning.json documents the real
        # ratios and check_regression.py gates them.
        assert section["medium"]["speedup"] >= 2.0
        assert section["small"]["speedup"] >= 1.2


class TestStreamingPlatformIncremental:
    def test_streaming_platform_replan_latency(self, bench_scale, perf_results):
        """Mean replan latency of full platform replays, full vs incremental."""
        from repro.assignment.planner import PlannerConfig
        from repro.assignment.strategies import DTAStrategy
        from repro.datasets.yueche import generate_yueche
        from repro.simulation.platform import PlatformConfig, SCPlatform

        scale = bench_scale.workload_scale * 3.0  # the PR 1 "medium" stream
        workload = generate_yueche(scale=scale, seed=11)
        instance = workload.instance
        entry = {"workers": instance.num_workers, "tasks": instance.num_tasks}
        stats = {}
        for label, cold in (("full", True), ("incremental", False)):
            strategy = DTAStrategy(config=PlannerConfig())
            if cold:
                cold_strategy(strategy)
            platform = SCPlatform(
                instance,
                strategy,
                PlatformConfig(replan_interval=0.0),
            )
            metrics = platform.run()
            mean_ms, p95_ms = _latency_stats(metrics.cpu_times or [0.0])
            stats[label] = (mean_ms, p95_ms)
            entry[f"{label}_mean_replan_ms"] = round(mean_ms, 3)
            entry[f"{label}_p95_replan_ms"] = round(p95_ms, 3)
            entry[f"{label}_assigned"] = metrics.assigned_tasks
            entry[f"{label}_replans"] = metrics.replans
        # Same stream, same decisions — the engine is a pure optimisation.
        assert entry["full_assigned"] == entry["incremental_assigned"]
        assert entry["full_replans"] == entry["incremental_replans"]
        speedup = stats["full"][0] / max(stats["incremental"][0], 1e-9)
        entry["speedup"] = round(speedup, 2)
        perf_results.setdefault("incremental_replan", {})["streaming_platform"] = {"medium": entry}
        print_figure(
            "Streaming platform replan latency — full vs incremental (DTA)",
            [
                {
                    "scale": f"medium ({entry['workers']}w/{entry['tasks']}t)",
                    "full_mean_ms": entry["full_mean_replan_ms"],
                    "incr_mean_ms": entry["incremental_mean_replan_ms"],
                    "incr_p95_ms": entry["incremental_p95_replan_ms"],
                    "speedup": f"{speedup:.2f}x",
                }
            ],
            ["scale", "full_mean_ms", "incr_mean_ms", "incr_p95_ms", "speedup"],
        )
        # Event snapshots at this scale are small (scalar-path dominated),
        # so the bar is parity modulo wall-clock noise; the single-event
        # suite above carries the headline dirty-region speedup and
        # check_regression.py gates the committed ratio.
        assert speedup >= 0.8
