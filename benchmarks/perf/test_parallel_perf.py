"""Parallel component search soak benchmark.

One section is merged into ``BENCH_planning.json``:

* **parallel_search** — snapshot replans over dense *multi-cluster*
  scenes (several spatially separated dense components, so the
  decompose stage yields one heavy ``ComponentJob`` per cluster) timed
  under the serial backend and under the process-pool backend at 4
  workers.  The acceptance bar is a >=1.5x wall-clock speedup at 4
  workers — but only where 4 workers exist: each entry records the host
  core count and a ``gate`` flag, and both the in-test assertion and
  ``check_regression.py``'s ``floor`` gate arm themselves only when
  ``gate`` is true (CI's ubuntu-latest runners have 4 vCPUs; a 1-core
  container records honest numbers without pretending to a speedup it
  cannot physically show).  Backend equivalence is asserted on every
  run regardless of core count.
"""

from __future__ import annotations

import math
import os
import random
import time

import numpy as np
import pytest

from conftest import print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: Wall-clock speedup the pool must deliver at 4 workers on gated hosts.
SPEEDUP_FLOOR = 1.5

#: (name, clusters, workers_per_cluster, tasks_per_cluster, density).
#: Each cluster is dense enough that its component search dominates the
#: epoch; clusters are far apart, so they are independent jobs.
PARALLEL_SCALES = [
    ("clusters_4x", 4, 10, 60, 14.0),
    ("clusters_8x", 8, 10, 60, 14.0),
]


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_clustered_snapshot(clusters, workers_per, tasks_per, density, seed=7):
    """Several spatially separated dense components in one snapshot."""
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    reach = 1.0
    side = math.sqrt(tasks_per * math.pi * reach * reach / density)
    gap = side + 50.0 * reach  # far beyond any reachable radius
    workers, tasks = [], []
    next_task = 10_000
    for c in range(clusters):
        ox = (c % 4) * gap
        oy = (c // 4) * gap
        for i in range(workers_per):
            workers.append(
                Worker(
                    c * 1_000 + i,
                    Point(ox + rng.uniform(0, side), oy + rng.uniform(0, side)),
                    reach * rng.uniform(0.8, 1.2),
                    0.0,
                    240.0,
                )
            )
        for _ in range(tasks_per):
            tasks.append(
                Task(
                    next_task,
                    Point(ox + rng.uniform(0, side), oy + rng.uniform(0, side)),
                    0.0,
                    rng.uniform(20.0, 80.0),
                )
            )
            next_task += 1
    return workers, tasks


def canonical(assignment):
    return sorted(
        (plan.worker.worker_id, tuple(task.task_id for task in plan.sequence))
        for plan in assignment
    )


class TestParallelSearch:
    def test_parallel_snapshot_speedup(self, bench_scale, perf_results):
        """Serial vs 4-worker pool on dense multi-cluster snapshot replans."""
        from repro.assignment.executor import shutdown_shared_pools
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.travel import EuclideanTravelModel

        max_workers = 4
        cores = available_cores()
        gate = cores >= max_workers
        repeats = 3 if bench_scale.name == "quick" else 6
        section = {}
        rows = []
        for name, clusters, workers_per, tasks_per, density in PARALLEL_SCALES:
            workers, tasks = make_clustered_snapshot(
                clusters, workers_per, tasks_per, density
            )

            def plan_once(executor, n_workers):
                planner = TaskPlanner(
                    PlannerConfig(
                        executor=executor,
                        max_workers=n_workers,
                        incremental_replan=False,
                    ),
                    travel=EuclideanTravelModel(1.0),
                )
                start = time.perf_counter()
                outcome = planner.plan(workers, tasks, 0.0)
                return outcome, time.perf_counter() - start

            # Warm the shared pool outside the timed region: the fork cost
            # is paid once per process in production too.
            plan_once("parallel", max_workers)

            stats = {}
            outcomes = {}
            for backend in ("serial", "parallel"):
                samples = []
                for _ in range(repeats):
                    outcome, elapsed = plan_once(
                        backend, max_workers if backend == "parallel" else 0
                    )
                    samples.append(elapsed)
                stats[backend] = float(np.mean(samples) * 1000.0)
                outcomes[backend] = outcome

            # Backend equivalence holds on every host, gated or not.
            assert canonical(outcomes["parallel"].assignment) == canonical(
                outcomes["serial"].assignment
            )
            assert (
                outcomes["parallel"].nodes_expanded
                == outcomes["serial"].nodes_expanded
            )
            assert outcomes["parallel"].parallel_components > 0

            speedup = stats["serial"] / max(stats["parallel"], 1e-9)
            section[name] = {
                "clusters": clusters,
                "workers": clusters * workers_per,
                "tasks": clusters * tasks_per,
                "cores": cores,
                "max_workers": max_workers,
                "serial_mean_ms": round(stats["serial"], 3),
                "parallel_mean_ms": round(stats["parallel"], 3),
                "parallel_components": outcomes["parallel"].parallel_components,
                "speedup": round(speedup, 2),
                "gate": gate,
            }
            rows.append(
                {
                    "scale": f"{name} ({clusters * workers_per}w/{clusters * tasks_per}t)",
                    "serial_ms": f"{stats['serial']:.1f}",
                    "parallel_ms": f"{stats['parallel']:.1f}",
                    "speedup": f"{speedup:.2f}x",
                    "cores": cores,
                    "gated": "yes" if gate else "no (needs >=4 cores)",
                }
            )
            if gate:
                assert speedup >= SPEEDUP_FLOOR, (
                    f"{name}: {speedup:.2f}x < {SPEEDUP_FLOOR}x at "
                    f"{max_workers} workers on {cores} cores"
                )
        perf_results["parallel_search"] = section
        shutdown_shared_pools()
        print_figure(
            f"Parallel component search — serial vs {max_workers}-worker pool",
            rows,
            ["scale", "serial_ms", "parallel_ms", "speedup", "cores", "gated"],
        )
