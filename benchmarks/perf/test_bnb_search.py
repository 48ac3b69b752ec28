"""Branch-and-bound search microbenchmarks: dense dirty components.

PR 2's incremental engine made replanning cheap everywhere *except* inside
a dirty dense component, where the plain exact DFSearch saturates its node
budget.  This module measures the branch-and-bound engine against the
plain search on exactly that hot path and writes a ``bnb_search`` section
into ``BENCH_planning.json`` (merged, so the sections owned by the other
perf modules survive):

* **component search** — one-shot full-pipeline plans over
  density-controlled snapshots whose workers collapse into a few dense
  dependency components.  The plain search burns its full budget and
  degrades; branch-and-bound proves optimality after a fraction of the
  expansions.  Recorded per scale: nodes expanded, latency, planned
  tasks, and the nodes/latency ratios.
* **dirty component stream** — the PR 2 workload shape: an incremental
  planner replaying single events that keep dirtying a dense component,
  so every epoch pays one in-component search.  Same stream, same
  events, ``search_mode="exact"`` vs ``"bnb"``.

The same-run ratios (nodes and latency) are machine-invariant and
regression-gated by ``benchmarks/perf/check_regression.py``.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from conftest import print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: (name, workers, tasks, density) — denser than the incremental-replan
#: stream scales so the dependency graph forms large shared-task
#: components (the regime where the plain search saturates its budget).
DENSE_SCALES = [
    ("dense_small", 12, 70, 14.0),
    ("dense_medium", 20, 120, 16.0),
]


def make_dense_snapshot(num_workers, num_tasks, density, seed=7, reach=1.0):
    """Density-controlled snapshot forming large dependency components."""
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    area = math.sqrt(num_tasks * math.pi * reach * reach / density)
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


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


class TestComponentSearch:
    def test_dense_component_search(self, bench_scale, perf_results):
        """One-shot plans on dense snapshots: plain exact vs branch-and-bound."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.travel import EuclideanTravelModel

        repeats = 2 if bench_scale.name == "quick" else 4
        section = {}
        rows = []
        for name, num_workers, num_tasks, density in DENSE_SCALES:
            workers, tasks, _, _ = make_dense_snapshot(num_workers, num_tasks, density)
            stats = {}
            for mode in ("exact", "bnb"):
                samples = []
                outcome = None
                for _ in range(repeats):
                    planner = TaskPlanner(
                        PlannerConfig(search_mode=mode, incremental_replan=False),
                        travel=EuclideanTravelModel(1.0),
                    )
                    start = time.perf_counter()
                    outcome = planner.plan(workers, tasks, 0.0)
                    samples.append(time.perf_counter() - start)
                mean_ms, _ = _latency_stats(samples)
                stats[mode] = (outcome, mean_ms)
            exact_outcome, exact_ms = stats["exact"]
            bnb_outcome, bnb_ms = stats["bnb"]
            nodes_ratio = exact_outcome.nodes_expanded / max(bnb_outcome.nodes_expanded, 1)
            speedup = exact_ms / max(bnb_ms, 1e-9)
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "density": density,
                "exact_nodes": exact_outcome.nodes_expanded,
                "bnb_nodes": bnb_outcome.nodes_expanded,
                "exact_planned": exact_outcome.planned_tasks,
                "bnb_planned": bnb_outcome.planned_tasks,
                "exact_mean_ms": round(exact_ms, 3),
                "bnb_mean_ms": round(bnb_ms, 3),
                "nodes_ratio": round(nodes_ratio, 2),
                "speedup": round(speedup, 2),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "exact_nodes": exact_outcome.nodes_expanded,
                    "bnb_nodes": bnb_outcome.nodes_expanded,
                    "exact_ms": f"{exact_ms:.1f}",
                    "bnb_ms": f"{bnb_ms:.1f}",
                    "nodes_ratio": f"{nodes_ratio:.1f}x",
                    "speedup": f"{speedup:.2f}x",
                }
            )
            # The acceptance bar: >=2x fewer expansions on dense components
            # (the committed numbers are far above it), and an answer at
            # least as good — the plain search truncates here, B&B proves
            # optimality, so it must never plan fewer tasks.
            assert nodes_ratio >= 2.0
            assert bnb_outcome.planned_tasks >= exact_outcome.planned_tasks
        perf_results.setdefault("bnb_search", {})["component_search"] = section
        print_figure(
            "Dense-component exact search — plain DFSearch vs branch-and-bound",
            rows,
            ["scale", "exact_nodes", "bnb_nodes", "exact_ms", "bnb_ms", "nodes_ratio", "speedup"],
        )


class TestDirtyComponentStream:
    def test_dirty_dense_component_stream(self, bench_scale, perf_results):
        """Incremental replans that keep re-searching one dense component."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.core.task import Task
        from repro.spatial.geometry import Point
        from repro.spatial.travel import EuclideanTravelModel

        num_events = 6 if bench_scale.name == "quick" else 12
        name, num_workers, num_tasks, density = DENSE_SCALES[0]
        section = {}
        rows = []
        stats = {}
        for mode in ("exact", "bnb"):
            workers, tasks, area, rng = make_dense_snapshot(
                num_workers, num_tasks, density
            )
            planner = TaskPlanner(
                PlannerConfig(search_mode=mode, incremental_replan=True),
                travel=EuclideanTravelModel(1.0),
            )
            planner.plan(workers, tasks, 0.0)  # warm caches
            now = 0.0
            next_id = 50_000
            samples = []
            nodes = []
            planned = 0
            for event in range(num_events):
                now += 0.2
                if event % 3 == 2 and tasks:
                    # Dispatch inside the dense cluster: the component is
                    # dirtied and re-searched.
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
                start = time.perf_counter()
                outcome = planner.plan(workers, tasks, now)
                samples.append(time.perf_counter() - start)
                nodes.append(outcome.nodes_expanded)
                planned += outcome.planned_tasks
            mean_ms, p95_ms = _latency_stats(samples)
            stats[mode] = {
                "mean_ms": mean_ms,
                "p95_ms": p95_ms,
                "mean_nodes": sum(nodes) / len(nodes),
                "planned": planned,
            }
        nodes_ratio = stats["exact"]["mean_nodes"] / max(stats["bnb"]["mean_nodes"], 1)
        speedup = stats["exact"]["mean_ms"] / max(stats["bnb"]["mean_ms"], 1e-9)
        section[name] = {
            "workers": num_workers,
            "tasks": num_tasks,
            "events": num_events,
            "exact_mean_replan_ms": round(stats["exact"]["mean_ms"], 3),
            "bnb_mean_replan_ms": round(stats["bnb"]["mean_ms"], 3),
            "exact_mean_nodes": round(stats["exact"]["mean_nodes"], 1),
            "bnb_mean_nodes": round(stats["bnb"]["mean_nodes"], 1),
            "exact_planned": stats["exact"]["planned"],
            "bnb_planned": stats["bnb"]["planned"],
            "nodes_ratio": round(nodes_ratio, 2),
            "speedup": round(speedup, 2),
        }
        rows.append(
            {
                "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                "exact_ms": f"{stats['exact']['mean_ms']:.1f}",
                "bnb_ms": f"{stats['bnb']['mean_ms']:.1f}",
                "exact_nodes": f"{stats['exact']['mean_nodes']:.0f}",
                "bnb_nodes": f"{stats['bnb']['mean_nodes']:.0f}",
                "nodes_ratio": f"{nodes_ratio:.1f}x",
                "speedup": f"{speedup:.2f}x",
            }
        )
        perf_results.setdefault("bnb_search", {})["dirty_component_stream"] = section
        print_figure(
            "Dirty dense-component replan stream — exact vs branch-and-bound",
            rows,
            ["scale", "exact_ms", "bnb_ms", "exact_nodes", "bnb_nodes", "nodes_ratio", "speedup"],
        )
        # Sanity floors well under the committed ratios (absorbing machine
        # noise); check_regression.py gates the committed numbers.
        assert nodes_ratio >= 2.0
        assert speedup >= 1.2
        assert stats["bnb"]["planned"] >= stats["exact"]["planned"]
