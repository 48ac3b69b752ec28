"""Branch-and-bound search microbenchmarks: dense dirty components.

The incremental engine makes replanning cheap everywhere *except* inside a
dirty dense component, where every epoch pays one in-component search.
This module measures the branch-and-bound engine on exactly that hot path
and writes a ``bnb_search`` section into ``BENCH_planning.json`` (merged,
so the sections owned by the other perf modules survive):

* **component search** — one-shot full-pipeline plans over
  density-controlled snapshots whose workers collapse into a few dense
  dependency components.  Recorded per scale: nodes expanded, latency and
  planned tasks, beside the tasks the plain DFSearch oracle
  (``tests/assignment/reference_search.py``) plans under the same
  per-component budget.  The oracle burns its budget and degrades there;
  branch-and-bound proves optimality, so it must never plan fewer tasks.
* **dirty component stream** — an incremental planner replaying single
  events that keep dirtying a dense component.  Recorded: mean nodes,
  mean replan latency and planned tasks.

The node counts are integer search statistics over identical inputs,
reproduced exactly on every host; ``benchmarks/perf/check_regression.py``
gates them as ceilings.  Latencies are reported, never gated.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_figure

# The plain DFSearch oracle lives with the other oracles under tests/.
_ORACLES = str(Path(__file__).resolve().parents[2] / "tests" / "assignment")
if _ORACLES not in sys.path:
    sys.path.insert(0, _ORACLES)

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


def oracle_planned(workers, tasks, config, travel):
    """Tasks the plain DFSearch oracle plans on a ``now = 0`` snapshot:
    the planner's stages up to the partition tree, then the oracle on
    every tree under the planner's per-component budget."""
    from reference_search import dfsearch

    from repro.assignment.dfsearch import adaptive_node_budget
    from repro.assignment.fast_partition import build_adjacency, build_partition_tree_fast
    from repro.assignment.reachability import reachable_tasks
    from repro.assignment.sequences import maximal_valid_sequences

    reachable = {
        w.worker_id: reachable_tasks(w, tasks, 0.0, travel, max_tasks=config.max_reachable)
        for w in workers
    }
    sequences = {
        w.worker_id: maximal_valid_sequences(
            w,
            reachable[w.worker_id],
            0.0,
            travel,
            max_length=config.max_sequence_length,
            max_sequences=config.max_sequences,
        )
        for w in workers
    }
    workers_by_id = {w.worker_id: w for w in workers}
    planned = 0
    for root in build_partition_tree_fast(build_adjacency(reachable)).roots:
        ids = root.all_workers()
        budget = adaptive_node_budget(
            config.node_budget, len(ids), sum(len(sequences[wid]) for wid in ids)
        )
        planned += dfsearch(root, tasks, sequences, workers_by_id, node_budget=budget).opt
    return planned


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


class TestComponentSearch:
    def test_dense_component_search(self, bench_scale, perf_results):
        """One-shot plans on dense snapshots, held to the plain oracle."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.travel import EuclideanTravelModel

        repeats = 2 if bench_scale.name == "quick" else 4
        section = {}
        rows = []
        for name, num_workers, num_tasks, density in DENSE_SCALES:
            workers, tasks, _, _ = make_dense_snapshot(num_workers, num_tasks, density)
            config = PlannerConfig()
            samples = []
            outcome = None
            for _ in range(repeats):
                planner = TaskPlanner(config, travel=EuclideanTravelModel(1.0))
                start = time.perf_counter()
                outcome = planner.plan(workers, tasks, 0.0)
                samples.append(time.perf_counter() - start)
            mean_ms, _ = _latency_stats(samples)
            oracle = oracle_planned(workers, tasks, config, EuclideanTravelModel(1.0))
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "density": density,
                "bnb_nodes": outcome.nodes_expanded,
                "bnb_planned": outcome.planned_tasks,
                "oracle_planned": oracle,
                "bnb_mean_ms": round(mean_ms, 3),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "bnb_nodes": outcome.nodes_expanded,
                    "bnb_planned": outcome.planned_tasks,
                    "oracle_planned": oracle,
                    "bnb_ms": f"{mean_ms:.1f}",
                }
            )
            # The plain search truncates here and B&B proves optimality,
            # so B&B must never plan fewer tasks.
            assert outcome.planned_tasks >= oracle
        perf_results.setdefault("bnb_search", {})["component_search"] = section
        print_figure(
            "Dense-component exact search — branch-and-bound vs the plain DFSearch oracle",
            rows,
            ["scale", "bnb_nodes", "bnb_planned", "oracle_planned", "bnb_ms"],
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
        workers, tasks, area, rng = make_dense_snapshot(num_workers, num_tasks, density)
        planner = TaskPlanner(PlannerConfig(), travel=EuclideanTravelModel(1.0))
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
        mean_ms, _ = _latency_stats(samples)
        mean_nodes = sum(nodes) / len(nodes)
        perf_results.setdefault("bnb_search", {})["dirty_component_stream"] = {
            name: {
                "workers": num_workers,
                "tasks": num_tasks,
                "events": num_events,
                "bnb_mean_replan_ms": round(mean_ms, 3),
                "bnb_mean_nodes": round(mean_nodes, 1),
                "bnb_planned": planned,
            }
        }
        print_figure(
            "Dirty dense-component replan stream — branch-and-bound",
            [
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "bnb_ms": f"{mean_ms:.1f}",
                    "bnb_nodes": f"{mean_nodes:.0f}",
                    "bnb_planned": planned,
                }
            ],
            ["scale", "bnb_ms", "bnb_nodes", "bnb_planned"],
        )
        assert planned > 0
