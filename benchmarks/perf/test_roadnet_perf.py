"""Road-network planning microbenchmarks.

Three measurements, written into the ``roadnet_planning`` section of
``BENCH_planning.json`` (merged, so the sections owned by the other perf
modules survive):

* **snapshot** — one-shot full-replan latency of the identical snapshot
  under the Euclidean default vs the road-network backend.  The
  ``efficiency`` ratio (euclid mean / roadnet mean) is a same-run,
  machine-invariant measure of what the network backend costs on top of
  the straight-line kernel; regression-gated so the road path cannot
  quietly decay.
* **incremental_stream** — the single-event replan stream of
  ``test_incremental_replan.py`` run under the road-network model: full
  pipeline vs dirty-region engine, assignments asserted bit-identical per
  event, speedup regression-gated.  This is the proof that the PR 2
  engine survives asymmetric non-metric travel.
* **dijkstra_cache** — the multi-source Dijkstra row cache: the identical
  ``pairwise`` block computed cold (empty caches) and warm (rows cached).
  Gated on what is machine-invariant, exactly and in-test: the cold call
  computes one row per distinct snapped source (``unique_rows``), the
  warm call computes none and returns bit-identical matrices.  A
  cold ÷ warm wall-clock ratio is deliberately not gated: it falls
  whenever the cold path gets faster.
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

#: (name, workers, tasks) — matches the stream scales of the other modules.
SCALES = [
    ("small", 25, 150),
    ("medium", 100, 800),
]

DENSITY = 8.0


def _grid_for_area(area: float, speed: float = 1.0, seed: int = 3):
    """A street grid covering a density-controlled square snapshot."""
    from repro.roadnet import grid_network

    cells = max(int(math.ceil(area)) + 1, 2)
    return grid_network(
        cells, cells, spacing=1.0, speed=speed, seed=seed,
        speed_jitter=0.3, one_way_fraction=0.1,
    )


def make_snapshot(num_workers, num_tasks, seed=7, reach=1.0):
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    area = math.sqrt(num_tasks * math.pi * reach * reach / DENSITY)
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


def _mean_ms(samples):
    return float(np.asarray(samples, dtype=np.float64).mean() * 1000.0)


class TestRoadnetSnapshotCost:
    def test_snapshot_euclid_vs_roadnet(self, perf_results):
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.roadnet import RoadNetworkTravelModel
        from repro.spatial.travel import EuclideanTravelModel

        repeats = 3
        section = {}
        rows = []
        for name, num_workers, num_tasks in SCALES:
            workers, tasks, area, _ = make_snapshot(num_workers, num_tasks)
            euclid = EuclideanTravelModel(1.0)
            road = RoadNetworkTravelModel(_grid_for_area(area), speed=1.0)
            stats = {}
            for label, model in (("euclid", euclid), ("roadnet", road)):
                planner = TaskPlanner(PlannerConfig(travel_model=model))
                planner.plan(workers, tasks, 0.0)  # warm the travel caches once
                samples = []
                planned = 0
                for _ in range(repeats):
                    start = time.perf_counter()
                    planner.reset_cache()  # a full replan, not a replay
                    outcome = planner.plan(workers, tasks, 0.0)
                    samples.append(time.perf_counter() - start)
                    planned = outcome.planned_tasks
                stats[label] = (_mean_ms(samples), planned)
            efficiency = stats["euclid"][0] / max(stats["roadnet"][0], 1e-9)
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "euclid_mean_ms": round(stats["euclid"][0], 3),
                "roadnet_mean_ms": round(stats["roadnet"][0], 3),
                "euclid_planned": stats["euclid"][1],
                "roadnet_planned": stats["roadnet"][1],
                "efficiency": round(efficiency, 3),
            }
            rows.append(
                {
                    "scale": f"{name} ({num_workers}w/{num_tasks}t)",
                    "euclid_ms": f"{stats['euclid'][0]:.1f}",
                    "roadnet_ms": f"{stats['roadnet'][0]:.1f}",
                    "efficiency": f"{efficiency:.2f}x",
                }
            )
        perf_results.setdefault("roadnet_planning", {})["snapshot"] = section
        print_figure(
            "Full-replan snapshot latency — Euclidean vs road-network backend",
            rows,
            ["scale", "euclid_ms", "roadnet_ms", "efficiency"],
        )
        # The warm road-network replan must stay within an order of
        # magnitude of the Euclidean kernel (the row/snap caches are what
        # make this hold; a cold-cache bug would blow far past this).
        assert section["medium"]["efficiency"] >= 0.05


class TestRoadnetIncrementalStream:
    def test_single_event_stream_roadnet(self, bench_scale, perf_results):
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.core.task import Task
        from repro.roadnet import RoadNetworkTravelModel
        from repro.spatial.geometry import Point

        num_events = 8 if bench_scale.name == "quick" else 16
        section = {}
        rows = []
        for name, num_workers, num_tasks in SCALES:
            workers, tasks, area, rng = make_snapshot(num_workers, num_tasks)
            model = RoadNetworkTravelModel(_grid_for_area(area), speed=1.0)
            full = TaskPlanner(PlannerConfig(travel_model=model))
            incremental = TaskPlanner(PlannerConfig(travel_model=model))
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
                inc_outcome = incremental.plan(workers, tasks, now)
                incremental_samples.append(time.perf_counter() - start)
                start = time.perf_counter()
                full.reset_cache()
                full_outcome = full.plan(workers, tasks, now)
                full_samples.append(time.perf_counter() - start)
                # The speedup only counts on provably equivalent work.
                assert _plan_signature(inc_outcome) == _plan_signature(full_outcome)
                assert inc_outcome.nodes_expanded == full_outcome.nodes_expanded
                reused += inc_outcome.reused_workers
                recomputed += inc_outcome.recomputed_workers

            full_mean = _mean_ms(full_samples)
            inc_mean = _mean_ms(incremental_samples)
            speedup = full_mean / max(inc_mean, 1e-9)
            reuse_fraction = reused / max(reused + recomputed, 1)
            section[name] = {
                "workers": num_workers,
                "tasks": num_tasks,
                "events": num_events,
                "full_mean_ms": round(full_mean, 3),
                "incremental_mean_ms": round(inc_mean, 3),
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
        perf_results.setdefault("roadnet_planning", {})["incremental_stream"] = section
        print_figure(
            "Road-network single-event replan — full pipeline vs incremental engine",
            rows,
            ["scale", "full_mean_ms", "incr_mean_ms", "worker_reuse", "speedup"],
        )
        # Floors well below the committed ratios (machine-noise headroom);
        # check_regression.py gates the committed numbers.
        assert section["medium"]["speedup"] >= 1.5
        assert section["small"]["speedup"] >= 1.0


class TestDijkstraRowCache:
    #: Distinct snapped source nodes of the 120 seeded points below.
    UNIQUE_ROWS = 110

    def test_pairwise_block_served_from_row_cache(self, perf_results):
        from repro.roadnet import RoadNetworkTravelModel, grid_network
        from repro.spatial.geometry import Point

        network = grid_network(24, 24, spacing=1.0, speed=1.0, seed=5, speed_jitter=0.3)
        model = RoadNetworkTravelModel(network, speed=1.0)
        rng = random.Random(11)
        points = [
            Point(rng.uniform(0, 23), rng.uniform(0, 23)) for _ in range(120)
        ]

        cold_dist, cold_time = model.pairwise(points, points)
        misses = model.row_cache_misses
        warm_dist, warm_time = model.pairwise(points, points)

        assert misses == self.UNIQUE_ROWS
        assert model.row_cache_misses == misses  # fully served from cache
        # Cache hits must be bit-identical to cold computation.
        assert np.array_equal(cold_dist, warm_dist)
        assert np.array_equal(cold_time, warm_time)

        perf_results.setdefault("roadnet_planning", {})["dijkstra_cache"] = {
            "grid24": {
                "nodes": network.num_nodes,
                "points": len(points),
                "unique_rows": misses,
            }
        }
