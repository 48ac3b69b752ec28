"""Planning-stack equivalence and end-to-end runs over road-network travel.

The road network is the first travel model whose times are asymmetric and
whose point-to-point costs are non-metric, so these tests are the ones
that probe the PR 1–3 engines (vectorized matrices, dirty-region replans,
B&B search) outside the Euclidean regime:

* scalar / matrix reachability must stay bit-for-bit interchangeable (the
  kernels share float operation sequences), and the planner must match
  the scalar oracle;
* a warm engine must replay the empty-cache pipeline exactly on an
  evolving snapshot stream — the acceptance criterion for the dirty-ball
  generalisation via ``reach_bound``;
* a complete :class:`SCPlatform` replay over a road-network workload must
  be invariant to the incremental toggle, and must actually assign work.
"""

import random

import pytest

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import (
    reachable_tasks,
    reachable_tasks_matrix,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.task import Task
from repro.core.worker import Worker
from repro.roadnet import RoadNetworkTravelModel, grid_network, roadnet_workload
from repro.spatial.geometry import Point
from repro.spatial.travel_matrix import TravelMatrix

from reference_pipeline import assert_planner_matches_oracle, cold_strategy


@pytest.fixture(scope="module")
def road_model():
    network = grid_network(
        8, 8, spacing=1.0, speed=1.0, seed=5, speed_jitter=0.35, one_way_fraction=0.1
    )
    return RoadNetworkTravelModel(network, speed=1.0)


def random_instance(rng, max_workers=10, max_tasks=35):
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, 7), rng.uniform(0, 7)),
            rng.uniform(1.0, 3.0),
            0.0,
            rng.uniform(10, 60),
        )
        for i in range(rng.randint(2, max_workers))
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 7), rng.uniform(0, 7)), 0.0, rng.uniform(3, 40))
        for j in range(rng.randint(4, max_tasks))
    ]
    return workers, tasks


def _outcome_signature(outcome):
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
    )


class TestRoadnetReachabilityEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_scalar_matrix_match(self, seed, road_model):
        rng = random.Random(1200 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        matrix = TravelMatrix(workers, tasks, road_model)
        for worker in workers:
            for max_tasks in (None, 5):
                scalar = reachable_tasks(
                    worker, tasks, now, road_model, max_tasks=max_tasks
                )
                vector = reachable_tasks_matrix(
                    worker, tasks, now, matrix, max_tasks=max_tasks
                )
                assert [t.task_id for t in scalar] == [t.task_id for t in vector]

    @pytest.mark.parametrize("seed", range(4))
    def test_sequences_scalar_matrix_match(self, seed, road_model, monkeypatch):
        import repro.assignment.sequences as seq_mod

        monkeypatch.setattr(seq_mod, "_MATRIX_MIN_TASKS", 0)
        rng = random.Random(1300 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 1.5)
        matrix = TravelMatrix(workers, tasks, road_model)
        for worker in workers:
            reachable = reachable_tasks(worker, tasks, now, road_model, max_tasks=8)
            scalar = maximal_valid_sequences(
                worker, reachable, now, road_model, max_length=3, max_sequences=16
            )
            vector = maximal_valid_sequences(
                worker, reachable, now, road_model,
                max_length=3, max_sequences=16, matrix=matrix,
            )
            assert [s.task_ids for s in scalar] == [s.task_ids for s in vector]


class TestRoadnetPlannerEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed, road_model):
        rng = random.Random(1400 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 1.0)
        planner = TaskPlanner(PlannerConfig(travel_model=road_model))
        assert_planner_matches_oracle(planner, workers, tasks, now)

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_matches_full_on_replay_stream(self, seed, road_model):
        """Acceptance criterion: incremental-vs-full equivalence under the
        road-network backend on an evolving replay stream (arrivals,
        removals, worker moves, advancing time)."""
        rng = random.Random(1500 + seed)
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                rng.uniform(1.0, 3.0),
                0.0,
                rng.uniform(10, 60),
            )
            for i in range(rng.randint(3, 9))
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                0.0,
                rng.uniform(3, 40),
            )
            for j in range(rng.randint(6, 30))
        }
        incremental = TaskPlanner(PlannerConfig(travel_model=road_model))
        full = TaskPlanner(PlannerConfig(travel_model=road_model))
        now = 0.0
        next_tid = 1000
        for _ in range(20):
            snapshot_workers = [w for _, w in sorted(workers.items())]
            snapshot_tasks = [t for _, t in sorted(tasks.items())]
            a = incremental.plan(snapshot_workers, snapshot_tasks, now)
            full.reset_cache()
            b = full.plan(snapshot_workers, snapshot_tasks, now)
            assert _outcome_signature(a) == _outcome_signature(b)
            event = rng.random()
            if event < 0.3 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.6:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                    now,
                    now + rng.uniform(3, 40),
                )
                next_tid += 1
            elif workers:
                wid = rng.choice(sorted(workers))
                workers[wid] = workers[wid].moved_to(
                    Point(rng.uniform(0, 7), rng.uniform(0, 7))
                )
            now += rng.uniform(0.0, 1.0)


class TestRoadnetPlatform:
    def test_platform_replay_invariant_to_incremental_toggle(self):
        from repro.assignment.strategies import make_strategy
        from repro.datasets.synthetic import WorkloadConfig
        from repro.simulation.platform import PlatformConfig, SCPlatform

        network = grid_network(
            10, 10, spacing=0.4, speed=0.012, seed=7, speed_jitter=0.3
        )
        workload = roadnet_workload(
            network,
            config=WorkloadConfig(
                name="roadnet-test",
                num_workers=12,
                num_tasks=90,
                horizon=1800.0,
                history_horizon=0.0,
                task_valid_time=120.0,
                reachable_distance=1.5,
                seed=13,
            ),
            num_hotspots=3,
        )
        results = []
        for cold in (True, False):
            strategy = make_strategy(
                "dta", config=PlannerConfig(travel_model=workload.instance.travel)
            )
            if cold:
                cold_strategy(strategy)
            platform = SCPlatform(
                workload.instance,
                strategy,
                PlatformConfig(replan_interval=0.0),
            )
            metrics = platform.run()
            results.append(
                (
                    metrics.assigned_tasks,
                    metrics.dispatched_tasks,
                    metrics.expired_tasks,
                    metrics.replans,
                    dict(metrics.assigned_per_worker),
                )
            )
        assert results[0] == results[1]
        assert results[0][0] > 0  # the network actually carries work
