"""Property-based equivalence: the plan pipeline vs its scalar oracle.

The vectorized kernels (travel matrices, batched TVF featurization) must be
a pure optimisation: on any instance the planner has to return bit-for-bit
the same reachable sets, sequences and feature vectors — and the same
optimum — as the scalar oracle in
``reference_pipeline.py``; and a warm engine has to replay, call for call,
what the same pipeline returns on an empty cache.  These tests assert that
on randomised instances — through ``hypothesis`` where it is installed,
and through a seeded-random sweep otherwise.
"""

import random

import numpy as np
import pytest

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import (
    is_reachable,
    reachable_tasks,
    reachable_tasks_matrix,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.tvf import (
    StateFeatureCache,
    TaskValueFunction,
    featurize_actions_batch,
    featurize_state,
)
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel
from repro.spatial.travel_matrix import TravelMatrix

from reference_partition import (
    adjacency_of,
    build_worker_dependency_graph,
    sibling_independence_violations,
)
from reference_pipeline import (
    assert_outcome_matches_oracle,
    assert_planner_matches_oracle,
    cold_strategy,
)
from reference_tvf import featurize_state_action, scalar_value

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

TRAVEL = EuclideanTravelModel(speed=1.0)


def random_instance(rng, max_workers=10, max_tasks=40):
    num_workers = rng.randint(1, max_workers)
    num_tasks = rng.randint(1, max_tasks)
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            rng.uniform(0.5, 3.0),
            0.0,
            rng.uniform(5, 50),
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, rng.uniform(1, 40))
        for j in range(num_tasks)
    ]
    return workers, tasks


class TestReachabilityEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_matches_scalar(self, seed):
        rng = random.Random(seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 3.0)
        matrix = TravelMatrix(workers, tasks, TRAVEL)
        for worker in workers:
            for max_tasks in (None, 5):
                scalar = reachable_tasks(worker, tasks, now, TRAVEL, max_tasks=max_tasks)
                vector = reachable_tasks_matrix(worker, tasks, now, matrix, max_tasks=max_tasks)
                assert [t.task_id for t in scalar] == [t.task_id for t in vector]

    def test_transitive_expansion_matches(self):
        # s2 is out of direct reach but within one hop of s1; s3 needs two.
        worker = Worker(1, Point(0, 0), 1.0, 0.0, 100.0)
        tasks = [
            Task(1, Point(0.8, 0.0), 0.0, 100.0),
            Task(2, Point(1.7, 0.0), 0.0, 100.0),
            Task(3, Point(2.6, 0.0), 0.0, 100.0),
        ]
        matrix = TravelMatrix([worker], tasks, TRAVEL)
        for hops in (0, 1, 2):
            scalar = reachable_tasks(worker, tasks, 0.0, TRAVEL, hops=hops)
            vector = reachable_tasks_matrix(worker, tasks, 0.0, matrix, hops=hops)
            assert [t.task_id for t in scalar] == [t.task_id for t in vector]
        assert [t.task_id for t in reachable_tasks(worker, tasks, 0.0, TRAVEL, hops=1)] == [1, 2]
        assert [t.task_id for t in reachable_tasks(worker, tasks, 0.0, TRAVEL, hops=2)] == [1, 2, 3]

    def test_boundary_exact_expiry_unreachable_and_unorderable(self):
        # Arrival would coincide exactly with the expiration: Definition 4's
        # strict check rejects the sequence, so reachability must too.
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        boundary = Task(1, Point(2.0, 0.0), 0.0, 2.0)
        assert not is_reachable(worker, boundary, 0.0, TRAVEL)
        assert maximal_valid_sequences(worker, [boundary], 0.0, TRAVEL) == []

    def test_boundary_exact_offtime_unreachable(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 2.0)
        boundary = Task(1, Point(2.0, 0.0), 0.0, 100.0)
        assert not is_reachable(worker, boundary, 0.0, TRAVEL)


class TestSequenceEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_legs_match_scalar(self, seed, monkeypatch):
        import repro.assignment.sequences as seq_mod

        # Force the matrix leg source even for tiny reachable sets so the
        # equivalence is exercised regardless of the adaptive threshold.
        monkeypatch.setattr(seq_mod, "_MATRIX_MIN_TASKS", 0)
        rng = random.Random(1000 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        matrix = TravelMatrix(workers, tasks, TRAVEL)
        for worker in workers:
            reachable = reachable_tasks(worker, tasks, now, TRAVEL, max_tasks=10)
            scalar = maximal_valid_sequences(
                worker, reachable, now, TRAVEL, max_length=3, max_sequences=16
            )
            vector = maximal_valid_sequences(
                worker, reachable, now, TRAVEL, max_length=3, max_sequences=16, matrix=matrix
            )
            assert [s.task_ids for s in scalar] == [s.task_ids for s in vector]

    def test_completion_cached_rank_matches_recomputation(self):
        rng = random.Random(42)
        workers, tasks = random_instance(rng, max_workers=1, max_tasks=12)
        worker = workers[0]
        sequences = maximal_valid_sequences(worker, tasks, 0.0, TRAVEL, max_length=3)
        ranked = [
            (-len(s), s.completion_time(0.0, TRAVEL)) for s in sequences
        ]
        assert ranked == sorted(ranked)


class TestTVFEquivalence:
    def _random_state_actions(self, rng):
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 9), rng.uniform(0, 9)),
                rng.uniform(0.5, 2.0),
                0.0,
                rng.uniform(10, 90),
            )
            for i in range(6)
        }
        tasks = {
            j: Task(j, Point(rng.uniform(0, 9), rng.uniform(0, 9)), rng.random(), 1 + rng.random() * 50)
            for j in range(40)
        }
        remaining = rng.sample(sorted(tasks), rng.randint(0, 20))
        state = {
            "num_workers": rng.randint(0, 6),
            "num_tasks": rng.randint(0, 40),
            "task_ids": tuple(sorted(remaining)),
        }
        actions = []
        for _ in range(rng.randint(1, 10)):
            # Lengths up to 10 cover numpy's 8-way-unrolled np.mean regime,
            # where naive batch accumulation would diverge from the scalar
            # reference in the last ulp.
            seq = rng.sample(sorted(tasks), rng.randint(0, 10))
            actions.append(
                {
                    "worker_id": rng.choice(sorted(workers)),
                    "task_ids": tuple(seq),
                    "sequence_length": len(seq),
                }
            )
        return workers, tasks, state, actions

    @pytest.mark.parametrize("seed", range(20))
    def test_batch_features_bit_identical(self, seed):
        rng = random.Random(2000 + seed)
        workers, tasks, state, actions = self._random_state_actions(rng)
        batch = featurize_actions_batch(state, actions, workers, tasks)
        reference = np.stack(
            [featurize_state_action(state, a, workers, tasks) for a in actions]
        )
        assert np.array_equal(batch, reference)

    @pytest.mark.parametrize("seed", range(10))
    def test_state_cache_bit_identical(self, seed):
        rng = random.Random(3000 + seed)
        workers, tasks, state, _ = self._random_state_actions(rng)
        cache = StateFeatureCache(tasks)
        assert np.array_equal(cache.features(state), featurize_state(state, tasks))

    def test_values_match_scalar_value(self):
        # Features are bit-identical (asserted above); the forward pass may
        # differ at ulp level between batch sizes because BLAS picks
        # different kernels (gemv vs gemm), so compare with a tight bound.
        rng = random.Random(9)
        workers, tasks, state, actions = self._random_state_actions(rng)
        tvf = TaskValueFunction(seed=1)
        batched = tvf.values(state, actions, workers, tasks)
        scalar = np.array(
            [scalar_value(tvf, state, a, workers, tasks) for a in actions]
        )
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=1e-12)


class TestPlannerEquivalence:
    """The planner against the scalar oracle: same per-worker reachable
    sets and ``Q_w``, same components, a valid plan of the same size —
    whichever kernel (scalar loop, the epoch's travel matrix) it picked."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle(self, seed):
        rng = random.Random(4000 + seed)
        workers, tasks = random_instance(rng, max_workers=12, max_tasks=35)
        now = rng.uniform(0.0, 2.0)
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        assert_planner_matches_oracle(planner, workers, tasks, now)

    def test_forced_vector_thresholds_match_oracle(self, monkeypatch):
        # Drop every adaptive threshold to 0 so the matrix kernels are
        # taken even on tiny instances.
        import repro.assignment.reachability as reach_mod
        import repro.assignment.sequences as seq_mod

        monkeypatch.setattr(reach_mod, "VECTOR_MIN_TASKS", 0)
        monkeypatch.setattr(seq_mod, "_MATRIX_MIN_TASKS", 0)
        rng = random.Random(77)
        for _ in range(5):
            workers, tasks = random_instance(rng)
            now = rng.uniform(0.0, 2.0)
            planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
            assert_planner_matches_oracle(planner, workers, tasks, now)

    def test_predicted_fallback_matches_oracle(self):
        # Workers with no real task in reach plan over the predicted-
        # augmented snapshot; everyone else ignores predicted tasks.
        rng = random.Random(91)
        for _ in range(6):
            workers, tasks = random_instance(rng, max_workers=10, max_tasks=36)
            tasks = [
                Task(
                    t.task_id, t.location, t.publication_time, t.expiration_time,
                    predicted=rng.random() < 0.4,
                )
                for t in tasks
            ]
            planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
            assert_planner_matches_oracle(planner, workers, tasks, 0.0)

    def test_tvf_guided_stages_match_oracle(self):
        rng = random.Random(123)
        workers, tasks = random_instance(rng, max_workers=10, max_tasks=30)
        planner = TaskPlanner(
            PlannerConfig(use_tvf=True, tvf_min_workers=2), travel=TRAVEL
        )
        planner.train_tvf(workers, tasks, 0.0, epochs=2)
        assert_planner_matches_oracle(
            planner, workers, tasks, 0.0, expect_optimum=False
        )


class TestTravelModelAbstraction:
    """The pluggable travel-model plumbing must be invisible for the
    Euclidean backend: planning through ``PlannerConfig(travel_model=...)``
    is bit-for-bit the legacy ``travel=`` pipeline (the acceptance
    criterion of the travel-model subsystem)."""

    def test_config_travel_model_matches_legacy_argument(self):
        rng = random.Random(4500)
        via_config = TaskPlanner(PlannerConfig(travel_model=EuclideanTravelModel(speed=1.0)))
        legacy = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        now = 0.0
        for _ in range(6):
            workers, tasks = random_instance(rng, max_workers=10, max_tasks=30)
            a = via_config.plan(workers, tasks, now)
            b = legacy.plan(workers, tasks, now)
            assert _outcome_signature(a) == _outcome_signature(b)
            now += rng.uniform(0.0, 1.0)
            # Stream continuity only makes sense for stable entities, so
            # reset between random snapshots.
            via_config.reset_cache()
            legacy.reset_cache()

    def test_kernel_matches_scalar_primitives(self):
        rng = random.Random(4600)
        workers, tasks = random_instance(rng, max_workers=6, max_tasks=20)
        for model in (EuclideanTravelModel(speed=1.7),):
            dist, time = model.pairwise(workers, tasks)
            for i, worker in enumerate(workers):
                for j, task in enumerate(tasks):
                    assert dist[i, j] == model.distance(worker.location, task.location)
                    assert time[i, j] == model.time(worker.location, task.location)
            legs_d, legs_t = model.legs(tasks, tasks)
            for i, a in enumerate(tasks):
                for j, b in enumerate(tasks):
                    assert legs_d[i, j] == model.distance(a.location, b.location)
                    assert legs_t[i, j] == model.time(a.location, b.location)

    def test_reach_bound_identity_for_builtin_models(self):
        from repro.spatial.travel import ManhattanTravelModel

        for model in (EuclideanTravelModel(), ManhattanTravelModel()):
            for value in (0.0, 1.7, 123.456):
                assert model.reach_bound(value) == value


class TestFastPartition:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_reference(self, seed):
        import networkx as nx

        from repro.assignment.fast_partition import (
            build_adjacency,
            build_partition_tree_fast,
            connected_components,
        )

        rng = random.Random(6000 + seed)
        workers, tasks = random_instance(rng, max_workers=14, max_tasks=30)
        now = 0.0
        reachable_by_worker = {
            w.worker_id: reachable_tasks(w, tasks, now, TRAVEL, max_tasks=8)
            for w in workers
        }
        adjacency = build_adjacency(reachable_by_worker)
        graph = build_worker_dependency_graph(reachable_by_worker)

        # Same graph: nodes and edges agree with the networkx reference.
        assert adjacency == adjacency_of(graph)
        assert [sorted(c) for c in connected_components(adjacency)] == sorted(
            [sorted(c) for c in nx.connected_components(graph)], key=lambda c: c[0]
        )

        # The RTC tree has the paper's two properties: full single coverage
        # and sibling independence.
        tree = build_partition_tree_fast(adjacency)
        covered = tree.all_workers()
        assert len(covered) == len(set(covered))
        assert set(covered) == set(graph.nodes)
        assert sibling_independence_violations(tree, graph) == []


def _outcome_signature(outcome):
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
    )


def _stream_shape(rng, dense, workers, tasks, lifetime):
    """``(num_workers, num_tasks, task lifetime bounds, max movers)``.

    A test's own sizes keep most snapshots under ``VECTOR_MIN_TASKS`` (the
    scalar kernel).  ``dense`` streams hold more long-lived tasks than
    that while a step touches 1-3 workers, so the warm engine refreshes
    k < W workers against one k×T matrix — the case no benchmark workload
    reaches."""
    if dense:
        return rng.randint(6, 10), rng.randint(45, 60), (30.0, 80.0), 3
    return rng.randint(*workers), rng.randint(*tasks), lifetime, 1


def _assert_step(incremental, full, workers, tasks, now, expect_optimum=True):
    """One decision point: warm engine == empty-cache engine == oracle
    (whose exhaustive search gets a small budget here — a stream has
    hundreds of decision points, and the cold engine's optimum is held to
    the oracle's in ``TestPlannerEquivalence``).  ``full`` is emptied
    first, so it plans the point as a full replan."""
    warm = incremental.plan(workers, tasks, now)
    full.reset_cache()
    cold = full.plan(workers, tasks, now)
    assert _outcome_signature(warm) == _outcome_signature(cold)
    assert_outcome_matches_oracle(
        incremental, warm, workers, tasks, now, expect_optimum, node_budget=2_000
    )


class TestIncrementalEquivalence:
    """A warm engine must replay the empty-cache pipeline bit-for-bit.

    Each test drives a *stream* of planning calls over an evolving snapshot
    (single-event mutations, advancing time) and compares an incremental
    planner against one reset before every call — the same pipeline on an
    empty cache — and against the scalar oracle at every
    decision point: the equivalence contract of
    :mod:`repro.assignment.incremental`.
    """

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_snapshot_stream_matches_full_replan(self, seed, dense):
        rng = random.Random(7000 + seed)
        num_workers, num_tasks, lifetime, movers = _stream_shape(
            rng, dense, (2, 12), (5, 40), (1.0, 40.0)
        )
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                rng.uniform(0.5, 3.0),
                0.0,
                rng.uniform(5, 50),
            )
            for i in range(num_workers)
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                0.0,
                rng.uniform(*lifetime),
            )
            for j in range(num_tasks)
        }
        incremental = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        full = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        now = 0.0
        next_tid = 1000
        for _ in range(20):
            snapshot_workers = [w for _, w in sorted(workers.items())]
            snapshot_tasks = [t for _, t in sorted(tasks.items())]
            _assert_step(incremental, full, snapshot_workers, snapshot_tasks, now)
            event = rng.random()
            if event < 0.3 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.6:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    now,
                    now + rng.uniform(*lifetime),
                )
                next_tid += 1
            else:
                for _ in range(rng.randint(1, movers)):
                    wid = rng.choice(sorted(workers))
                    workers[wid] = workers[wid].moved_to(
                        Point(rng.uniform(0, 10), rng.uniform(0, 10))
                    )
            now += rng.uniform(0.0, 2.0)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_guided_predicted_churn_stream_matches(self, seed, dense):
        # TVF-guided search + predicted-task fallback + workers toggling in
        # and out of the snapshot (the FTA / busy-worker pattern), all at
        # once.
        boot_rng = random.Random(7)
        boot_workers = [
            Worker(i, Point(boot_rng.uniform(0, 10), boot_rng.uniform(0, 10)), 2.0, 0.0, 40.0)
            for i in range(8)
        ]
        boot_tasks = [
            Task(500 + j, Point(boot_rng.uniform(0, 10), boot_rng.uniform(0, 10)), 0.0, 30.0)
            for j in range(25)
        ]
        boot = TaskPlanner(PlannerConfig(use_tvf=True), travel=TRAVEL)
        boot.train_tvf(boot_workers, boot_tasks, 0.0, epochs=2)
        tvf = boot.tvf

        rng = random.Random(8000 + seed)
        num_workers, num_tasks, lifetime, movers = _stream_shape(
            rng, dense, (3, 10), (5, 30), (1.0, 40.0)
        )
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                rng.uniform(0.5, 3.0),
                0.0,
                rng.uniform(5, 50),
            )
            for i in range(num_workers)
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                0.0,
                rng.uniform(*lifetime),
            )
            for j in range(num_tasks)
        }
        predicted = {}
        incremental = TaskPlanner(
            PlannerConfig(use_tvf=True, tvf_min_workers=2),
            travel=TRAVEL,
            tvf=tvf,
        )
        full = TaskPlanner(
            PlannerConfig(use_tvf=True, tvf_min_workers=2),
            travel=TRAVEL,
            tvf=tvf,
        )
        now = 0.0
        next_tid = 1000
        benched = set()
        for _ in range(25):
            snapshot_workers = [
                w for wid, w in sorted(workers.items()) if wid not in benched
            ]
            snapshot_tasks = [t for _, t in sorted(tasks.items())] + [
                t for _, t in sorted(predicted.items())
            ]
            if snapshot_workers and snapshot_tasks:
                _assert_step(
                    incremental, full, snapshot_workers, snapshot_tasks, now,
                    expect_optimum=False,
                )
            event = rng.random()
            if event < 0.2 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.4:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    now,
                    now + rng.uniform(*lifetime),
                )
                next_tid += 1
            elif event < 0.55:
                for _ in range(rng.randint(1, movers)):
                    wid = rng.choice(sorted(workers))
                    workers[wid] = workers[wid].moved_to(
                        Point(rng.uniform(0, 10), rng.uniform(0, 10))
                    )
            elif event < 0.7:
                if predicted and rng.random() < 0.5:
                    del predicted[rng.choice(sorted(predicted))]
                else:
                    predicted[next_tid] = Task(
                        next_tid,
                        Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                        now,
                        now + rng.uniform(1, 40),
                        predicted=True,
                    )
                    next_tid += 1
            elif workers:
                wid = rng.choice(sorted(workers))
                benched.symmetric_difference_update({wid})
            now += rng.uniform(0.0, 1.5)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_timedep_stream_matches_full_across_boundaries(self, seed, dense):
        # Rush-hour profiles break the "static per ordered pair" assumption
        # between windows; horizon clamping must keep the engine bit-for-bit
        # equivalent through (and exactly on) every profile boundary.
        from repro.spatial.profiles import SpeedProfile
        from repro.spatial.timedep import TimeDependentTravelModel

        rng = random.Random(9100 + seed)
        profile = SpeedProfile(
            breakpoints=(0.0, 8.0, 16.0, 30.0),
            multipliers=(1.0, rng.uniform(0.3, 0.8), rng.uniform(1.0, 1.6), 0.9),
            period=40.0,
        )
        model = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), profile)
        num_workers, num_tasks, lifetime, movers = _stream_shape(
            rng, dense, (2, 10), (5, 35), (5.0, 45.0)
        )
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                rng.uniform(0.5, 3.0),
                0.0,
                rng.uniform(20, 60),
            )
            for i in range(num_workers)
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                0.0,
                rng.uniform(*lifetime),
            )
            for j in range(num_tasks)
        }
        incremental = TaskPlanner(
            PlannerConfig(travel_model=model)
        )
        full = TaskPlanner(PlannerConfig(travel_model=model))
        now = 0.0
        next_tid = 1000
        for _ in range(22):
            snapshot_workers = [w for _, w in sorted(workers.items())]
            snapshot_tasks = [t for _, t in sorted(tasks.items())]
            _assert_step(incremental, full, snapshot_workers, snapshot_tasks, now)
            event = rng.random()
            if event < 0.25 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.55:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    now,
                    now + rng.uniform(*lifetime),
                )
                next_tid += 1
            else:
                for _ in range(rng.randint(1, movers)):
                    wid = rng.choice(sorted(workers))
                    workers[wid] = workers[wid].moved_to(
                        Point(rng.uniform(0, 10), rng.uniform(0, 10))
                    )
            advance = rng.random()
            if advance < 0.2:
                now = profile.next_boundary(now)  # land exactly on a boundary
            elif advance < 0.4:
                now = profile.next_boundary(now) + rng.uniform(0.0, 1.0)
            else:
                now += rng.uniform(0.0, 2.0)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_roadnet_rushhour_stream_matches_full(self, seed, dense):
        # Per-edge-class congestion: the fastest paths themselves (and the
        # Dijkstra rows behind every travel cost) change per window.
        from repro.roadnet import (
            RoadNetworkTravelModel,
            classify_edges_by_speed,
            grid_network,
        )
        from repro.spatial.profiles import SpeedProfile

        rng = random.Random(9200 + seed)
        network = grid_network(
            8, 8, seed=seed, speed_jitter=0.35, one_way_fraction=0.1
        )
        profiles = (
            SpeedProfile(
                breakpoints=(0.0, 6.0, 14.0), multipliers=(1.0, 0.75, 1.0), period=30.0
            ),
            SpeedProfile(
                breakpoints=(0.0, 6.0, 14.0), multipliers=(1.0, 0.4, 1.1), period=30.0
            ),
        )
        model = RoadNetworkTravelModel(
            network,
            speed=1.0,
            edge_profiles=profiles,
            edge_class=classify_edges_by_speed(network, len(profiles)),
        )
        num_workers, num_tasks, lifetime, movers = _stream_shape(
            rng, dense, (2, 8), (5, 25), (5.0, 45.0)
        )
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                rng.uniform(1.0, 3.0),
                0.0,
                rng.uniform(20, 60),
            )
            for i in range(num_workers)
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                0.0,
                rng.uniform(*lifetime),
            )
            for j in range(num_tasks)
        }
        incremental = TaskPlanner(
            PlannerConfig(travel_model=model)
        )
        full = TaskPlanner(PlannerConfig(travel_model=model))
        now = 0.0
        next_tid = 1000
        for _ in range(16):
            snapshot_workers = [w for _, w in sorted(workers.items())]
            snapshot_tasks = [t for _, t in sorted(tasks.items())]
            _assert_step(incremental, full, snapshot_workers, snapshot_tasks, now)
            event = rng.random()
            if event < 0.25 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.55:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 7), rng.uniform(0, 7)),
                    now,
                    now + rng.uniform(*lifetime),
                )
                next_tid += 1
            else:
                for _ in range(rng.randint(1, movers)):
                    wid = rng.choice(sorted(workers))
                    workers[wid] = workers[wid].moved_to(
                        Point(rng.uniform(0, 7), rng.uniform(0, 7))
                    )
            if rng.random() < 0.25:
                now = model.next_profile_boundary(now)
            else:
                now += rng.uniform(0.0, 2.5)

    def test_timedep_platform_replay_invariant_to_incremental_toggle(self):
        # Full platform replay of the rush-hour workload: metrics identical
        # with and without the dirty-region engine.
        from repro.assignment.strategies import make_strategy
        from repro.datasets.synthetic import WorkloadConfig, rush_hour_workload
        from repro.simulation.platform import PlatformConfig, SCPlatform

        workload = rush_hour_workload(
            WorkloadConfig(
                num_workers=12,
                num_tasks=90,
                seed=11,
                task_valid_time=120.0,
                worker_speed=0.05,
            ),
            peak_multiplier=0.5,
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

    def test_incremental_reuses_untouched_workers(self):
        # Diagnostics sanity: on a pure time-advance epoch well inside every
        # horizon, nothing is recomputed and every component is replayed.
        rng = random.Random(5)
        workers = [
            Worker(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 2.0, 0.0, 1000.0)
            for i in range(8)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, 1000.0)
            for j in range(30)
        ]
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        first = planner.plan(workers, tasks, 0.0)
        assert first.recomputed_workers == len(workers)
        second = planner.plan(workers, tasks, 0.001)
        assert _outcome_signature(first) == _outcome_signature(second)
        assert second.reused_workers == len(workers)
        assert second.recomputed_workers == 0
        assert second.searched_components == 0
        assert second.reused_components == second.num_components

    def test_one_travel_matrix_per_epoch_with_k_rows(self, monkeypatch):
        # Each plan() builds at most one TravelMatrix, holding one row per
        # worker refreshed that epoch (k, not W) over the whole snapshot —
        # and none below VECTOR_MIN_TASKS.  The refresh span reports the
        # same numbers.
        import repro.assignment.incremental as incremental_mod
        from repro.assignment.reachability import VECTOR_MIN_TASKS
        from repro.obs import Observability

        built = []

        class RecordingMatrix(TravelMatrix):
            def __init__(self, workers, tasks, *args, **kwargs):
                super().__init__(workers, tasks, *args, **kwargs)
                built.append((len(self.workers), len(self.tasks)))

        monkeypatch.setattr(incremental_mod, "TravelMatrix", RecordingMatrix)
        rng = random.Random(17)
        # Far-off deadlines: no horizon expires mid-stream, so exactly the
        # moved workers refresh.
        workers = [
            Worker(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 2.0, 0.0, 1000.0)
            for i in range(8)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, 1000.0)
            for j in range(VECTOR_MIN_TASKS + 8)
        ]
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        obs = Observability()
        planner.attach_observability(obs)

        def plan(snapshot_tasks, now):
            del built[:]
            outcome = planner.plan(workers, snapshot_tasks, now)
            span = [e for e in obs.tracer.events if e["name"] == "refresh"][-1]
            return outcome, span["args"]

        _, args = plan(tasks, 0.0)
        assert built == [(len(workers), len(tasks))]
        assert (args["rows"], args["tasks"]) == built[0]
        for step in range(1, 9):
            moved = rng.sample(range(len(workers)), rng.randint(1, 3))
            for i in moved:
                workers[i] = workers[i].moved_to(
                    Point(rng.uniform(0, 10), rng.uniform(0, 10))
                )
            outcome, args = plan(tasks, 0.01 * step)
            assert outcome.recomputed_workers == len(moved) < len(workers)
            assert built == [(len(moved), len(tasks))]
            assert (args["rows"], args["tasks"]) == built[0]
        # Nothing to refresh: no matrix at all.
        outcome, args = plan(tasks, 0.1)
        assert outcome.recomputed_workers == 0 and built == []
        assert (args["rows"], args["tasks"]) == (0, len(tasks))
        # Below the threshold the scalar kernel serves a fully dirty epoch.
        few = tasks[: VECTOR_MIN_TASKS - 1]
        planner.reset_cache()
        outcome, args = plan(few, 0.2)
        assert outcome.recomputed_workers == len(workers) and built == []
        assert (args["rows"], args["tasks"]) == (0, len(few))

    @pytest.mark.parametrize("strategy_name", ["dta", "fta"])
    def test_streaming_platform_incremental_vs_full(self, strategy_name):
        from repro.assignment.strategies import make_strategy
        from repro.datasets.synthetic import SyntheticWorkloadGenerator, WorkloadConfig
        from repro.simulation.platform import PlatformConfig, SCPlatform

        workload = SyntheticWorkloadGenerator(
            config=WorkloadConfig(num_workers=15, num_tasks=120, seed=9)
        ).generate()
        results = []
        for cold in (True, False):
            strategy = make_strategy(strategy_name, config=PlannerConfig())
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


if HAVE_HYPOTHESIS:

    @st.composite
    def hypothesis_instance(draw):
        num_workers = draw(st.integers(min_value=1, max_value=6))
        num_tasks = draw(st.integers(min_value=1, max_value=20))
        coord = st.floats(
            min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
        )
        workers = [
            Worker(
                i,
                Point(draw(coord), draw(coord)),
                draw(st.floats(min_value=0.3, max_value=3.0)),
                0.0,
                draw(st.floats(min_value=3.0, max_value=40.0)),
            )
            for i in range(num_workers)
        ]
        tasks = [
            Task(
                100 + j,
                Point(draw(coord), draw(coord)),
                0.0,
                draw(st.floats(min_value=0.5, max_value=40.0)),
            )
            for j in range(num_tasks)
        ]
        return workers, tasks

    class TestHypothesisEquivalence:
        @settings(max_examples=30, deadline=None)
        @given(instance=hypothesis_instance(), now=st.floats(min_value=0.0, max_value=3.0))
        def test_reachability_matches(self, instance, now):
            workers, tasks = instance
            matrix = TravelMatrix(workers, tasks, TRAVEL)
            for worker in workers:
                scalar = reachable_tasks(worker, tasks, now, TRAVEL, max_tasks=8)
                vector = reachable_tasks_matrix(worker, tasks, now, matrix, max_tasks=8)
                assert [t.task_id for t in scalar] == [t.task_id for t in vector]

        @settings(max_examples=20, deadline=None)
        @given(instance=hypothesis_instance())
        def test_planner_matches_scalar_oracle(self, instance):
            workers, tasks = instance
            planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
            assert_planner_matches_oracle(planner, workers, tasks, 0.0)
