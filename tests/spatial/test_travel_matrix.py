"""TravelMatrix: exactness against the scalar travel-model primitives.

The per-backend identity batteries (scalar vs ``pairwise``/``legs``/
``TravelMatrix``) live in the shared conformance suite
(``conformance.py`` / ``test_conformance.py``); this file keeps the
matrix-specific behaviours — custom-model overrides, the reachability
mask, lookup errors.
"""

import random

import numpy as np
import pytest

from conformance import (
    WeirdScalarModel,
    check_scalar_vector_identity,
    check_travel_matrix_identity,
)
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point, euclidean_distance
from repro.spatial.travel import EuclideanTravelModel, ManhattanTravelModel
from repro.spatial.travel_matrix import LegTimes, TravelMatrix


def _random_instance(seed, num_workers=6, num_tasks=25):
    rng = random.Random(seed)
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            rng.uniform(0.5, 3.0),
            0.0,
            rng.uniform(10, 60),
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, rng.uniform(1, 50))
        for j in range(num_tasks)
    ]
    return workers, tasks


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_builtin_and_fallback_models_bit_identical(self, seed):
        # One shared battery per backend (scalar primitives vs TravelMatrix).
        workers, tasks = _random_instance(seed)
        for travel in (
            EuclideanTravelModel(speed=1.7),
            ManhattanTravelModel(speed=2.0),
            WeirdScalarModel(speed=1.0),
        ):
            check_travel_matrix_identity(travel, workers[:4], tasks[:10])

    def test_overridden_time_is_honoured(self):
        class OverheadModel(EuclideanTravelModel):
            def time(self, origin, destination):
                # e.g. fixed per-trip pickup overhead on top of driving time
                return self.distance(origin, destination) / self.speed + 30.0

        workers, tasks = _random_instance(5, num_workers=3, num_tasks=8)
        travel = OverheadModel(speed=2.0)
        matrix = TravelMatrix(workers, tasks, travel)
        for worker in workers:
            for task in tasks:
                assert matrix.worker_task_time(worker.worker_id, task.task_id) == (
                    travel.time(worker.location, task.location)
                )
        assert matrix.task_task_time(tasks[0].task_id, tasks[2].task_id) == (
            travel.time(tasks[0].location, tasks[2].location)
        )
        legs = matrix.leg_times(workers[0], tasks[:6])
        reference = LegTimes.from_scalar(workers[0], tasks[:6], travel)
        assert legs.worker_time == reference.worker_time
        assert legs.task_time == reference.task_time

    def test_tt_block_matches_pairwise_scalar(self):
        workers, tasks = _random_instance(11)
        travel = EuclideanTravelModel(speed=1.0)
        matrix = TravelMatrix(workers, tasks, travel)
        cols = matrix.task_cols(tasks[:9])
        block = matrix.tt_dist_block(cols, cols)
        for i, a in enumerate(tasks[:9]):
            for j, b in enumerate(tasks[:9]):
                assert block[i, j] == euclidean_distance(a.location, b.location)

    def test_leg_times_matrix_equals_scalar(self):
        workers, tasks = _random_instance(13)
        travel = EuclideanTravelModel(speed=1.3)
        matrix = TravelMatrix(workers, tasks, travel)
        subset = tasks[3:12]
        from_matrix = matrix.leg_times(workers[0], subset)
        from_scalar = LegTimes.from_scalar(workers[0], subset, travel)
        assert from_matrix.worker_time == from_scalar.worker_time
        assert from_matrix.worker_dist == from_scalar.worker_dist
        assert from_matrix.task_time == from_scalar.task_time
        assert from_matrix.task_dist == from_scalar.task_dist


class TestTravelModelProtocol:
    """The entity-level protocol (pairwise / legs) must be
    bit-identical to the scalar primitives for kernel and fallback models
    (the shared conformance check, run here over entity sequences)."""

    def test_pairwise_and_legs_match_scalar(self):
        workers, tasks = _random_instance(23, num_workers=4, num_tasks=9)
        for model in (
            EuclideanTravelModel(speed=1.7),
            ManhattanTravelModel(speed=0.8),
            WeirdScalarModel(speed=1.1),
        ):
            check_scalar_vector_identity(model, workers, tasks)

    def test_pairwise_accepts_plain_points(self):
        from repro.spatial.geometry import Point

        model = EuclideanTravelModel(speed=2.0)
        points = [Point(0.0, 0.0), Point(3.0, 4.0)]
        dist, time = model.pairwise(points, points)
        assert dist[0, 1] == 5.0
        assert time[0, 1] == 2.5

    def test_empty_sequences(self):
        model = EuclideanTravelModel()
        dist, time = model.pairwise([], [])
        assert dist.shape == (0, 0)
        assert time.shape == (0, 0)

    @pytest.mark.parametrize(
        "travel",
        [
            EuclideanTravelModel(speed=1.7),
            ManhattanTravelModel(speed=0.8),
            WeirdScalarModel(speed=1.1),
        ],
        ids=["euclidean", "manhattan", "scalar-fallback"],
    )
    def test_precomputed_dest_coords_bit_identical(self, travel):
        # TravelMatrix hands its extracted (tx, ty) to ``pairwise`` so the
        # model skips its own destination rebuild; the shortcut must not
        # perturb a single bit, and a k-row matrix over a worker subset
        # (the engine's per-epoch k×T build) must hold exactly the full
        # matrix's rows.
        workers, tasks = _random_instance(31, num_workers=4, num_tasks=12)
        tx = np.array([t.location.x for t in tasks], dtype=np.float64)
        ty = np.array([t.location.y for t in tasks], dtype=np.float64)

        plain = TravelMatrix(workers, tasks, travel)
        subset = TravelMatrix([workers[2], workers[0]], tasks, travel)
        np.testing.assert_array_equal(subset.wt_dist, plain.wt_dist[[2, 0]])
        np.testing.assert_array_equal(subset.wt_time, plain.wt_time[[2, 0]])
        assert subset.worker_row(workers[0].worker_id) == 1

        d_plain, t_plain = travel.pairwise(workers, tasks)
        d_shared, t_shared = travel.pairwise(workers, tasks, dest_coords=(tx, ty))
        np.testing.assert_array_equal(d_shared, d_plain)
        np.testing.assert_array_equal(t_shared, t_plain)


class TestReachabilityMask:
    def test_mask_matches_is_reachable(self):
        from repro.assignment.reachability import is_reachable

        workers, tasks = _random_instance(17)
        travel = EuclideanTravelModel(speed=1.0)
        matrix = TravelMatrix(workers, tasks, travel)
        cols = matrix.task_cols(tasks)
        for now in (0.0, 5.0, 25.0):
            for worker in workers:
                mask = matrix.reachability_mask(worker, cols, now)
                expected = np.array(
                    [is_reachable(worker, task, now, travel) for task in tasks]
                )
                assert np.array_equal(mask, expected)

    def test_lookup_errors_for_unknown_ids(self):
        workers, tasks = _random_instance(19, num_workers=2, num_tasks=4)
        matrix = TravelMatrix(workers, tasks, EuclideanTravelModel(speed=1.0))
        assert 999 not in matrix
        assert not matrix.has_worker(999)
        with pytest.raises(KeyError):
            matrix.task_col(999)
        with pytest.raises(KeyError):
            matrix.worker_row(999)
