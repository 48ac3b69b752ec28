"""Reusable travel-model conformance suite.

Every :class:`~repro.spatial.travel.TravelModel` backend — built-in,
road-network, time-dependent, or user-supplied — must honour the same
contracts for the planning stack's equivalence guarantees to hold.  This
module states those contracts once as ``check_*`` functions so each new
backend runs the identical battery instead of growing another copy-pasted
variant (``tests/spatial/test_conformance.py`` wires in every shipped
backend; backend-specific suites call individual checks where useful):

* **Scalar/vector bit-identity** — ``pairwise`` / ``legs`` and a
  :class:`TravelMatrix` built over the model must
  reproduce the scalar ``distance`` / ``time`` primitives float-for-float
  (the planner mixes the paths freely).
* **reach_bound admissibility** — for any chain of travel legs of total
  travel distance ``r``, the straight-line displacement end-to-end must
  not exceed ``reach_bound(r)`` (what keeps index radius queries and
  dirty balls sound).
* **Non-negativity & determinism** — costs are ``>= 0`` and repeated
  evaluation returns identical floats (cache hits must be bit-identical
  to cold computation).
* **Epoch-clock contract** — ``next_profile_boundary(now)`` is strictly
  ahead of ``now``; costs latched by ``begin_epoch`` are constant while
  re-latching anywhere inside ``[now, boundary)``, and re-latching the
  original epoch reproduces the original floats (window identity).

The module also hosts the shared adversarial models (asymmetric
triangle-violating times; sub-Euclidean shortcut distances) that several
suites exercise the stack with.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point, euclidean_distance
from repro.spatial.travel import TravelModel
from repro.spatial.travel_matrix import LegTimes, TravelMatrix

__all__ = [
    "AsymmetricTimeModel",
    "ShortcutModel",
    "WeirdScalarModel",
    "make_entities",
    "random_points",
    "check_scalar_vector_identity",
    "check_travel_matrix_identity",
    "check_nonnegative_deterministic",
    "check_reach_bound_admissible",
    "check_epoch_clock_contract",
    "run_conformance",
]


# --------------------------------------------------------------------- #
# Shared adversarial models
# --------------------------------------------------------------------- #


def _pair_factor(a: Point, b: Point) -> float:
    """Deterministic, direction-dependent time multiplier in [0.3, 1.8]."""
    h = math.sin(a.x * 12.9898 + a.y * 78.233 + b.x * 37.719 + b.y * 4.581) * 43758.5453
    return 0.3 + 1.5 * (h - math.floor(h))


class AsymmetricTimeModel(TravelModel):
    """Euclidean distances; times warped per ordered pair (non-metric)."""

    def distance(self, origin, destination):
        return euclidean_distance(origin, destination)

    def time(self, origin, destination):
        return (
            self.distance(origin, destination)
            / self.speed
            * _pair_factor(origin, destination)
        )


class ShortcutModel(TravelModel):
    """Travel distance below the straight line: the identity reach bound
    would be unsound, so the model opts out of geometric pruning."""

    def distance(self, origin, destination):
        return 0.4 * euclidean_distance(origin, destination)

    def reach_bound(self, reach):
        return float("inf")


class WeirdScalarModel(TravelModel):
    """A kernel-less model exercising the cached scalar fallback path."""

    def distance(self, origin, destination):
        return 2.0 * euclidean_distance(origin, destination) + 0.25


# --------------------------------------------------------------------- #
# Instance builders
# --------------------------------------------------------------------- #


def random_points(rng, count: int, extent: float = 8.0):
    return [
        Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(count)
    ]


def make_entities(rng, num_workers: int = 4, num_tasks: int = 12, extent: float = 8.0):
    """Random workers and tasks inside ``[0, extent]²`` (generous windows)."""
    workers = [
        Worker(
            i,
            Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)),
            rng.uniform(0.5, 3.0),
            0.0,
            rng.uniform(10.0, 60.0),
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(
            100 + j,
            Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)),
            0.0,
            rng.uniform(1.0, 50.0),
        )
        for j in range(num_tasks)
    ]
    return workers, tasks


def _points_of(entities):
    return [getattr(entity, "location", entity) for entity in entities]


# --------------------------------------------------------------------- #
# The checks
# --------------------------------------------------------------------- #


def check_scalar_vector_identity(model: TravelModel, origins, destinations) -> None:
    """``pairwise``/``legs`` == the scalar primitives, bitwise."""
    dist, time = model.pairwise(origins, destinations)
    pts_a, pts_b = _points_of(origins), _points_of(destinations)
    assert dist.shape == time.shape == (len(pts_a), len(pts_b))
    for i, a in enumerate(pts_a):
        for j, b in enumerate(pts_b):
            assert dist[i, j] == model.distance(a, b)
            assert time[i, j] == model.time(a, b)
    legs_d, legs_t = model.legs(destinations, destinations)
    full_d, full_t = model.pairwise(destinations, destinations)
    assert np.array_equal(legs_d, full_d) and np.array_equal(legs_t, full_t)


def check_travel_matrix_identity(model: TravelModel, workers, tasks) -> None:
    """A ``TravelMatrix`` over the model reproduces the scalar primitives."""
    matrix = TravelMatrix(workers, tasks, model)
    for worker in workers:
        for task in tasks:
            assert matrix.worker_task_distance(worker.worker_id, task.task_id) == (
                model.distance(worker.location, task.location)
            )
            assert matrix.worker_task_time(worker.worker_id, task.task_id) == (
                model.time(worker.location, task.location)
            )
    cols = matrix.task_cols(tasks)
    dist_block = matrix.tt_dist_block(cols, cols)
    time_block = matrix.tt_time_block(cols, cols, dist=dist_block)
    for i, a in enumerate(tasks):
        for j, b in enumerate(tasks):
            assert dist_block[i, j] == model.distance(a.location, b.location)
            assert time_block[i, j] == model.time(a.location, b.location)
    if workers and tasks:
        legs = matrix.leg_times(workers[0], tasks)
        reference = LegTimes.from_scalar(workers[0], tasks, model)
        assert legs.worker_time == reference.worker_time
        assert legs.worker_dist == reference.worker_dist
        assert legs.task_time == reference.task_time
        assert legs.task_dist == reference.task_dist


def check_nonnegative_deterministic(model: TravelModel, points) -> None:
    """Costs are non-negative and re-evaluation is bit-identical."""
    for a in points:
        for b in points:
            d, t = model.distance(a, b), model.time(a, b)
            assert d >= 0.0 and t >= 0.0
            assert model.distance(a, b) == d and model.time(a, b) == t
    dist1, time1 = model.pairwise(points, points)
    dist2, time2 = model.pairwise(points, points)
    assert np.array_equal(dist1, dist2) and np.array_equal(time1, time2)


def check_reach_bound_admissible(
    model: TravelModel, points, rng, chains: int = 120, max_legs: int = 4
) -> None:
    """Random travel chains: end-to-end displacement <= reach_bound(total).

    Also checks monotonicity (a bigger budget never shrinks the ball),
    which callers rely on when they round budgets up.
    """
    assert model.reach_bound(0.0) >= 0.0
    for _ in range(chains):
        legs = rng.randint(1, max_legs)
        chain = [rng.choice(points) for _ in range(legs + 1)]
        total = 0.0
        for a, b in zip(chain, chain[1:]):
            total += model.distance(a, b)
        if not math.isfinite(total):
            continue  # disconnected pair (e.g. one-way subgraph): no chain
        bound = model.reach_bound(total)
        displacement = euclidean_distance(chain[0], chain[-1])
        assert displacement <= bound * (1.0 + 1e-9) + 1e-9, (
            f"chain displacement {displacement} exceeds reach_bound({total}) = {bound}"
        )
        assert model.reach_bound(total * 2.0) >= bound * (1.0 - 1e-12)


def check_epoch_clock_contract(
    model: TravelModel, points, epochs=(0.0,), probes_per_window: int = 2
) -> None:
    """begin_epoch/next_profile_boundary behave as the caching layers assume.

    For each epoch ``now``: the boundary is strictly ahead; costs latched
    at ``now`` are reproduced after re-latching anywhere inside
    ``[now, boundary)`` and after re-latching ``now`` itself.  Static
    models pass trivially (infinite boundary, latch is a no-op).
    """
    pairs = [(a, b) for a in points[:4] for b in points[:4]]
    for now in epochs:
        boundary = model.next_profile_boundary(now)
        assert boundary > now
        model.begin_epoch(now)
        latched = [(model.distance(a, b), model.time(a, b)) for a, b in pairs]
        if math.isfinite(boundary):
            probes = [
                now + (boundary - now) * (k + 1) / (probes_per_window + 1)
                for k in range(probes_per_window)
            ]
        else:
            probes = [now + 1.0, now + 1e6]
        for probe in probes:
            model.begin_epoch(probe)
            assert [
                (model.distance(a, b), model.time(a, b)) for a, b in pairs
            ] == latched, f"costs moved inside window [{now}, {boundary})"
            # The boundary is a function of the queried time alone, not of
            # the latch or of what was asked last (backends memoise it).
            assert model.next_profile_boundary(probe) == boundary
            assert model.next_profile_boundary(now) == boundary
        model.begin_epoch(now)
        assert [(model.distance(a, b), model.time(a, b)) for a, b in pairs] == latched


def run_conformance(
    model: TravelModel,
    seed: int = 0,
    num_workers: int = 4,
    num_tasks: int = 10,
    extent: float = 8.0,
    epochs=(0.0,),
) -> None:
    """Run the full battery on one model (the all-backends entry point)."""
    import random

    rng = random.Random(seed)
    workers, tasks = make_entities(rng, num_workers, num_tasks, extent=extent)
    points = random_points(rng, 8, extent=extent)
    model.begin_epoch(epochs[0])
    check_scalar_vector_identity(model, workers, tasks)
    check_travel_matrix_identity(model, workers, tasks)
    check_nonnegative_deterministic(model, points)
    check_reach_bound_admissible(model, points, rng)
    check_epoch_clock_contract(model, points, epochs=epochs)
