"""Per-leg departure-window pricing (PR 10 tentpole, lever b).

The frozen-at-departure approximation prices every leg of a multi-task
sequence at the multiplier latched when planning started, even when later
departures fall past a profile boundary.  Execution, however, dispatches
one task at a time and re-latches at every departure — so the platform
actually *pays* per-leg frozen-at-departure prices.  ``per_leg_pricing``
makes the planner price what execution pays.

The contract under test:

* uniform (boundary-free) profiles take the exact frozen path and are
  **bit-for-bit identical** with the flag on or off, at every backend
  (full replan, incremental, road network);
* ``leg_pricer`` returns ``None`` exactly when the frozen path is already
  exact (static model, uniform profile, time-dependent base);
* on a boundary-crossing stream, pricing legs at their simulated
  departures strictly improves the served rate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import reachable_tasks
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.strategies import DTAStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.roadnet import RoadNetworkTravelModel, grid_network
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.profiles import SpeedProfile
from repro.spatial.timedep import TimeDependentTravelModel
from repro.spatial.travel import EuclideanTravelModel, LegPricer

RUSH = SpeedProfile(breakpoints=(0.0, 10.0), multipliers=(0.5, 2.0), period=1000.0)


def _plan_signature(outcome):
    return sorted(
        (wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment
    )


# --------------------------------------------------------------------- #
# leg_pricer contract
# --------------------------------------------------------------------- #
class TestLegPricerContract:
    def test_static_model_has_no_pricer(self):
        assert EuclideanTravelModel(speed=1.0).leg_pricer(0.0) is None

    def test_uniform_profile_has_no_pricer(self):
        model = TimeDependentTravelModel(
            EuclideanTravelModel(speed=1.0), SpeedProfile.constant(0.8)
        )
        assert model.leg_pricer(0.0) is None

    def test_time_dependent_base_has_no_pricer(self):
        """A scalar ratio cannot re-price a base whose own costs move, so
        nesting falls back to the (sound) frozen + boundary-clamp path."""
        inner = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), RUSH)
        outer = TimeDependentTravelModel(inner, SpeedProfile.constant(0.9))
        # The outer profile is uniform AND the base is time-dependent;
        # swap roles to hit the base-model guard specifically.
        nested = TimeDependentTravelModel(inner, RUSH)
        assert outer.leg_pricer(0.0) is None
        assert nested.leg_pricer(0.0) is None

    def test_non_uniform_profile_prices_by_departure(self):
        model = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), RUSH)
        model.begin_epoch(0.0)
        pricer = model.leg_pricer(0.0)
        assert isinstance(pricer, LegPricer)
        # In-window departure: the exact frozen multiplier, ratio is the
        # literal float 1.0 (bit-for-bit frozen arithmetic downstream).
        ratio, slack = pricer.ratio_and_slack(4.0)
        assert ratio == 1.0
        assert slack == 6.0  # boundary at t=10
        # Post-boundary departure: latched / active = 0.5 / 2.0.
        ratio, slack = pricer.ratio_and_slack(12.0)
        assert ratio == 0.25
        assert slack == pytest.approx(1000.0 - 12.0)  # next period's boundary
        # Re-latching in the fast window inverts the ratio direction.
        model.begin_epoch(12.0)
        ratio, _ = pricer_after = model.leg_pricer(12.0).ratio_and_slack(3.0)
        assert ratio == 2.0 / 0.5


# --------------------------------------------------------------------- #
# Sequence-level semantics
# --------------------------------------------------------------------- #
class TestSequenceSemantics:
    WORKER = Worker(1, Point(0.0, 0.0), 40.0, 0.0, 200.0)

    def test_uniform_profile_bit_for_bit(self):
        """Uniform multiplier != 1: leg_pricer is None, so the per-leg flag
        must not change a single float — sequences and horizons match."""
        travel = TimeDependentTravelModel(
            EuclideanTravelModel(speed=1.0), SpeedProfile.constant(0.8)
        )
        tasks = [
            Task(1, Point(2.0, 0.0), 0.0, 30.0),
            Task(2, Point(4.0, 1.0), 0.0, 40.0),
            Task(3, Point(1.0, 3.0), 0.0, 25.0),
        ]
        results = {}
        for per_leg in (True, False):
            horizon = []
            seqs = maximal_valid_sequences(
                self.WORKER, tasks, 0.0, travel=travel,
                horizon_out=horizon, per_leg=per_leg,
            )
            results[per_leg] = ([s.task_ids for s in seqs], horizon)
        assert results[True] == results[False]

    def test_per_leg_validates_boundary_crossing_sequence(self):
        """Frozen pricing rejects the chain A->B: the A->B leg is priced at
        the slow multiplier latched at t=0 even though it departs inside
        the fast window.  Per-leg pricing prices it at departure and keeps
        the chain."""
        travel = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), RUSH)
        travel.begin_epoch(0.0)
        task_a = Task(1, Point(6.0, 0.0), 0.0, 14.0)  # arrive 6/0.5 = 12 < 14
        task_b = Task(2, Point(14.0, 0.0), 0.0, 18.0)
        tasks = [task_a, task_b]
        frozen = maximal_valid_sequences(
            self.WORKER, tasks, 0.0, travel=travel, per_leg=False
        )
        per_leg = maximal_valid_sequences(
            self.WORKER, tasks, 0.0, travel=travel, per_leg=True
        )
        # Frozen: A->B leg costs 8 / 0.5 = 16, arriving 28 > 18; B alone
        # costs 28 > 18.  Only (A,) survives.
        assert [s.task_ids for s in frozen] == [(1,)]
        # Per-leg: the A->B leg departs at t=12 in the 2.0 window — the
        # ratio 0.5/2.0 re-prices it to 4, arriving 16 < 18.
        assert [s.task_ids for s in per_leg] == [(1, 2)]


# --------------------------------------------------------------------- #
# Uniform streams: bit-for-bit at every backend
# --------------------------------------------------------------------- #
def _uniform_snapshot(seed=11, num_workers=6, num_tasks=24):
    rng = np.random.default_rng(seed)
    workers = [
        Worker(
            i,
            Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
            float(rng.uniform(2.0, 6.0)),
            0.0,
            float(rng.uniform(30, 80)),
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(
            100 + j,
            Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
            0.0,
            float(rng.uniform(10, 60)),
        )
        for j in range(num_tasks)
    ]
    return workers, tasks


class TestUniformBitForBit:
    """``leg_pricer`` is None on uniform profiles, so the flag must be a
    no-op down to the last bit — per backend, not just in aggregate."""

    @pytest.mark.parametrize("cold", [True, False], ids=["full", "incremental"])
    def test_planner_backends(self, cold):
        workers, tasks = _uniform_snapshot()
        travel = TimeDependentTravelModel(
            EuclideanTravelModel(speed=1.0), SpeedProfile.constant(0.8)
        )
        signatures = {}
        for per_leg in (True, False):
            planner = TaskPlanner(PlannerConfig(per_leg_pricing=per_leg), travel=travel)
            sig = []
            for now in (0.0, 5.0, 10.0):
                if cold:
                    planner.reset_cache()
                outcome = planner.plan(workers, tasks, now)
                sig.append((_plan_signature(outcome), outcome.nodes_expanded))
            signatures[per_leg] = sig
            planner.close()
        assert signatures[True] == signatures[False]

    def test_roadnet_backend(self):
        """Road-network travel (uniform edge profile) under a platform run:
        the flag must leave the deterministic end state untouched."""
        net = grid_network(4, 4, spacing=2.0, seed=3, speed_jitter=0.2)
        states = {}
        for per_leg in (True, False):
            travel = RoadNetworkTravelModel(
                net, edge_profiles=(SpeedProfile.constant(0.9),)
            )
            workers, tasks = _uniform_snapshot(seed=5, num_workers=4, num_tasks=12)
            instance = ATAInstance(workers, tasks, travel=travel, name="roadnet-uni")
            platform = SCPlatform(
                instance,
                DTAStrategy(
                    config=PlannerConfig(per_leg_pricing=per_leg), travel=travel
                ),
                PlatformConfig(replan_interval=0.0),
            )
            states[per_leg] = platform.run().deterministic_state()
        assert states[True] == states[False]


# --------------------------------------------------------------------- #
# Boundary-crossing stream: per-leg strictly improves the served rate
# --------------------------------------------------------------------- #
def _boundary_stream_instance():
    """A stream where frozen and per-leg planners commit to different
    first dispatches, and only per-leg's choice survives the boundary.

    Multiplier 0.5 until t=10, then 2.0.  One worker at the origin whose
    shift starts at t=1 — after every task has arrived, so its first
    decision point sees the whole contested snapshot.

    * right side: A at x=6 (expires 14), B1 at x=14 (expires 18), B2 at
      x=15 (expires 19).  The chain A -> B1 -> B2 works only if the legs
      after A are priced in the fast window (depart t=13): per-leg plans
      3 tasks (arrivals 13 / 17 / 17.5).  Frozen prices A->B1 at the
      latched 0.5 (arrive 29 > 18), so the right side is worth a single
      task to it.
    * left side: C at x=-2 (expires 10), D at x=-4 (expires 12) — a
      slow-window pair (arrive 5 and 9).  Frozen's best plan is
      (C, D) = 2 > (A,) = 1, so it dispatches left.

    By the time frozen is free again (t=9, then the boundary wakeup at
    t=10), A is out of reach even at fast speed (arrive 15 > 14) and
    B1/B2 are too far from x=-4 (19 > 18 / 19.5 > 19).  Served: frozen
    2, per-leg 3.
    """
    travel = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), RUSH)
    worker = Worker(1, Point(0.0, 0.0), 40.0, 1.0, 200.0)
    tasks = [
        Task(1, Point(6.0, 0.0), 0.0, 14.0),
        Task(2, Point(14.0, 0.0), 0.0, 18.0),
        Task(3, Point(15.0, 0.0), 0.0, 19.0),
        Task(4, Point(-2.0, 0.0), 0.0, 10.0),
        Task(5, Point(-4.0, 0.0), 0.0, 12.0),
    ]
    return ATAInstance([worker], tasks, travel=travel, name="boundary-stream")


class TestBoundaryStream:
    def _run(self, per_leg):
        instance = _boundary_stream_instance()
        platform = SCPlatform(
            instance,
            DTAStrategy(
                config=PlannerConfig(per_leg_pricing=per_leg),
                travel=instance.travel,
            ),
            PlatformConfig(replan_interval=0.0),
        )
        return platform.run()

    def test_per_leg_serves_strictly_more(self):
        frozen = self._run(False)
        per_leg = self._run(True)
        assert frozen.assigned_tasks == 2  # the (C, D) pair
        assert per_leg.assigned_tasks == 3  # the A -> B1 -> B2 chain
        assert per_leg.assigned_tasks > frozen.assigned_tasks

    def test_incremental_matches_full_with_per_leg(self):
        """The incremental engine threads the flag through its sequence
        refreshes: same plans and node counts as a fresh full replan on
        the boundary-crossing snapshot, before and after the boundary."""
        instance = _boundary_stream_instance()
        inc = TaskPlanner(PlannerConfig(per_leg_pricing=True), travel=instance.travel)
        full = TaskPlanner(PlannerConfig(per_leg_pricing=True), travel=instance.travel)
        for now in (0.0, 6.0, 12.0):
            a = inc.plan(instance.workers, instance.tasks, now)
            full.reset_cache()
            b = full.plan(instance.workers, instance.tasks, now)
            assert _plan_signature(a) == _plan_signature(b)
            assert a.nodes_expanded == b.nodes_expanded


# --------------------------------------------------------------------- #
# Road network: every window keys its own rows
# --------------------------------------------------------------------- #
class TestRoadnetWindowSignatures:
    PROFILE = SpeedProfile(
        breakpoints=(0.0, 10.0), multipliers=(1.0, 1.004), period=100.0
    )

    def test_near_equal_windows_stay_distinct(self):
        """Every distinct multiplier is its own window: a near-equal second
        window pays its own cold Dijkstra rows."""
        net = grid_network(3, 3, seed=1)
        model = RoadNetworkTravelModel(net, edge_profiles=(self.PROFILE,))
        model.begin_epoch(0.0)
        model._row(0)
        misses = model.row_cache_misses
        model.begin_epoch(15.0)
        assert model._window_sig == (1.004,)
        model._row(0)
        assert model.row_cache_misses == misses + 1
