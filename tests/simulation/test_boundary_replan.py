"""Boundary-aware replan scheduling (satellite of the fault-tolerance PR).

The ``replan_interval`` throttle must never sleep through a speed-profile
boundary: costs change there, so a task that is only feasible under the
new profile would otherwise silently expire inside the throttle window.
Two mechanisms cooperate: :meth:`SCPlatform._should_defer_replan` stops
deferring once a boundary has passed, and the platform schedules a wakeup
at the next boundary so a decision point actually exists there even when
no event falls inside the new window.  On static travel models (boundary
``inf``) both must be exact no-ops.
"""

from __future__ import annotations

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAStrategy, GreedyStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.yueche import generate_yueche
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.profiles import SpeedProfile
from repro.spatial.timedep import TimeDependentTravelModel
from repro.spatial.travel import EuclideanTravelModel


def _rush_hour_instance():
    """A task that is only reachable after the profile boundary at t=50.

    Multiplier 0.1 until t=50 (travel time 8 / 0.1 = 80 > the task's
    60-unit lifetime), then 5.0 (travel time 1.6).  With
    ``replan_interval=100`` the throttle would defer every decision point
    between the single t=0 arrivals and the task's expiry — only the
    boundary wakeup can save the task.
    """
    travel = TimeDependentTravelModel(
        EuclideanTravelModel(speed=1.0),
        SpeedProfile(breakpoints=(0.0, 50.0), multipliers=(0.1, 5.0), period=1000.0),
    )
    worker = Worker(1, Point(0.0, 0.0), 10.0, 0.0, 200.0)
    task = Task(1, Point(8.0, 0.0), 0.0, 60.0)
    return ATAInstance([worker], [task], travel=travel, name="rush-hour")


class TestBoundaryWakeup:
    def test_boundary_wakeup_rescues_post_rush_task(self):
        instance = _rush_hour_instance()
        platform = SCPlatform(
            instance,
            GreedyStrategy(travel=instance.travel),
            PlatformConfig(replan_interval=100.0),
        )
        metrics = platform.run()
        assert metrics.assigned_tasks == 1
        assert metrics.expired_tasks == 0

    def test_interval_zero_unaffected(self):
        """Without a throttle the boundary logic must stand down entirely
        (replan_interval <= 0 guard): no wakeup is ever scheduled.  (With
        every decision point tied to an arrival at t=0, the post-rush task
        is unreachable here by construction — rescuing it is exactly what
        the throttle + boundary wakeup combination buys.)"""
        instance = _rush_hour_instance()
        platform = SCPlatform(
            instance,
            GreedyStrategy(travel=instance.travel),
            PlatformConfig(replan_interval=0.0),
        )
        metrics = platform.run()
        assert not platform._wakeups
        assert platform._last_boundary_wakeup == -float("inf")
        assert metrics.assigned_tasks == 0


class TestDeferPredicate:
    def _platform(self, interval):
        instance = _rush_hour_instance()
        return SCPlatform(
            instance,
            GreedyStrategy(travel=instance.travel),
            PlatformConfig(replan_interval=interval),
        )

    def test_boundary_overrides_throttle(self):
        platform = self._platform(100.0)
        platform._reset_run_state(clear_durability=False)
        platform._last_plan_time = 10.0
        assert platform._should_defer_replan(20.0)  # inside window, no boundary
        assert not platform._should_defer_replan(50.0)  # boundary reached
        assert not platform._should_defer_replan(120.0)  # interval elapsed


class TestStaticModelNoOp:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_yueche(scale=0.015, seed=7)

    def test_bit_for_bit_on_static_travel(self, workload):
        """Static models report boundary=inf, so a throttled run must
        never schedule a boundary wake-up or let one bypass the throttle."""
        platform = SCPlatform(
            workload.instance,
            DTAStrategy(config=PlannerConfig()),
            PlatformConfig(replan_interval=5.0),
        )
        platform.run()
        assert platform._last_boundary_wakeup == -float("inf")
        platform._last_plan_time = 10.0
        assert platform._should_defer_replan(12.0)
        assert not platform._should_defer_replan(15.0)
