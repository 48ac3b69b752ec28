"""Streaming edge cases of the platform: re-entrancy, boundary events.

Regression coverage for the bugfix PR: ``SCPlatform.run()`` must be
re-entrant (a second replay used to double-count metrics and replay stale
state), and the decision-point handling must be exact at the boundaries —
a worker going offline mid-reposition, a task expiring exactly at a
decision point, and the ``replan_interval > 0`` batching semantics.
"""

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAPlusTPStrategy, DTAStrategy, GreedyStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.synthetic import SyntheticWorkloadGenerator, WorkloadConfig
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

from reference_pipeline import cold_strategy

TRAVEL = EuclideanTravelModel(speed=1.0)


def _metrics_signature(metrics):
    return (
        metrics.assigned_tasks,
        metrics.dispatched_tasks,
        metrics.expired_tasks,
        metrics.replans,
        dict(metrics.assigned_per_worker),
    )


class TestRunReentrancy:
    @pytest.mark.parametrize("cold", [True, False])
    def test_two_consecutive_runs_return_identical_metrics(self, cold):
        workload = SyntheticWorkloadGenerator(
            config=WorkloadConfig(num_workers=10, num_tasks=80, seed=17)
        ).generate()
        strategy = DTAStrategy(config=PlannerConfig())
        if cold:
            cold_strategy(strategy)
        platform = SCPlatform(
            workload.instance,
            strategy,
            PlatformConfig(replan_interval=0.0),
        )
        first = _metrics_signature(platform.run())
        second = _metrics_signature(platform.run())
        assert first == second
        # The returned object is the fresh run's metrics, not an accumulator.
        assert platform.metrics.replans == second[3]

    def test_second_run_matches_fresh_platform(self):
        workload = SyntheticWorkloadGenerator(
            config=WorkloadConfig(num_workers=8, num_tasks=60, seed=3)
        ).generate()

        def build():
            return SCPlatform(
                workload.instance,
                DTAStrategy(),
                PlatformConfig(replan_interval=0.0),
            )

        reference = _metrics_signature(build().run())
        reused = build()
        reused.run()
        assert _metrics_signature(reused.run()) == reference


class TestOfflineMidReposition:
    def test_worker_going_offline_mid_reposition_is_dropped(self):
        # The predicted task pulls the worker east, but the worker goes
        # offline long before arriving; the platform must garbage-collect
        # it mid-leg without dispatching or crashing.
        worker = Worker(1, Point(0, 0), 15.0, 0.0, 6.0)
        real = Task(1, Point(14, 0), 20.0, 32.0)
        instance = ATAInstance([worker], [real], travel=TRAVEL, name="offline-repo")
        predicted = Task(900, Point(14, 0), 0.0, 60.0, predicted=True)
        strategy = DTAPlusTPStrategy(
            config=PlannerConfig(max_reachable=5, max_sequence_length=1),
            travel=TRAVEL,
            predicted_task_provider=lambda now: [predicted],
        )
        platform = SCPlatform(instance, strategy, PlatformConfig(replan_interval=0.0))
        metrics = platform.run()
        assert metrics.assigned_tasks == 0
        assert platform._workers == {}

    def test_reposition_interrupted_by_real_dispatch(self):
        # A real task appearing next to the repositioning path must still be
        # served: repositioning keeps the worker idle and dispatchable.
        worker = Worker(1, Point(0, 0), 15.0, 0.0, 200.0)
        nearby = Task(1, Point(2, 0), 5.0, 40.0)
        instance = ATAInstance([worker], [nearby], travel=TRAVEL, name="interrupt")
        predicted = Task(900, Point(14, 0), 0.0, 60.0, predicted=True)
        strategy = DTAPlusTPStrategy(
            config=PlannerConfig(max_reachable=5, max_sequence_length=1),
            travel=TRAVEL,
            predicted_task_provider=lambda now: [predicted],
        )
        platform = SCPlatform(instance, strategy, PlatformConfig(replan_interval=0.0))
        metrics = platform.run()
        assert metrics.assigned_tasks == 1


class TestExactExpiryAtDecisionPoint:
    def test_task_expiring_exactly_at_event_time_is_expired_not_assigned(self):
        # Task 1 expires at t=10.0; worker 2's arrival event lands exactly
        # at t=10.0.  ``is_expired`` is inclusive (now >= e), so the task
        # must be garbage-collected as expired at that decision point, not
        # dispatched.
        early_worker = Worker(1, Point(100, 100), 1.0, 0.0, 200.0)  # out of reach
        late_worker = Worker(2, Point(0, 0), 10.0, 10.0, 200.0)
        boundary_task = Task(1, Point(1, 0), 0.0, 10.0)
        instance = ATAInstance(
            [early_worker, late_worker], [boundary_task], travel=TRAVEL, name="boundary"
        )
        platform = SCPlatform(instance, GreedyStrategy(travel=TRAVEL), PlatformConfig())
        metrics = platform.run()
        assert metrics.assigned_tasks == 0
        assert metrics.expired_tasks == 1

    def test_task_expiring_just_after_event_time_is_assignable(self):
        late_worker = Worker(2, Point(0, 0), 10.0, 10.0, 200.0)
        task = Task(1, Point(0, 0), 0.0, 10.5)
        instance = ATAInstance([late_worker], [task], travel=TRAVEL, name="boundary2")
        platform = SCPlatform(instance, GreedyStrategy(travel=TRAVEL), PlatformConfig())
        metrics = platform.run()
        assert metrics.assigned_tasks == 1


class TestReplanIntervalBatching:
    def _instance(self):
        # Five rapid-fire arrivals inside the throttle window plus one late
        # trigger event outside it (the throttle is event-driven: a batch is
        # planned at the first decision point past ``last_plan + interval``).
        worker = Worker(1, Point(0, 0), 50.0, 0.0, 500.0)
        tasks = [
            Task(j, Point(0.5 + 0.01 * j, 0.0), float(j), 400.0) for j in range(1, 6)
        ]
        tasks.append(Task(6, Point(0.7, 0.0), 20.0, 400.0))
        return ATAInstance([worker], tasks, travel=TRAVEL, name="batching")

    def test_interval_zero_replans_at_every_event(self):
        platform = SCPlatform(
            self._instance(), GreedyStrategy(travel=TRAVEL), PlatformConfig(replan_interval=0.0)
        )
        metrics = platform.run()
        # One planning call per instant with pending tasks (arrivals at
        # t=1..5, t=20, plus wake-ups while tasks remain pending).
        assert metrics.replans >= 6

    def test_positive_interval_batches_decision_points(self):
        platform = SCPlatform(
            self._instance(),
            GreedyStrategy(travel=TRAVEL),
            PlatformConfig(replan_interval=10.0),
        )
        metrics = platform.run()
        # The worker arrival at t=0 consumes the first decision point (no
        # pending tasks yet), arrivals at t=1..5 all fall inside the
        # throttle window, and the t=20 event plans the whole batch: exactly
        # one planning call ever sees pending tasks.
        assert metrics.replans == 1
        assert metrics.assigned_tasks >= 1

    def test_batched_plan_sees_accumulated_tasks(self):
        captured = []

        class RecordingGreedy(GreedyStrategy):
            def plan(self, idle_workers, pending_tasks, now):
                captured.append((now, sorted(t.task_id for t in pending_tasks)))
                return super().plan(idle_workers, pending_tasks, now)

        platform = SCPlatform(
            self._instance(),
            RecordingGreedy(travel=TRAVEL),
            PlatformConfig(replan_interval=10.0),
        )
        platform.run()
        with_pending = [(now, ids) for now, ids in captured if ids]
        # The batched planning call at t=20 must see every accumulated
        # arrival at once, not just the triggering event's task.
        assert with_pending and with_pending[0] == (20.0, [1, 2, 3, 4, 5, 6])
