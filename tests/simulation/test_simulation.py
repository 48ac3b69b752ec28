"""Tests for the simulation clock, metrics, platform and runner."""

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAPlusTPStrategy, DTAStrategy, GreedyStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.simulation.clock import SimulationClock
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.simulation.record import EpochRecord
from repro.simulation.runner import SimulationReport, SimulationRunner
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel


class TestClock:
    def test_advance_forward(self):
        clock = SimulationClock(10.0)
        assert clock.advance_to(12.0) == 12.0
        assert clock.advance_by(3.0) == 15.0
        assert clock.elapsed == 5.0

    def test_cannot_move_backwards(self):
        clock = SimulationClock(10.0)
        clock.advance_to(20.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_by(-1.0)

    def test_reset(self):
        clock = SimulationClock(10.0)
        clock.advance_to(20.0)
        clock.reset(0.0)
        assert clock.now == 0.0


class TestMetrics:
    def test_record_and_aggregate(self):
        metrics = SimulationMetrics()
        dispatches = [(1, 10), (1, 11), (2, 12)]
        metrics.fold(EpochRecord(0, "a", 0.0, counted=True, cpu=0.1, dispatches=dispatches))
        metrics.fold(EpochRecord(1, "w", 1.0, counted=True, cpu=0.3))
        metrics.fold(EpochRecord(2, "w", 2.0, expired=4))
        assert metrics.assigned_tasks == 3
        assert metrics.assigned_per_worker == {1: 2, 2: 1}
        assert metrics.mean_cpu_time == pytest.approx(0.2)
        assert metrics.total_cpu_time == pytest.approx(0.4)
        assert metrics.expired_tasks == 4
        data = metrics.as_dict()
        assert data["assigned_tasks"] == 3.0 and data["active_workers"] == 2.0

    def test_empty_metrics(self):
        metrics = SimulationMetrics()
        assert metrics.mean_cpu_time == 0.0


def _simple_instance() -> ATAInstance:
    travel = EuclideanTravelModel(speed=1.0)
    workers = [
        Worker(1, Point(0, 0), 5.0, 0.0, 100.0),
        Worker(2, Point(10, 10), 5.0, 0.0, 100.0),
    ]
    tasks = [
        Task(1, Point(1, 0), 0.0, 60.0),
        Task(2, Point(2, 0), 5.0, 60.0),
        Task(3, Point(11, 10), 0.0, 60.0),
        Task(4, Point(100, 100), 0.0, 60.0),   # unreachable by anyone
    ]
    return ATAInstance(workers, tasks, travel=travel, name="simple")


class TestPlatform:
    def test_dta_assigns_reachable_tasks(self):
        instance = _simple_instance()
        platform = SCPlatform(instance, DTAStrategy(travel=instance.travel))
        metrics = platform.run()
        assert metrics.assigned_tasks == 3       # task 4 is unreachable
        assert metrics.replans >= 1

    def test_worker_busy_while_travelling(self):
        """A single worker cannot serve two tasks whose deadlines overlap its travel."""
        travel = EuclideanTravelModel(speed=1.0)
        worker = Worker(1, Point(0, 0), 50.0, 0.0, 100.0)
        tasks = [
            Task(1, Point(10, 0), 0.0, 15.0),
            Task(2, Point(-10, 0), 0.0, 15.0),   # opposite direction, same window
        ]
        instance = ATAInstance([worker], tasks, travel=travel, name="busy")
        metrics = SCPlatform(instance, DTAStrategy(travel=travel)).run()
        assert metrics.assigned_tasks == 1

    def test_worker_serves_tasks_sequentially_after_wakeup(self):
        travel = EuclideanTravelModel(speed=1.0)
        worker = Worker(1, Point(0, 0), 50.0, 0.0, 100.0)
        tasks = [
            Task(1, Point(5, 0), 0.0, 50.0),
            Task(2, Point(10, 0), 0.0, 50.0),
        ]
        instance = ATAInstance([worker], tasks, travel=travel, name="seq")
        metrics = SCPlatform(instance, DTAStrategy(travel=travel)).run()
        assert metrics.assigned_tasks == 2       # second served after wake-up

    def test_replan_interval_reduces_planning_calls(self):
        instance = _simple_instance()
        frequent = SCPlatform(instance, GreedyStrategy(travel=instance.travel),
                              PlatformConfig(replan_interval=0.0)).run()
        batched = SCPlatform(instance, GreedyStrategy(travel=instance.travel),
                             PlatformConfig(replan_interval=30.0)).run()
        assert batched.replans <= frequent.replans

    def test_max_replans_cap(self):
        instance = _simple_instance()
        metrics = SCPlatform(instance, GreedyStrategy(travel=instance.travel),
                             PlatformConfig(max_replans=1)).run()
        assert metrics.replans <= 1

    @pytest.mark.parametrize("strategy_cls", [GreedyStrategy, DTAStrategy])
    def test_expired_tasks_recorded(self, strategy_cls):
        travel = EuclideanTravelModel(speed=1.0)
        worker = Worker(1, Point(0, 0), 1.0, 50.0, 100.0)   # online after tasks expire
        tasks = [Task(1, Point(0.5, 0), 0.0, 10.0)]
        instance = ATAInstance([worker], tasks, travel=travel, name="expire")
        metrics = SCPlatform(instance, strategy_cls(travel=travel)).run()
        assert metrics.assigned_tasks == 0
        assert metrics.expired_tasks == 1

    def test_worker_offline_before_task_published(self):
        travel = EuclideanTravelModel(speed=1.0)
        worker = Worker(1, Point(0, 0), 5.0, 0.0, 10.0)
        late_task = Task(1, Point(1, 0), 20.0, 60.0)   # published after the worker left
        instance = ATAInstance([worker], [late_task], travel=travel, name="offline")
        platform = SCPlatform(instance, DTAStrategy(travel=travel))
        metrics = platform.run()
        assert metrics.assigned_tasks == 0
        assert platform._workers == {}

    def test_close_releases_the_incremental_cache(self, tiny_workload):
        instance = tiny_workload.instance
        strategy = DTAStrategy(travel=instance.travel)
        platform = SCPlatform(instance, strategy)
        first = platform.run().deterministic_state()
        engine = strategy.planner._engine
        assert engine._worker_entries and engine._task_refs
        platform.close()
        assert not engine._worker_entries and not engine._components
        assert not engine._task_refs and not engine._task_owners
        assert not engine._component_list and not engine._holders
        # A closed platform runs again, from a cold cache, to the same result.
        assert platform.run().deterministic_state() == first

    def test_predicted_tasks_guide_but_do_not_count(self):
        travel = EuclideanTravelModel(speed=1.0)
        worker = Worker(1, Point(0, 0), 5.0, 0.0, 100.0)
        real = Task(1, Point(1, 0), 0.0, 50.0)
        predicted = Task(900, Point(2, 0), 0.0, 50.0, predicted=True)
        instance = ATAInstance([worker], [real], travel=travel, name="predicted")
        strategy = DTAPlusTPStrategy(
            travel=travel, predicted_task_provider=lambda now: [predicted]
        )
        metrics = SCPlatform(instance, strategy).run()
        assert metrics.assigned_tasks == 1   # only the real task counts
        assert metrics.dispatched_tasks == 1
        assert metrics.assigned_per_worker == {1: 1}


class TestRunner:
    def test_compare_strategies(self, tiny_workload):
        runner = SimulationRunner(
            tiny_workload.instance,
            platform_config=PlatformConfig(replan_interval=60.0),
            planner_config=PlannerConfig(max_reachable=5, max_sequence_length=2, node_budget=2000),
        )
        reports = runner.compare(["Greedy", "DTA"])
        assert [r.strategy for r in reports] == ["Greedy", "DTA"]
        for report in reports:
            assert isinstance(report, SimulationReport)
            assert 0 <= report.assigned_tasks <= tiny_workload.instance.num_tasks
            assert report.mean_cpu_time >= 0.0

    def test_dta_not_worse_than_greedy(self, tiny_workload):
        runner = SimulationRunner(
            tiny_workload.instance,
            platform_config=PlatformConfig(replan_interval=60.0),
            planner_config=PlannerConfig(max_reachable=5, max_sequence_length=2, node_budget=2000),
        )
        greedy = runner.run_strategy("Greedy")
        dta = runner.run_strategy("DTA")
        # The search-based method must not lose to the myopic baseline by
        # more than a whisker on the same instance.
        assert dta.assigned_tasks >= greedy.assigned_tasks * 0.9

    def test_strategy_instance_can_be_passed_directly(self, tiny_workload):
        runner = SimulationRunner(tiny_workload.instance)
        report = runner.run_strategy(GreedyStrategy(travel=tiny_workload.instance.travel))
        assert report.strategy == "Greedy"
