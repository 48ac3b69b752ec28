"""End-to-end integration tests across the full DATA-WA pipeline."""

import numpy as np
import pytest

from repro.assignment.planner import PlannerConfig
from repro.core.assignment import Assignment
from repro.demand.ddgnn import DDGNN
from repro.demand.predictor import DemandPredictor
from repro.demand.timeseries import build_time_series, sliding_windows
from repro.demand.training import DemandTrainer
from repro.simulation.platform import PlatformConfig
from repro.simulation.runner import SimulationRunner
from repro.spatial.grid import GridSpec


class TestPaperRunningExample:
    """Sanity checks against the Fig. 1 running example."""

    def test_fta_style_plan_reaches_at_least_four_tasks(self, paper_example_instance):
        from repro.assignment.planner import TaskPlanner

        instance = paper_example_instance
        planner = TaskPlanner(PlannerConfig(max_sequence_length=2), travel=instance.travel)
        assignment = planner.plan(
            instance.workers[:2],
            [t for t in instance.tasks if t.publication_time <= 1.0],
            now=1.0,
        ).assignment
        # The paper's FTA assigns (s1, s3) and (s2, s4): four tasks at t=1.
        assert assignment.num_assigned_tasks >= 4
        assert instance.validate_assignment(assignment, now=1.0) == []

    def test_adaptive_simulation_beats_fta_count_from_paper(self, paper_example_instance):
        """DATA-WA's adaptive replanning assigns more than FTA's five tasks."""
        instance = paper_example_instance
        runner = SimulationRunner(
            instance,
            platform_config=PlatformConfig(replan_interval=0.0),
            planner_config=PlannerConfig(max_reachable=9, max_sequence_length=3, node_budget=20000),
        )
        dta = runner.run_strategy("DTA")
        assert dta.assigned_tasks >= 5


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datasets.yueche import generate_yueche

        return generate_yueche(scale=0.02, seed=5)

    def test_prediction_to_assignment_pipeline(self, workload):
        """Train DDGNN on history, materialise predicted tasks, run DATA-WA."""
        grid = GridSpec(workload.city.bounds, rows=4, cols=4)
        all_tasks = workload.historical_tasks + workload.instance.tasks
        end = workload.config.history_horizon + workload.config.horizon
        series = build_time_series(all_tasks, grid, 0.0, end, delta_t=60.0, k=3)
        history = 4
        inputs, targets = sliding_windows(series, history=history)

        model = DDGNN(num_cells=grid.num_cells, k=3, history=history, hidden=8, seed=0)
        trainer = DemandTrainer(model, epochs=2, seed=0)
        result = trainer.fit(inputs, targets)
        assert result.epochs_run >= 1

        predictor = DemandPredictor(model, grid, delta_t=60.0, threshold=0.85,
                                    task_valid_duration=workload.config.task_valid_time)
        predicted = predictor.predict_tasks(series.values[-history:], end, start_task_id=9_000_000)
        assert all(task.predicted for task in predicted)

        runner = SimulationRunner(
            workload.instance,
            platform_config=PlatformConfig(replan_interval=60.0),
            planner_config=PlannerConfig(max_reachable=5, max_sequence_length=2, node_budget=2000),
            predicted_tasks=predicted,
        )
        report = runner.run_strategy("DATA-WA")
        assert 0 < report.assigned_tasks <= workload.instance.num_tasks
        assert report.mean_cpu_time >= 0.0

    def test_all_five_strategies_complete_and_report(self, workload):
        runner = SimulationRunner(
            workload.instance,
            platform_config=PlatformConfig(replan_interval=60.0),
            planner_config=PlannerConfig(max_reachable=5, max_sequence_length=2, node_budget=2000),
        )
        reports = runner.compare(["Greedy", "FTA", "DTA", "DTA+TP", "DATA-WA"])
        assert len(reports) == 5
        counts = {report.strategy: report.assigned_tasks for report in reports}
        # All methods assign a meaningful share of tasks and never exceed the total.
        for strategy, assigned in counts.items():
            assert 0 < assigned <= workload.instance.num_tasks, strategy
        # Search-based replanning should not lose badly to the myopic baseline.
        assert counts["DTA"] >= counts["Greedy"] * 0.85

    def test_assignments_never_duplicate_tasks(self, workload):
        """Platform-level invariant: a task is dispatched at most once."""
        from repro.assignment.strategies import DTAStrategy
        from repro.simulation.platform import SCPlatform

        platform = SCPlatform(
            workload.instance,
            DTAStrategy(config=PlannerConfig(max_reachable=5, max_sequence_length=2),
                        travel=workload.instance.travel),
            PlatformConfig(replan_interval=60.0),
        )
        metrics = platform.run()
        assert metrics.dispatched_tasks == metrics.assigned_tasks
        assert metrics.assigned_tasks == len(platform._assigned_ids)
        assert metrics.assigned_tasks <= workload.instance.num_tasks


class TestPublicAPI:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet(self):
        """The README quickstart must keep working."""
        from repro import (
            ATAInstance, PlannerConfig, SimulationRunner, Task, Worker, Point,
        )
        from repro.spatial.travel import EuclideanTravelModel

        workers = [Worker(worker_id=1, location=Point(0, 0), reachable_distance=2.0,
                          on_time=0.0, off_time=100.0)]
        tasks = [Task(task_id=1, location=Point(1, 0), publication_time=0.0, expiration_time=50.0)]
        instance = ATAInstance(workers, tasks, travel=EuclideanTravelModel(speed=1.0))
        report = SimulationRunner(instance).run_strategy("DATA-WA")
        assert report.assigned_tasks == 1
