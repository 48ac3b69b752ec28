"""Tests for the TPA planner (Alg. 4), the Greedy baseline and the strategies."""

import pytest

from repro.assignment.baselines import greedy_assignment
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.strategies import (
    DataWAStrategy,
    DTAPlusTPStrategy,
    DTAStrategy,
    FTAStrategy,
    GreedyStrategy,
    make_strategy,
)
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

from reference_pipeline import reference_plan

TRAVEL = EuclideanTravelModel(speed=1.0)


@pytest.fixture
def two_cluster_problem():
    """Two spatial clusters of workers/tasks with no cross-reachability."""
    workers = [
        Worker(1, Point(0, 0), 3.0, 0.0, 100.0),
        Worker(2, Point(1, 0), 3.0, 0.0, 100.0),
        Worker(3, Point(50, 50), 3.0, 0.0, 100.0),
    ]
    tasks = [
        Task(1, Point(0.5, 0.5), 0.0, 50.0),
        Task(2, Point(1.5, 0.5), 0.0, 50.0),
        Task(3, Point(0.5, 1.5), 0.0, 50.0),
        Task(4, Point(50.5, 50.5), 0.0, 50.0),
        Task(5, Point(51.0, 50.0), 0.0, 50.0),
    ]
    return workers, tasks


class TestGreedyBaseline:
    def test_greedy_respects_single_assignment(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        assignment = greedy_assignment(workers, tasks, 0.0, TRAVEL)
        assigned = [t.task_id for plan in assignment for t in plan.sequence]
        assert len(assigned) == len(set(assigned))
        assert assignment.num_assigned_tasks == 5

    def test_greedy_sequences_are_valid(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        assignment = greedy_assignment(workers, tasks, 0.0, TRAVEL)
        for plan in assignment:
            assert plan.sequence.is_valid(0.0, TRAVEL)

    def test_greedy_empty_inputs(self):
        assert greedy_assignment([], [], 0.0, TRAVEL).num_assigned_tasks == 0


class TestTaskPlanner:
    def test_plan_assigns_everything_on_easy_instance(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        planner = TaskPlanner(PlannerConfig(max_sequence_length=3), travel=TRAVEL)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.assignment.num_assigned_tasks == 5
        assert outcome.planned_tasks == 5
        assert outcome.num_components >= 2   # the two clusters are independent

    def test_scalar_oracle_covers_both_clusters(self, two_cluster_problem):
        # The oracle the planner is held to, against a hand-known optimum.
        workers, tasks = two_cluster_problem
        reference = reference_plan(workers, tasks, 0.0, TRAVEL)
        assert reference.complete and reference.planned_tasks == 5
        assert reference.num_components == 2

    def test_plan_empty_inputs(self):
        planner = TaskPlanner(travel=TRAVEL)
        assert planner.plan([], [], 0.0).planned_tasks == 0

    def test_plan_sequences_are_valid(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        planner = TaskPlanner(PlannerConfig(max_sequence_length=2), travel=TRAVEL)
        outcome = planner.plan(workers, tasks, 0.0)
        for plan in outcome.assignment:
            assert plan.sequence.is_valid(0.0, TRAVEL)

    def test_no_partition_ablation_matches_partitioned_result(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        with_partition = TaskPlanner(PlannerConfig(use_partition=True), travel=TRAVEL)
        without_partition = TaskPlanner(PlannerConfig(use_partition=False), travel=TRAVEL)
        a = with_partition.plan(workers, tasks, 0.0).assignment.num_assigned_tasks
        b = without_partition.plan(workers, tasks, 0.0).assignment.num_assigned_tasks
        assert a == b == 5

    def test_expired_tasks_ignored(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        planner = TaskPlanner(travel=TRAVEL)
        outcome = planner.plan(workers, tasks, now=60.0)   # all tasks expired at 50
        assert outcome.planned_tasks == 0

    def test_train_tvf_produces_fitted_function(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        planner = TaskPlanner(PlannerConfig(use_tvf=True), travel=TRAVEL)
        losses = planner.train_tvf(workers, tasks, 0.0, epochs=5)
        assert planner.tvf.is_fitted
        assert losses

    def test_tvf_guided_plan_close_to_exact(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        planner = TaskPlanner(PlannerConfig(use_tvf=True), travel=TRAVEL)
        planner.train_tvf(workers, tasks, 0.0, epochs=5)
        outcome = planner.plan(workers, tasks, 0.0)
        # Guided search is greedy per worker: allow a small gap from 5.
        assert outcome.planned_tasks >= 4


class TestStrategies:
    def test_factory_names(self):
        for name, cls in [
            ("Greedy", GreedyStrategy),
            ("FTA", FTAStrategy),
            ("DTA", DTAStrategy),
            ("DTA+TP", DTAPlusTPStrategy),
            ("DATA-WA", DataWAStrategy),
        ]:
            assert isinstance(make_strategy(name, travel=TRAVEL), cls)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("bogus")

    def test_dta_plan_is_assignment(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        strategy = DTAStrategy(travel=TRAVEL)
        plan = strategy.plan(workers, tasks, 0.0)
        assert plan.num_assigned_tasks == 5

    def test_fta_freezes_sequences(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        strategy = FTAStrategy(travel=TRAVEL)
        first = strategy.plan(workers, tasks, 0.0)
        assert first.num_assigned_tasks == 5
        # A new, better task appears: workers that still hold a frozen
        # sequence must keep it unchanged (no re-optimisation), even though
        # workers with nothing left may pick the new task up.
        new_task = Task(99, Point(0.2, 0.2), 1.0, 50.0)
        second = strategy.plan(workers, tasks + [new_task], 1.0)
        for worker_plan in first:
            refreshed = second.plan_for(worker_plan.worker.worker_id)
            if refreshed is None:
                continue
            assert set(refreshed.task_ids) <= set(worker_plan.task_ids)

    def test_fta_reassigns_after_sequence_finished(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        strategy = FTAStrategy(travel=TRAVEL)
        strategy.plan(workers, tasks, 0.0)
        plan = strategy.plan_for_test = strategy.plan(workers, tasks, 0.0)
        # Simulate execution of every planned task for worker 1.
        for planned in plan:
            if planned.worker.worker_id == 1:
                for task in planned.sequence:
                    strategy.notify_dispatch(1, task.task_id)
        fresh_task = Task(100, Point(0.1, 0.1), 2.0, 80.0)
        refreshed = strategy.plan([workers[0]], [fresh_task], 2.0)
        assert refreshed.num_assigned_tasks == 1

    def test_dta_tp_includes_predicted_tasks(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        predicted = Task(500, Point(0.4, 0.4), 0.0, 50.0, predicted=True)
        strategy = DTAPlusTPStrategy(travel=TRAVEL, predicted_task_provider=lambda now: [predicted])
        plan = strategy.plan(workers, tasks, 0.0)
        planned_ids = {t.task_id for p in plan for t in p.sequence}
        # The predicted task may be planned (it guides positioning).
        assert planned_ids   # non-empty plan
        assert plan.num_assigned_tasks >= 5 or 500 in planned_ids

    def test_data_wa_trains_tvf_lazily(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        strategy = DataWAStrategy(travel=TRAVEL, tvf_training_epochs=3)
        assert not strategy.planner.tvf.is_fitted
        plan = strategy.plan(workers, tasks, 0.0)
        assert strategy.planner.tvf.is_fitted
        assert plan.num_assigned_tasks >= 4

    def test_data_wa_leaves_shared_config_untouched(self):
        # One config handed to two strategies: DATA-WA turns the TVF on for
        # itself only, so the DTA built afterwards stays an exact planner.
        config = PlannerConfig()
        data_wa = make_strategy("DATA-WA", config=config)
        dta = make_strategy("DTA", config=config)
        assert data_wa.planner.config.use_tvf
        assert not config.use_tvf
        assert not dta.planner.config.use_tvf
        assert dta.planner.tvf is None

    def test_greedy_strategy_wraps_baseline(self, two_cluster_problem):
        workers, tasks = two_cluster_problem
        plan = GreedyStrategy(travel=TRAVEL).plan(workers, tasks, 0.0)
        assert plan.num_assigned_tasks == 5
