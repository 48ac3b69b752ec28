"""Tests for DFSearch (Alg. 1, the plain oracle of ``reference_search.py``),
the TVF (Eq. 11-12) and DFSearch_TVF (Alg. 2)."""

import numpy as np
import pytest
from reference_search import dfsearch

from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.fast_partition import build_adjacency, build_partition_tree_fast
from repro.assignment.reachability import reachable_tasks
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.tree import PartitionNode
from repro.assignment.tvf import FEATURE_DIM, TaskValueFunction, featurize_actions_batch
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)


def build_problem(workers, tasks, now=0.0, max_length=2):
    """Reachability + sequences + partition tree for a hand-built problem."""
    reachable = {
        w.worker_id: reachable_tasks(w, tasks, now, TRAVEL) for w in workers
    }
    sequences = {
        w.worker_id: maximal_valid_sequences(w, reachable[w.worker_id], now, TRAVEL, max_length=max_length)
        for w in workers
    }
    tree = build_partition_tree_fast(build_adjacency(reachable))
    workers_by_id = {w.worker_id: w for w in workers}
    return tree, sequences, workers_by_id


def collect_experience(node, tasks, sequences, workers_by_id):
    """The ``(state, action, opt)`` tuples ``U`` of one exact search."""
    return dfsearch(
        node, tasks, sequences, workers_by_id, collect_experience=True
    ).experience


class TestDFSearch:
    def test_single_worker_takes_all_reachable_tasks(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(1, Point(1, 0), 0.0, 100.0), Task(2, Point(2, 0), 0.0, 100.0)]
        tree, sequences, workers_by_id = build_problem([worker], tasks)
        result = dfsearch(tree.roots[0], tasks, sequences, workers_by_id)
        assert result.opt == 2

    def test_two_workers_sharing_tasks_avoid_conflicts(self):
        """Two workers, two tasks each reachable by both: optimum is 2, one each."""
        w1 = Worker(1, Point(0, 0), 5.0, 0.0, 100.0)
        w2 = Worker(2, Point(0, 1), 5.0, 0.0, 100.0)
        tasks = [Task(1, Point(1, 0), 0.0, 2.5), Task(2, Point(1, 1), 0.0, 2.5)]
        tree, sequences, workers_by_id = build_problem([w1, w2], tasks, max_length=1)
        total = 0
        for root in tree.roots:
            result = dfsearch(root, tasks, sequences, workers_by_id)
            total += result.opt
            mapping = result.as_assignment_map()
            assigned = [tid for ids in mapping.values() for tid in ids]
            assert len(assigned) == len(set(assigned)), "a task must be assigned once"
        assert total == 2

    def test_greedy_suboptimal_case_solved_exactly(self):
        """DFSearch must beat the myopic choice.

        Worker A can serve either the contested task or a private one;
        worker B can only serve the contested task.  Optimal = 2.
        """
        a = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        b = Worker(2, Point(10, 0), 2.0, 0.0, 100.0)
        contested = Task(1, Point(9, 0), 0.0, 100.0)
        private = Task(2, Point(1, 0), 0.0, 2.0)
        tree, sequences, workers_by_id = build_problem([a, b], [contested, private], max_length=1)
        total = sum(
            dfsearch(root, [contested, private], sequences, workers_by_id).opt for root in tree.roots
        )
        assert total == 2

    def test_selections_match_opt(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(i, Point(i * 0.5, 0), 0.0, 100.0) for i in range(1, 4)]
        tree, sequences, workers_by_id = build_problem([worker], tasks, max_length=3)
        result = dfsearch(tree.roots[0], tasks, sequences, workers_by_id)
        assigned = sum(len(ids) for ids in result.as_assignment_map().values())
        assert assigned == result.opt == 3

    def test_node_budget_degrades_gracefully(self):
        workers = [Worker(i, Point(0, i * 0.1), 10.0, 0.0, 100.0) for i in range(1, 5)]
        tasks = [Task(i, Point(1, i * 0.1), 0.0, 100.0) for i in range(1, 9)]
        tree, sequences, workers_by_id = build_problem(workers, tasks, max_length=2)
        result = dfsearch(tree.roots[0], tasks, sequences, workers_by_id, node_budget=5)
        assert result.opt >= 0
        assert result.nodes_expanded <= 50  # small because the budget cuts exploration

    def test_experience_collection(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(1, Point(1, 0), 0.0, 100.0), Task(2, Point(2, 0), 0.0, 100.0)]
        tree, sequences, workers_by_id = build_problem([worker], tasks)
        experience = collect_experience(tree.roots[0], tasks, sequences, workers_by_id)
        assert experience
        for state, action, value in experience:
            assert value >= 1.0
            assert "num_workers" in state and "task_ids" in action


class TestTVF:
    def _experience(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(i, Point(i * 0.7, 0), 0.0, 100.0) for i in range(1, 5)]
        tree, sequences, workers_by_id = build_problem([worker], tasks, max_length=2)
        experience = collect_experience(tree.roots[0], tasks, sequences, workers_by_id)
        return experience, workers_by_id, {t.task_id: t for t in tasks}

    def test_featurize_dimension(self):
        experience, workers_by_id, tasks_by_id = self._experience()
        state, action, _ = experience[0]
        features = featurize_actions_batch(state, [action], workers_by_id, tasks_by_id)
        assert features.shape == (1, FEATURE_DIM)
        assert np.isfinite(features).all()

    def test_featurize_handles_unknown_ids(self):
        features = featurize_actions_batch(
            {"num_workers": 1, "num_tasks": 1, "task_ids": (999,)},
            [{"worker_id": 123, "task_ids": (999,), "sequence_length": 1}],
            {},
            {},
        )
        assert features.shape == (1, FEATURE_DIM)
        assert np.isfinite(features).all()

    def test_fit_reduces_loss_and_sets_flag(self):
        experience, workers_by_id, tasks_by_id = self._experience()
        tvf = TaskValueFunction(hidden=16, learning_rate=0.01, seed=0)
        assert not tvf.is_fitted
        losses = tvf.fit(experience, workers_by_id, tasks_by_id, epochs=15)
        assert tvf.is_fitted
        assert losses[-1] <= losses[0]

    def test_fit_rejects_empty_experience(self):
        tvf = TaskValueFunction()
        with pytest.raises(ValueError):
            tvf.fit([], {}, {})

    def test_fitted_values_track_exact_optima(self):
        """After training, TVF predictions must correlate with the exact
        DFSearch values they were fitted on (the Eq. 12 regression target)."""
        experience, workers_by_id, tasks_by_id = self._experience()
        tvf = TaskValueFunction(hidden=16, learning_rate=0.02, seed=0)
        tvf.fit(experience, workers_by_id, tasks_by_id, epochs=60)
        predictions = np.array(
            [
                tvf.values(state, [action], workers_by_id, tasks_by_id)[0]
                for state, action, _ in experience
            ]
        )
        targets = np.array([value for _, _, value in experience])
        if np.std(targets) < 1e-9:
            # All optima identical: predictions should at least be close.
            assert np.allclose(predictions, targets, atol=1.0)
        else:
            correlation = np.corrcoef(predictions, targets)[0, 1]
            assert correlation > 0.3

    def test_values_empty_action_list(self):
        tvf = TaskValueFunction()
        assert tvf.values({}, [], {}, {}).size == 0


class TestDFSearchTVF:
    def test_matches_exact_search_on_simple_instance(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(1, Point(1, 0), 0.0, 100.0), Task(2, Point(2, 0), 0.0, 100.0)]
        tree, sequences, workers_by_id = build_problem([worker], tasks)
        tasks_by_id = {t.task_id: t for t in tasks}
        experience = collect_experience(tree.roots[0], tasks, sequences, workers_by_id)
        tvf = TaskValueFunction(seed=0)
        tvf.fit(experience, workers_by_id, tasks_by_id, epochs=30)
        exact = dfsearch(tree.roots[0], tasks, sequences, workers_by_id)
        guided = dfsearch_tvf(tree.roots[0], tasks, sequences, workers_by_id, tvf)
        assert guided.opt == exact.opt == 2

    def test_untrained_fallback_picks_longest_sequence(self):
        """The untrained-TVF fallback is documented as "longest / earliest"
        — it must select by length even when the candidate list is not
        pre-sorted (regression: it used to take ``candidates[0]``)."""
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(i, Point(i * 0.5, 0), 0.0, 100.0) for i in range(1, 4)]
        node = PartitionNode(workers=[1])
        # Shortest first: a candidates[0] fallback would assign one task.
        sequences = {
            1: [
                TaskSequence(worker, (tasks[0],)),
                TaskSequence(worker, (tasks[2], tasks[1])),
                TaskSequence(worker, (tasks[0], tasks[1], tasks[2])),
                TaskSequence(worker, (tasks[1], tasks[2])),
            ]
        }
        tvf = TaskValueFunction(seed=0)
        assert not tvf.is_fitted
        result = dfsearch_tvf(node, tasks, sequences, {1: worker}, tvf)
        assert result.as_assignment_map() == {1: (1, 2, 3)}
        assert result.opt == 3

    def test_untrained_fallback_breaks_ties_earliest(self):
        """Equal-length candidates: the earliest in candidate order wins."""
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        tasks = [Task(i, Point(i * 0.5, 0), 0.0, 100.0) for i in range(1, 4)]
        node = PartitionNode(workers=[1])
        sequences = {
            1: [
                TaskSequence(worker, (tasks[1], tasks[0])),
                TaskSequence(worker, (tasks[0], tasks[2])),
            ]
        }
        tvf = TaskValueFunction(seed=0)
        result = dfsearch_tvf(node, tasks, sequences, {1: worker}, tvf)
        assert result.as_assignment_map() == {1: (2, 1)}

    def test_no_duplicate_assignments(self):
        workers = [Worker(i, Point(0, i * 0.2), 10.0, 0.0, 100.0) for i in range(1, 4)]
        tasks = [Task(i, Point(1, i * 0.2), 0.0, 100.0) for i in range(1, 6)]
        tree, sequences, workers_by_id = build_problem(workers, tasks, max_length=2)
        tvf = TaskValueFunction(seed=0)  # unfitted: falls back to heuristic choice
        total_ids = []
        for root in tree.roots:
            result = dfsearch_tvf(root, tasks, sequences, workers_by_id, tvf)
            for _, ids in result.selections:
                total_ids.extend(ids)
        assert len(total_ids) == len(set(total_ids))

    def test_expands_linearly_in_workers(self):
        workers = [Worker(i, Point(0, i * 0.2), 10.0, 0.0, 100.0) for i in range(1, 6)]
        tasks = [Task(i, Point(1, i * 0.2), 0.0, 100.0) for i in range(1, 8)]
        tree, sequences, workers_by_id = build_problem(workers, tasks, max_length=2)
        tvf = TaskValueFunction(seed=0)
        expanded = sum(
            dfsearch_tvf(root, tasks, sequences, workers_by_id, tvf).nodes_expanded
            for root in tree.roots
        )
        # One expansion per worker plus one per tree node visit: far below
        # the exponential exact search.
        assert expanded <= 3 * (len(workers) + 5)
