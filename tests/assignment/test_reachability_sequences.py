"""Tests for reachable-task computation and maximal valid sequence generation."""

import pytest

from repro.assignment.reachability import (
    is_reachable,
    reachable_tasks,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.task import Task
from repro.core.worker import AvailabilityWindow, Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel


class TestReachability:
    def test_constraint_i_expiration(self, simple_worker, unit_travel):
        soon = Task(1, Point(4, 0), 0.0, 3.0)   # travel 4 > remaining 3
        ok = Task(2, Point(2, 0), 0.0, 3.0)
        assert not is_reachable(simple_worker, soon, 0.0, unit_travel)
        assert is_reachable(simple_worker, ok, 0.0, unit_travel)

    def test_constraint_ii_availability_window(self, unit_travel):
        worker = Worker(
            1, Point(0, 0), 10.0, on_time=0.0, off_time=100.0,
            windows=(AvailabilityWindow(0.0, 3.0),),
        )
        far = Task(1, Point(5, 0), 0.0, 100.0)   # travel 5 > window 3
        near = Task(2, Point(2, 0), 0.0, 100.0)
        assert not is_reachable(worker, far, 0.0, unit_travel)
        assert is_reachable(worker, near, 0.0, unit_travel)

    def test_constraint_iii_reachable_distance(self, unit_travel):
        worker = Worker(1, Point(0, 0), 1.0, 0.0, 100.0)
        assert not is_reachable(worker, Task(1, Point(3, 0), 0.0, 100.0), 0.0, unit_travel)

    def test_expired_task_not_reachable(self, simple_worker, unit_travel):
        expired = Task(1, Point(1, 0), 0.0, 5.0)
        assert not is_reachable(simple_worker, expired, 6.0, unit_travel)

    def test_reachable_tasks_cap_keeps_nearest(self, simple_worker, unit_travel):
        tasks = [Task(i, Point(float(i), 0.0), 0.0, 100.0) for i in range(1, 5)]
        found = reachable_tasks(simple_worker, tasks, 0.0, unit_travel, max_tasks=2)
        assert [t.task_id for t in found] == [1, 2]


class TestMaximalValidSequences:
    def test_sequences_are_valid_and_nonempty(self, simple_worker, nearby_tasks, unit_travel):
        sequences = maximal_valid_sequences(simple_worker, nearby_tasks, 0.0, unit_travel, max_length=3)
        assert sequences
        for sequence in sequences:
            assert len(sequence) >= 1
            assert sequence.is_valid(0.0, unit_travel)

    def test_maximality_no_subset_pairs(self, simple_worker, nearby_tasks, unit_travel):
        sequences = maximal_valid_sequences(simple_worker, nearby_tasks, 0.0, unit_travel, max_length=3)
        signatures = [frozenset(sequence.task_ids) for sequence in sequences]
        for a in signatures:
            for b in signatures:
                assert not (a < b), "a maximal sequence must not be a strict subset of another"

    def test_full_set_reachable_gives_full_sequence(self, simple_worker, nearby_tasks, unit_travel):
        sequences = maximal_valid_sequences(simple_worker, nearby_tasks, 0.0, unit_travel, max_length=3)
        assert max(len(sequence) for sequence in sequences) == 3

    def test_max_length_bound(self, simple_worker, nearby_tasks, unit_travel):
        sequences = maximal_valid_sequences(simple_worker, nearby_tasks, 0.0, unit_travel, max_length=1)
        assert all(len(sequence) == 1 for sequence in sequences)

    def test_no_reachable_tasks_gives_empty_list(self, unit_travel):
        worker = Worker(1, Point(0, 0), 0.5, 0.0, 10.0)
        tasks = [Task(1, Point(5, 5), 0.0, 10.0)]
        assert maximal_valid_sequences(worker, tasks, 0.0, unit_travel) == []

    def test_max_sequences_bound(self, simple_worker, unit_travel):
        tasks = [Task(i, Point(0.1 * i, 0.0), 0.0, 1000.0) for i in range(1, 10)]
        sequences = maximal_valid_sequences(
            simple_worker, tasks, 0.0, unit_travel, max_length=3, max_sequences=5
        )
        assert len(sequences) <= 5

    def test_invalid_max_length(self, simple_worker, nearby_tasks):
        with pytest.raises(ValueError):
            maximal_valid_sequences(simple_worker, nearby_tasks, 0.0, max_length=0)

    def test_eq10_minimum_completion_order(self, simple_worker, unit_travel):
        """For the same task set, the returned order has minimal completion time."""
        a = Task(1, Point(1, 0), 0.0, 100.0)
        b = Task(2, Point(2, 0), 0.0, 100.0)
        sequences = maximal_valid_sequences(simple_worker, [a, b], 0.0, unit_travel, max_length=2)
        both = [sequence for sequence in sequences if len(sequence) == 2]
        assert both
        assert both[0].task_ids == (1, 2)
        assert both[0].completion_time(0.0, unit_travel) == pytest.approx(2.0)

    def test_eq10_respects_deadlines_over_distance(self, simple_worker, unit_travel):
        # Serving the relaxed task first would miss the urgent deadline, so
        # the only valid ordering of the pair starts with the urgent task.
        urgent = Task(1, Point(2, 0), 0.0, 2.2)
        relaxed = Task(2, Point(1.5, 2), 0.0, 100.0)
        sequences = maximal_valid_sequences(
            simple_worker, [urgent, relaxed], 0.0, unit_travel, max_length=2
        )
        assert [sequence.task_ids for sequence in sequences] == [(1, 2)]
        assert sequences[0].is_valid(0.0, unit_travel)
