"""Asymmetric / non-metric travel times through the planning stack.

The Euclidean suite never exercises ``c(a, b) != c(b, a)`` or triangle
violations, yet nothing in reachability, sequence enumeration, horizon
caching or the incremental engine's dirty balls is *supposed* to depend on
those properties — only on travel costs being static per ordered pair.
These tests pin that down with the suite's two shared adversarial models
(``tests/spatial/conformance.py``):

* :class:`AsymmetricTimeModel` — Euclidean distances but direction- and
  pair-dependent times with explicit triangle-inequality violations (the
  default ``reach_bound`` stays valid because distances still dominate the
  straight line);
* :class:`ShortcutModel` — travel distances *below* the Euclidean
  distance, whose overridden ``reach_bound`` (infinite) must keep the
  dirty-ball machinery sound by degrading it to full recomputation.

Protocol-level identity checks (scalar vs matrix, TravelMatrix) live in
the shared conformance suite; this file keeps the *planning-stack*
behaviours: reachability/sequence path equivalence, horizons and the
incremental engine's dirty-ball soundness.
"""

import math
import random

import pytest

from conformance import (
    AsymmetricTimeModel,
    ShortcutModel,
    check_travel_matrix_identity,
)
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import (
    reachable_tasks,
    reachable_tasks_with_horizon,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel_matrix import TravelMatrix

from reference_pipeline import assert_planner_matches_oracle


def random_instance(rng, max_workers=8, max_tasks=30):
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            rng.uniform(0.5, 3.0),
            0.0,
            rng.uniform(5, 50),
        )
        for i in range(rng.randint(1, max_workers))
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, rng.uniform(1, 40))
        for j in range(rng.randint(1, max_tasks))
    ]
    return workers, tasks


class TestModelProperties:
    def test_times_are_asymmetric_and_non_metric(self):
        model = AsymmetricTimeModel(speed=1.0)
        rng = random.Random(0)
        points = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)]
        assert any(
            model.time(a, b) != model.time(b, a) for a in points for b in points if a != b
        )
        violations = sum(
            1
            for a in points
            for b in points
            for c in points
            if a != b and b != c and a != c
            and model.time(a, c) > model.time(a, b) + model.time(b, c) + 1e-12
        )
        assert violations > 0  # the triangle inequality genuinely fails


class TestScalarMatrixEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_fallback_is_bit_identical(self, seed):
        """A model without a vectorized kernel must plan through the cached
        scalar fallback with identical floats everywhere."""
        model = AsymmetricTimeModel(speed=1.3)
        rng = random.Random(300 + seed)
        workers, tasks = random_instance(rng)
        check_travel_matrix_identity(model, workers, tasks)
        matrix = TravelMatrix(workers, tasks, model)
        now = rng.uniform(0.0, 2.0)
        for worker in workers:
            scalar = reachable_tasks(worker, tasks, now, model, max_tasks=8)
            from repro.assignment.reachability import reachable_tasks_matrix

            vector = reachable_tasks_matrix(worker, tasks, now, matrix, max_tasks=8)
            assert [t.task_id for t in scalar] == [t.task_id for t in vector]

    @pytest.mark.parametrize("seed", range(6))
    def test_sequences_match_under_asymmetry(self, seed, monkeypatch):
        import repro.assignment.sequences as seq_mod

        monkeypatch.setattr(seq_mod, "_MATRIX_MIN_TASKS", 0)
        model = AsymmetricTimeModel(speed=1.0)
        rng = random.Random(400 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        matrix = TravelMatrix(workers, tasks, model)
        for worker in workers:
            reachable = reachable_tasks(worker, tasks, now, model, max_tasks=8)
            scalar = maximal_valid_sequences(
                worker, reachable, now, model, max_length=3, max_sequences=16
            )
            vector = maximal_valid_sequences(
                worker, reachable, now, model,
                max_length=3, max_sequences=16, matrix=matrix,
            )
            assert [s.task_ids for s in scalar] == [s.task_ids for s in vector]


class TestHorizonsUnderAsymmetry:
    """Validity horizons only assume static per-pair costs — triangle
    violations must not produce a horizon inside which the output moves."""

    @pytest.mark.parametrize("seed", range(10))
    def test_reachability_constant_inside_horizon(self, seed):
        model = AsymmetricTimeModel(speed=1.0)
        rng = random.Random(500 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        for worker in workers:
            capped, _, horizon = reachable_tasks_with_horizon(
                worker, tasks, now, model, max_tasks=8
            )
            if not math.isfinite(horizon) or horizon <= now:
                continue
            for fraction in (0.3, 0.9, 0.999):
                probe = now + (horizon - now) * fraction
                reference = reachable_tasks(worker, tasks, probe, model, max_tasks=8)
                assert [t.task_id for t in reference] == [t.task_id for t in capped]

    @pytest.mark.parametrize("seed", range(10))
    def test_sequences_constant_inside_horizon(self, seed):
        model = AsymmetricTimeModel(speed=1.0)
        rng = random.Random(600 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        for worker in workers:
            reachable = reachable_tasks(worker, tasks, now, model, max_tasks=8)
            box = []
            sequences = maximal_valid_sequences(
                worker, reachable, now, model,
                max_length=3, max_sequences=16, horizon_out=box,
            )
            horizon = box[0]
            if not math.isfinite(horizon) or horizon <= now:
                continue
            signature = [s.task_ids for s in sequences]
            for fraction in (0.4, 0.95):
                probe = now + (horizon - now) * fraction
                again = maximal_valid_sequences(
                    worker, reachable, probe, model, max_length=3, max_sequences=16
                )
                assert [s.task_ids for s in again] == signature


def _outcome_signature(outcome):
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
    )


class TestIncrementalSoundness:
    """Dirty-ball soundness: incremental == full on evolving streams for
    both adversarial models (with and without a usable reach bound)."""

    @pytest.mark.parametrize(
        "model_factory", [AsymmetricTimeModel, ShortcutModel], ids=["asym", "shortcut"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_stream_matches_full_replan(self, seed, model_factory):
        model = model_factory(speed=1.0)
        rng = random.Random(700 + seed)
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                rng.uniform(0.5, 3.0),
                0.0,
                rng.uniform(5, 50),
            )
            for i in range(rng.randint(2, 8))
        }
        tasks = {
            100 + j: Task(
                100 + j,
                Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                0.0,
                rng.uniform(1, 40),
            )
            for j in range(rng.randint(5, 25))
        }
        incremental = TaskPlanner(PlannerConfig(travel_model=model))
        full = TaskPlanner(PlannerConfig(travel_model=model))
        now = 0.0
        next_tid = 1000
        for _ in range(15):
            snapshot_workers = [w for _, w in sorted(workers.items())]
            snapshot_tasks = [t for _, t in sorted(tasks.items())]
            a = incremental.plan(snapshot_workers, snapshot_tasks, now)
            full.reset_cache()
            b = full.plan(snapshot_workers, snapshot_tasks, now)
            assert _outcome_signature(a) == _outcome_signature(b)
            event = rng.random()
            if event < 0.3 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.6:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    now,
                    now + rng.uniform(1, 40),
                )
                next_tid += 1
            elif workers:
                wid = rng.choice(sorted(workers))
                workers[wid] = workers[wid].moved_to(
                    Point(rng.uniform(0, 10), rng.uniform(0, 10))
                )
            now += rng.uniform(0.0, 1.5)

    def test_infinite_reach_bound_scans_everything(self):
        """Under an infinite reach bound no Euclidean ball narrows anything:
        tasks far outside the worker's straight-line reach are still
        candidates."""
        model = ShortcutModel(speed=1.0)
        tasks = {
            j: Task(j, Point(float(j * 50), 0.0), 0.0, 100.0) for j in range(5)
        }
        worker = Worker(1, Point(0.0, 0.0), 30.0, 0.0, 100.0)
        planner = TaskPlanner(PlannerConfig(), travel=model)
        assert_planner_matches_oracle(planner, [worker], list(tasks.values()), 0.0)
        reference = reachable_tasks(worker, list(tasks.values()), 0.0, model)
        # The shortcut metric reaches tasks the Euclidean ball would miss.
        assert len(reference) > 1
