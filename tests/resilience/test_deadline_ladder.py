"""Deadline-bounded planning and the degradation ladder.

Contract (see :data:`repro.assignment.planner.DEGRADATION_RUNGS`): every
counted planning epoch is served by exactly one rung — ``full`` when no
deadline interfered, ``partial`` when a component search returned its
anytime answer, ``greedy`` when the budget expired before a component's
search started, ``carryover`` when the platform grafted a previous
still-valid plan onto a degraded epoch.  ``deadline_s=None`` must be
bit-for-bit identical to a deadline-free build; ``deadline_s=0.0`` gives
deterministic ladder engagement (the budget is always already spent).
"""

from __future__ import annotations

import math
import random
import time

import pytest
from reference_search import dfsearch

from repro.assignment.dfsearch import dfsearch_bnb
from repro.assignment.fast_partition import build_adjacency, build_partition_tree_fast
from repro.assignment.planner import (
    DEGRADATION_RUNGS,
    PlannerConfig,
    TaskPlanner,
    greedy_component_fill,
)
from repro.assignment.reachability import reachable_tasks
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.strategies import DTAStrategy, GreedyStrategy
from repro.core.assignment import Assignment, WorkerPlan
from repro.core.problem import ATAInstance
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.yueche import generate_yueche
from repro.simulation.platform import SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

#: A perf_counter deadline that expired long ago: every cooperative check
#: fires on its first poll, which is what makes these tests deterministic.
EXPIRED = time.perf_counter() - 1.0


def _dense_problem(seed=31337):
    """One dense shared-task cluster -> (roots, tasks, Q_w, workers_by_id)."""
    rng = random.Random(seed)
    workers = [
        Worker(i, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 2.5, 0.0, 60.0)
        for i in range(7)
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 0.0, rng.uniform(6, 45))
        for j in range(20)
    ]
    reachable = {
        w.worker_id: reachable_tasks(w, tasks, 0.0, TRAVEL, max_tasks=10) for w in workers
    }
    sequences = {
        w.worker_id: maximal_valid_sequences(
            w, reachable[w.worker_id], 0.0, TRAVEL, max_length=3, max_sequences=32
        )
        for w in workers
    }
    tree = build_partition_tree_fast(build_adjacency(reachable))
    return tree.roots, tasks, sequences, {w.worker_id: w for w in workers}


def _assert_feasible(selections, sequences_by_worker):
    used = [tid for _, tids in selections for tid in tids]
    assert len(used) == len(set(used)), "a task was assigned twice"
    for worker_id, task_ids in selections:
        if task_ids:
            q_w = {seq.task_ids for seq in sequences_by_worker.get(worker_id, [])}
            assert task_ids in q_w


def _plan_tuples(assignment):
    return sorted(
        (wp.worker.worker_id, wp.sequence.task_ids) for wp in assignment
    )


class TestSearchDeadline:
    @pytest.mark.parametrize("engine", [dfsearch, dfsearch_bnb])
    def test_expired_deadline_yields_feasible_partial(self, engine):
        roots, tasks, sequences, workers_by_id = _dense_problem()
        for root in roots:
            result = engine(
                root, tasks, sequences, workers_by_id,
                node_budget=2_000_000, deadline=EXPIRED,
            )
            assert result.deadline_hit
            _assert_feasible(result.selections, sequences)
            # The anytime answer still covers every worker of the tree.
            assert sorted(wid for wid, _ in result.selections) == sorted(root.all_workers())

    @pytest.mark.parametrize("engine", [dfsearch, dfsearch_bnb])
    def test_generous_deadline_changes_nothing(self, engine):
        """A deadline far in the future must be invisible to the search."""
        roots, tasks, sequences, workers_by_id = _dense_problem()
        for root in roots:
            plain = engine(root, tasks, sequences, workers_by_id, node_budget=2_000_000)
            bounded = engine(
                root, tasks, sequences, workers_by_id,
                node_budget=2_000_000, deadline=time.perf_counter() + 300.0,
            )
            assert not bounded.deadline_hit
            assert bounded.opt == plain.opt
            assert bounded.selections == plain.selections
            assert bounded.nodes_expanded == plain.nodes_expanded

    def test_deadline_cut_is_reported_not_raised(self):
        roots, tasks, sequences, workers_by_id = _dense_problem()
        result = dfsearch_bnb(
            roots[0], tasks, sequences, workers_by_id, deadline=EXPIRED
        )
        assert result.deadline_hit
        assert not result.complete or result.nodes_expanded == 0


class TestGreedyComponentFill:
    def _fixtures(self):
        w1 = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        w2 = Worker(2, Point(0, 0), 10.0, 0.0, 100.0)
        t1 = Task(1, Point(1, 0), 0.0, 50.0)
        t2 = Task(2, Point(2, 0), 0.0, 50.0)
        t3 = Task(3, Point(3, 0), 0.0, 50.0)
        sequences = {
            1: [TaskSequence(w1, (t1, t2)), TaskSequence(w1, (t3,))],
            2: [TaskSequence(w2, (t1,)), TaskSequence(w2, (t3,))],
        }
        return sequences

    def test_first_fit_respects_availability(self):
        sequences = self._fixtures()
        available = {1, 2, 3}
        selections = greedy_component_fill([1, 2], sequences, available)
        # Worker 1 takes its first candidate (t1, t2); worker 2's first
        # candidate needs the now-taken t1, so it falls through to (t3,).
        assert selections == [(1, (1, 2)), (2, (3,))]
        assert available == set()

    def test_worker_order_decides_contention(self):
        sequences = self._fixtures()
        selections = greedy_component_fill([2, 1], sequences, {1, 2, 3})
        assert selections == [(2, (1,)), (1, (3,))]

    def test_workers_without_fit_get_empty(self):
        sequences = self._fixtures()
        selections = greedy_component_fill([1, 2], sequences, {2})
        assert selections == [(1, ()), (2, ())]
        # Unknown workers are covered too (empty selection, no crash).
        assert greedy_component_fill([99], sequences, {1, 2, 3}) == [(99, ())]


def _reference_violation(engine, selections, tasks_by_id, workers_by_id):
    """The self-check as a plain ordered sweep: the worker placement, then
    the first violation in plan order, then in entry-table order, or
    ``None``."""
    entries = engine._worker_entries
    empty = set(engine._empty)
    in_components = len(engine._component_of)
    if len(empty) + in_components != len(workers_by_id):
        return f"{len(empty)} + {in_components} workers placed, {len(workers_by_id)} present"
    seen_workers = set()
    seen_tasks = set()
    for worker_id, task_ids in selections:
        if worker_id in seen_workers:
            return f"worker {worker_id} planned twice"
        seen_workers.add(worker_id)
        if worker_id not in workers_by_id:
            return f"planned worker {worker_id} not in snapshot"
        if worker_id in empty:
            return f"planned worker {worker_id} has nothing in reach"
        if not task_ids:
            continue
        for tid in task_ids:
            if tid in seen_tasks:
                return f"task {tid} double-booked"
            seen_tasks.add(tid)
            if tid not in tasks_by_id:
                return f"selected task {tid} not open"
        entry = entries.get(worker_id)
        if entry is None:
            return f"no cached state for planned worker {worker_id}"
        if task_ids not in entry.seq_set:
            return (
                f"selection {task_ids} for worker {worker_id} "
                "is not a cached candidate sequence"
            )
    for worker_id, entry in entries.items():
        if not (entry.reach_horizon >= 0.0) or not (entry.seq_horizon >= 0.0):
            return (
                f"worker {worker_id} horizon corrupt "
                f"(reach={entry.reach_horizon!r}, seq={entry.seq_horizon!r})"
            )
    return None


class TestPlannerDeadline:
    def _snapshot(self):
        rng = random.Random(4711)
        workers = [
            Worker(i, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 2.5, 0.0, 60.0)
            for i in range(7)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 2.2), rng.uniform(0, 2.2)), 0.0, rng.uniform(6, 45))
            for j in range(22)
        ]
        return workers, tasks

    @pytest.mark.parametrize("warm", [False, True])
    def test_zero_deadline_engages_greedy_rung(self, warm):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(deadline_s=0.0), travel=TRAVEL)
        if warm:
            planner.plan(workers, tasks, 0.0)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.rung == "greedy"
        assert outcome.deadline_hit
        selections = [
            (wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment
        ]
        used = [tid for _, tids in selections for tid in tids]
        assert len(used) == len(set(used))
        assert outcome.planned_tasks == len(used) > 0

    @pytest.mark.parametrize("warm", [False, True])
    def test_no_deadline_never_degrades(self, warm):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        if warm:
            planner.plan(workers, tasks, 0.0)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.rung == "full"
        assert not outcome.deadline_hit

    def test_degraded_results_are_not_cached(self):
        """A greedy epoch must not poison the component cache: removing the
        deadline on the next call restores the full-quality plan."""
        workers, tasks = self._snapshot()
        degraded = TaskPlanner(PlannerConfig(deadline_s=0.0), travel=TRAVEL)
        first = degraded.plan(workers, tasks, 0.0)
        assert first.rung == "greedy"
        degraded.config.deadline_s = None
        healed = degraded.plan(workers, tasks, 0.0)
        assert healed.rung == "full"
        reference = TaskPlanner(PlannerConfig(), travel=TRAVEL).plan(workers, tasks, 0.0)
        assert _plan_tuples(healed.assignment) == _plan_tuples(reference.assignment)

    def test_greedy_rung_never_beats_full(self):
        workers, tasks = self._snapshot()
        full = TaskPlanner(PlannerConfig(), travel=TRAVEL).plan(workers, tasks, 0.0)
        greedy = TaskPlanner(PlannerConfig(deadline_s=0.0), travel=TRAVEL).plan(
            workers, tasks, 0.0
        )
        assert greedy.planned_tasks <= full.planned_tasks


class TestSelfHealing:
    """The incremental engine's post-replan invariant check: a corrupted
    cache is detected, logged, dropped and the epoch redone from scratch —
    with an answer identical to a fresh full pipeline."""

    def _planner_and_snapshot(self):
        workers, tasks = TestPlannerDeadline()._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        first = planner.plan(workers, tasks, 0.0)
        assert first.repairs == 0
        assert planner._engine._worker_entries  # cache is warm
        return planner, workers, tasks

    def _reference(self, workers, tasks):
        return TaskPlanner(PlannerConfig(), travel=TRAVEL).plan(workers, tasks, 0.0)

    def test_check_names_the_reference_violation(self):
        """The engine's check returns what the plain ordered sweep
        (``_reference_violation``) returns on every plan: healthy, and
        broken in each way the check knows, alone or several at once."""
        planner, workers, tasks = self._planner_and_snapshot()
        engine = planner._engine
        entries = engine._worker_entries
        tasks_by_id = {task.task_id: task for task in tasks}
        workers_by_id = {worker.worker_id: worker for worker in workers}
        healthy = []
        used = set()
        for worker in workers:
            if worker.worker_id in engine._empty:
                continue  # never planned
            entry = entries[worker.worker_id]
            fits = [ids for ids in entry.seq_tuples if used.isdisjoint(ids)]
            chosen = fits[0] if fits else ()
            used.update(chosen)
            healthy.append((worker.worker_id, chosen))
        assert any(ids for _, ids in healthy)
        rng = random.Random(31)
        some_ids = sorted(tasks_by_id)

        def corrupt(selections, open_tasks, snapshot):
            kind = rng.randrange(9)
            i = rng.randrange(len(selections))
            wid, ids = selections[i]
            taken = {tid for other, held in selections if other != wid for tid in held}
            if kind == 0:  # a worker planned twice
                selections.insert(rng.randrange(len(selections) + 1), (wid, ()))
            elif kind == 1:  # a worker outside the snapshot
                selections.append((999, ()))
            elif kind == 2:  # open, unbooked tasks, but not a candidate
                free = [tid for tid in some_ids if tid not in taken and tid not in ids]
                if free:
                    selections[i] = (wid, ids + (rng.choice(free),))
            elif kind == 3 and ids:  # a candidate whose task closed
                del open_tasks[rng.choice(ids)]
            elif kind == 4 and wid in entries:  # a candidate another worker holds
                clashing = [c for c in entries[wid].seq_tuples if not taken.isdisjoint(c)]
                if clashing:
                    selections[i] = (wid, rng.choice(clashing))
            elif kind == 5:  # a corrupt horizon, on any cached entry
                entry = rng.choice(list(entries.values()))
                setattr(
                    entry,
                    rng.choice(["reach_horizon", "seq_horizon"]),
                    rng.choice([float("nan"), -1.0]),
                )
            elif kind == 6:  # a snapshot worker without cached state
                snapshot.pop(wid, None)
                snapshot[777] = workers[0]
                selections[i] = (777, ids)
            elif kind == 7:  # a snapshot worker in no component and not empty
                snapshot[778] = workers[0]
            elif kind == 8 and wid in engine._component_of:  # planned, nothing in reach
                del engine._component_of[wid]
                engine._empty.add(wid)

        saved = {wid: (e.reach_horizon, e.seq_horizon) for wid, e in entries.items()}
        placement = (set(engine._empty), dict(engine._component_of))
        found = set()
        for trial in range(400):
            selections = list(healthy)
            open_tasks = dict(tasks_by_id)
            snapshot = dict(workers_by_id)
            for _ in range(trial % 4):
                corrupt(selections, open_tasks, snapshot)
            verdict = engine._find_violation(selections, open_tasks, snapshot)
            assert verdict == _reference_violation(engine, selections, open_tasks, snapshot)
            # The message's wording without its ids and values.
            found.add(verdict and " ".join(w for w in verdict.split() if w.isalpha()))
            for wid, (reach, seq) in saved.items():
                entries[wid].reach_horizon, entries[wid].seq_horizon = reach, seq
            engine._empty, engine._component_of = set(placement[0]), dict(placement[1])
        assert None in found and len(found) == 10  # healthy, and all nine checks

    def test_nan_horizon_is_repaired(self):
        planner, workers, tasks = self._planner_and_snapshot()
        for entry in planner._engine._worker_entries.values():
            entry.reach_horizon = float("nan")
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.repairs == 1
        assert _plan_tuples(outcome.assignment) == _plan_tuples(
            self._reference(workers, tasks).assignment
        )

    def test_corrupted_component_selection_is_repaired(self):
        planner, workers, tasks = self._planner_and_snapshot()
        corrupted = False
        for entry in planner._engine._components.values():
            if entry.selections:
                # Duplicate a worker's selection: a double-planned worker
                # violates the epoch invariant the moment it is replayed.
                entry.selections = entry.selections + (entry.selections[0],)
                corrupted = True
        assert corrupted
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.repairs == 1
        assert _plan_tuples(outcome.assignment) == _plan_tuples(
            self._reference(workers, tasks).assignment
        )

    def test_repair_restores_subsequent_epochs(self):
        planner, workers, tasks = self._planner_and_snapshot()
        for entry in planner._engine._worker_entries.values():
            entry.seq_horizon = float("nan")
        assert planner.plan(workers, tasks, 0.0).repairs == 1
        again = planner.plan(workers, tasks, 0.5)
        assert again.repairs == 0
        assert again.rung == "full"

    def test_repair_that_would_trip_again_returns_once(self, caplog):
        """Corruption that lives in the inputs, not the cache: a travel
        model whose profile clock reads NaN stamps a NaN horizon on every
        worker with nothing in reach, so the repair's own rerun would trip
        the check as well.  It must not: one repair, one answer, and
        nothing of the rerun left in the live cache."""

        class NaNClock(EuclideanTravelModel):
            def next_profile_boundary(self, now):
                return float("nan")

        workers, tasks = TestPlannerDeadline()._snapshot()
        workers.append(Worker(99, Point(500.0, 500.0), 1.0, 0.0, 60.0))
        travel = NaNClock(speed=1.0)
        planner = TaskPlanner(PlannerConfig(), travel=travel)
        with caplog.at_level("WARNING", logger="repro.resilience.selfheal"):
            outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.repairs == 1
        assert len(caplog.records) == 1
        unchecked = TaskPlanner(PlannerConfig(self_check=False), travel=travel)
        assert _plan_tuples(outcome.assignment) == _plan_tuples(
            unchecked.plan(workers, tasks, 0.0).assignment
        )
        engine = planner._engine
        assert not engine._worker_entries and not engine._components
        # The next epoch starts from that empty cache.
        again = planner.plan(workers, tasks, 0.5)
        assert again.repairs == 1
        assert again.reused_workers == 0
        assert again.recomputed_workers == len(workers)


class TestPlatformLadder:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_yueche(scale=0.015, seed=7)

    def test_no_deadline_all_epochs_full(self, workload):
        platform = SCPlatform(workload.instance, DTAStrategy(config=PlannerConfig()))
        metrics = platform.run()
        assert metrics.replans > 0
        assert metrics.degraded_epochs == 0
        assert set(metrics.degradation_rungs) == {"full"}
        assert metrics.degradation_rungs["full"] == metrics.replans

    def test_zero_deadline_engages_ladder(self, workload):
        platform = SCPlatform(
            workload.instance, DTAStrategy(config=PlannerConfig(deadline_s=0.0))
        )
        metrics = platform.run()
        assert metrics.degraded_epochs > 0
        assert set(metrics.degradation_rungs) <= set(DEGRADATION_RUNGS)
        assert "full" not in metrics.degradation_rungs
        # Exactly one rung per counted planning epoch.
        assert sum(metrics.degradation_rungs.values()) == metrics.replans
        for value in metrics.as_dict().values():
            assert math.isfinite(value)

    def test_degraded_run_still_serves_tasks(self, workload):
        full = SCPlatform(
            workload.instance, DTAStrategy(config=PlannerConfig())
        ).run()
        degraded = SCPlatform(
            workload.instance, DTAStrategy(config=PlannerConfig(deadline_s=0.0))
        ).run()
        assert degraded.assigned_tasks > 0
        assert degraded.assigned_tasks <= full.assigned_tasks

    def test_deadline_run_is_reproducible(self, workload):
        """deadline_s=0.0 degrades deterministically (never mid-search)."""
        states = [
            SCPlatform(
                workload.instance, DTAStrategy(config=PlannerConfig(deadline_s=0.0))
            )
            .run()
            .deterministic_state()
            for _ in range(2)
        ]
        assert states[0] == states[1]


class TestCarryover:
    def _platform(self):
        worker = Worker(1, Point(0.0, 0.0), 10.0, 0.0, 100.0)
        task = Task(1, Point(1.0, 0.0), 0.0, 50.0)
        instance = ATAInstance([worker], [task], travel=TRAVEL)
        platform = SCPlatform(instance, GreedyStrategy())
        platform._reset_run_state(clear_durability=False)
        platform._carryover_enabled = True
        return platform, worker, task

    def test_grafts_previous_sequence(self):
        platform, worker, task = self._platform()
        platform._pending[task.task_id] = task
        platform._last_plans[worker.worker_id] = WorkerPlan(
            worker, TaskSequence(worker, (task,))
        )
        plan = Assignment()
        assert platform._carryover(plan, [worker], now=0.0)
        assert plan.plan_for(worker.worker_id).sequence.task_ids == (1,)

    def test_skips_tasks_no_longer_pending(self):
        platform, worker, task = self._platform()
        platform._last_plans[worker.worker_id] = WorkerPlan(
            worker, TaskSequence(worker, (task,))
        )
        plan = Assignment()
        assert not platform._carryover(plan, [worker], now=0.0)  # not pending
        assert plan.plan_for(worker.worker_id) is None

    def test_skips_expired_and_claimed_tasks(self):
        platform, worker, task = self._platform()
        platform._pending[task.task_id] = task
        platform._last_plans[worker.worker_id] = WorkerPlan(
            worker, TaskSequence(worker, (task,))
        )
        # Expired at carryover time.
        assert not platform._carryover(Assignment(), [worker], now=60.0)
        # Claimed by the degraded plan itself.
        other = Worker(2, Point(0.0, 0.0), 10.0, 0.0, 100.0)
        plan = Assignment()
        plan.add(WorkerPlan(other, TaskSequence(other, (task,))))
        assert not platform._carryover(plan, [worker], now=0.0)
        assert plan.plan_for(worker.worker_id) is None

    def test_workers_already_planned_keep_their_plan(self):
        platform, worker, task = self._platform()
        other_task = Task(2, Point(2.0, 0.0), 0.0, 50.0)
        platform._pending[task.task_id] = task
        platform._pending[other_task.task_id] = other_task
        platform._last_plans[worker.worker_id] = WorkerPlan(
            worker, TaskSequence(worker, (other_task,))
        )
        plan = Assignment()
        plan.add(WorkerPlan(worker, TaskSequence(worker, (task,))))
        assert not platform._carryover(plan, [worker], now=0.0)
        assert plan.plan_for(worker.worker_id).sequence.task_ids == (1,)
