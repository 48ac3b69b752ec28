"""Unit tests for the incremental replan engine's building blocks.

The streaming equivalence suites (``test_vectorized_equivalence.py``)
assert the end-to-end contract; these tests pin down the primitives it
rests on: validity horizons (reachability and sequences), dirty
classification, the forced-dirty hint path, and the in-process dispatch
stage.
"""

import math
import random

import pytest

from repro.assignment.executor import ComponentJob, run_component_job
from repro.assignment.incremental import (
    DirtySet,
    _task_fingerprint,
    _worker_fingerprint,
)
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.reachability import (
    _REACH_EPS,
    reachable_tasks,
    reachable_tasks_with_horizon,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.tree import PartitionNode
from repro.core.task import Task
from repro.core.worker import AvailabilityWindow, Worker
from repro.obs import Observability
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)


def random_instance(rng, max_workers=6, max_tasks=30):
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


class TestReachabilityHorizon:
    @pytest.mark.parametrize("seed", range(15))
    def test_capped_output_matches_reference(self, seed):
        rng = random.Random(seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 3.0)
        for worker in workers:
            for max_tasks in (None, 5):
                reference = reachable_tasks(worker, tasks, now, TRAVEL, max_tasks=max_tasks)
                capped, uncapped_ids, _ = reachable_tasks_with_horizon(
                    worker, tasks, now, TRAVEL, max_tasks=max_tasks
                )
                assert [t.task_id for t in capped] == [t.task_id for t in reference]
                assert {t.task_id for t in reference} <= uncapped_ids

    @pytest.mark.parametrize("seed", range(15))
    def test_output_constant_inside_horizon(self, seed):
        # The horizon contract: for any now' in [now, horizon), the
        # reachable list is literally identical (task set held fixed).
        rng = random.Random(500 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        for worker in workers:
            capped, _, horizon = reachable_tasks_with_horizon(
                worker, tasks, now, TRAVEL, max_tasks=8
            )
            assert horizon > now or horizon == now  # windowless: > now unless expired state
            if not math.isfinite(horizon) or horizon <= now:
                continue
            for fraction in (0.25, 0.6, 0.999):
                probe = now + (horizon - now) * fraction
                reference = reachable_tasks(worker, tasks, probe, TRAVEL, max_tasks=8)
                assert [t.task_id for t in reference] == [t.task_id for t in capped]

    def test_boundary_flip_is_detected_at_horizon(self):
        worker = Worker(1, Point(0, 0), 10.0, 0.0, 100.0)
        task = Task(1, Point(2, 0), 0.0, 10.0)  # leaves at now = e - c = 8.0
        capped, _, horizon = reachable_tasks_with_horizon(worker, [task], 0.0, TRAVEL)
        assert [t.task_id for t in capped] == [1]
        assert horizon == pytest.approx(8.0)
        assert reachable_tasks(worker, [task], 8.0, TRAVEL) == []

    def test_hop_member_horizon_is_its_expiration(self):
        worker = Worker(1, Point(0, 0), 1.0, 0.0, 100.0)
        anchor = Task(1, Point(0.8, 0.0), 0.0, 50.0)
        hop = Task(2, Point(1.7, 0.0), 0.0, 6.0)  # reachable only via anchor
        capped, uncapped, horizon = reachable_tasks_with_horizon(
            worker, [anchor, hop], 0.0, TRAVEL
        )
        assert [t.task_id for t in capped] == [1, 2]
        # The hop member leaves the set when it expires (t=6.0), before any
        # direct boundary (anchor: 50 - 0.8, off: 100 - 0.8).
        assert horizon == pytest.approx(6.0)

    def test_windowed_worker_is_never_cacheable(self):
        worker = Worker(
            1,
            Point(0, 0),
            10.0,
            0.0,
            100.0,
            windows=(AvailabilityWindow(0.0, 5.0), AvailabilityWindow(20.0, 80.0)),
        )
        task = Task(1, Point(2, 0), 0.0, 90.0)
        _, _, horizon = reachable_tasks_with_horizon(worker, [task], 1.0, TRAVEL)
        assert horizon == 1.0  # horizon == now means "recompute every epoch"


class TestSequenceHorizon:
    @pytest.mark.parametrize("seed", range(15))
    def test_sequences_constant_inside_horizon(self, seed):
        rng = random.Random(900 + seed)
        workers, tasks = random_instance(rng)
        now = rng.uniform(0.0, 2.0)
        for worker in workers:
            reachable = reachable_tasks(worker, tasks, now, TRAVEL, max_tasks=8)
            box = []
            sequences = maximal_valid_sequences(
                worker, reachable, now, TRAVEL, max_length=3, max_sequences=16,
                horizon_out=box,
            )
            horizon = box[0]
            assert len(box) == 1
            if not math.isfinite(horizon) or horizon <= now:
                continue
            baseline = [s.task_ids for s in sequences]
            for fraction in (0.3, 0.999):
                probe = now + (horizon - now) * fraction
                later = maximal_valid_sequences(
                    worker, reachable, probe, TRAVEL, max_length=3, max_sequences=16
                )
                assert [s.task_ids for s in later] == baseline

    def test_empty_reachable_reports_infinite_horizon(self):
        worker = Worker(1, Point(0, 0), 1.0, 0.0, 10.0)
        box = []
        assert maximal_valid_sequences(worker, [], 0.0, TRAVEL, horizon_out=box) == []
        assert box == [float("inf")]


class TestDirtySet:
    def test_note_merge_clear(self):
        dirty = DirtySet()
        assert not dirty
        dirty.note_worker(1)
        dirty.note_task(100)
        other = DirtySet(worker_ids={2}, task_ids={200})
        dirty.merge(other)
        assert dirty.worker_ids == {1, 2}
        assert dirty.task_ids == {100, 200}
        dirty.clear()
        assert not dirty


class TestFingerprints:
    def test_worker_fingerprint_tracks_location_and_window(self):
        worker = Worker(1, Point(0, 0), 2.0, 0.0, 10.0)
        assert _worker_fingerprint(worker) != _worker_fingerprint(
            worker.moved_to(Point(1, 0))
        )
        assert _worker_fingerprint(worker) == _worker_fingerprint(
            Worker(1, Point(0, 0), 2.0, 0.0, 10.0)
        )

    def test_task_fingerprint_tracks_fields(self):
        task = Task(1, Point(0, 0), 0.0, 10.0)
        same = Task(1, Point(0, 0), 0.0, 10.0)
        moved = Task(1, Point(1, 0), 0.0, 10.0)
        assert _task_fingerprint(task) == _task_fingerprint(same)
        assert _task_fingerprint(task) != _task_fingerprint(moved)

    @pytest.mark.parametrize("seed", range(10))
    def test_allocation_free_compare_agrees_with_tuples(self, seed):
        """The steady-state paths compare fingerprints without building
        tuples; the predicates must agree with tuple equality on every
        field perturbation."""
        from repro.assignment.incremental import _task_unchanged, _worker_unchanged

        rng = random.Random(seed)
        worker = Worker(
            1,
            Point(rng.uniform(0, 8), rng.uniform(0, 8)),
            rng.uniform(0.5, 3.0),
            0.0,
            rng.uniform(5, 50),
        )
        task = Task(7, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, rng.uniform(1, 40))
        assert _worker_unchanged(_worker_fingerprint(worker), worker)
        assert _task_unchanged(_task_fingerprint(task), task)
        variants = [
            worker.moved_to(Point(worker.location.x + 0.5, worker.location.y)),
            Worker(1, worker.location, worker.reachable_distance + 1.0,
                   worker.on_time, worker.off_time),
            Worker(1, worker.location, worker.reachable_distance,
                   worker.on_time, worker.off_time + 1.0),
        ]
        for variant in variants:
            assert _worker_unchanged(_worker_fingerprint(worker), variant) == (
                _worker_fingerprint(worker) == _worker_fingerprint(variant)
            )
        moved = Task(7, Point(task.location.x, task.location.y + 0.5), 0.0,
                     task.expiration_time)
        assert not _task_unchanged(_task_fingerprint(task), moved)


class TestEngineBehaviour:
    def _snapshot(self):
        rng = random.Random(11)
        workers = [
            Worker(i, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 2.0, 0.0, 1000.0)
            for i in range(6)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, 1000.0)
            for j in range(25)
        ]
        return workers, tasks

    def test_forced_dirty_hint_forces_recompute(self):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 0.0)
        clean = planner.plan(workers, tasks, 0.1)
        assert clean.recomputed_workers == 0
        planner.note_dirty(DirtySet(worker_ids={workers[0].worker_id}))
        hinted = planner.plan(workers, tasks, 0.2)
        assert hinted.recomputed_workers == 1

    def test_reset_cache_drops_all_state(self):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 5.0)
        planner.reset_cache()
        # Time restarts below the previous ``now``: only valid after reset.
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.recomputed_workers == len(workers)

    def test_time_regression_self_invalidates(self):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 5.0)
        reference = TaskPlanner(PlannerConfig(), travel=TRAVEL).plan(workers, tasks, 1.0)
        regressed = planner.plan(workers, tasks, 1.0)
        assert regressed.recomputed_workers == len(workers)
        assert [
            (wp.worker.worker_id, wp.sequence.task_ids) for wp in regressed.assignment
        ] == [(wp.worker.worker_id, wp.sequence.task_ids) for wp in reference.assignment]

    def test_travel_model_swap_invalidates_caches(self):
        # Every cached horizon and travel row was computed under one travel
        # model; swapping the planner's model must drop them wholesale.
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 0.0)
        assert planner.plan(workers, tasks, 0.1).recomputed_workers == 0
        swapped = EuclideanTravelModel(speed=0.5)
        planner.travel = swapped
        reference = TaskPlanner(PlannerConfig(), travel=swapped).plan(workers, tasks, 0.2)
        outcome = planner.plan(workers, tasks, 0.2)
        assert outcome.recomputed_workers == len(workers)
        assert [
            (wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment
        ] == [(wp.worker.worker_id, wp.sequence.task_ids) for wp in reference.assignment]

    def test_single_task_arrival_dirties_only_nearby_workers(self):
        # Workers far from the new task keep their cached state.
        workers = [
            Worker(1, Point(0.0, 0.0), 1.0, 0.0, 1000.0),
            Worker(2, Point(100.0, 0.0), 1.0, 0.0, 1000.0),
        ]
        tasks = [
            Task(100, Point(0.5, 0.0), 0.0, 1000.0),
            Task(101, Point(100.5, 0.0), 0.0, 1000.0),
        ]
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 0.0)
        arrival = Task(102, Point(0.6, 0.1), 0.0, 1000.0)
        outcome = planner.plan(workers, tasks + [arrival], 0.1)
        assert outcome.recomputed_workers == 1  # only worker 1 is nearby
        assert outcome.reused_workers == 1


class TestAllocationReuse:
    """PR 10 tentpole (c): steady-state replans reuse scratch objects
    instead of reallocating them — observable through object identity,
    with behaviour covered by the equivalence suites."""

    def _snapshot(self):
        rng = random.Random(19)
        workers = [
            Worker(i, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 2.0, 0.0, 1000.0)
            for i in range(5)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, 1000.0)
            for j in range(25)
        ]
        return workers, tasks

    def test_worker_entry_reused_in_place_across_refreshes(self):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 0.0)
        engine = planner._engine
        before = dict(engine._worker_entries)
        moved_wid = workers[0].worker_id
        version_before = before[moved_wid].version
        moved = list(workers)
        moved[0] = moved[0].moved_to(Point(4.0, 4.0))
        outcome = planner.plan(moved, tasks, 0.1)
        assert outcome.recomputed_workers >= 1
        after = engine._worker_entries
        # Same entry objects, refreshed contents; the moved worker's entry
        # bumped its version without being reallocated.
        for wid, entry in before.items():
            assert after[wid] is entry
        assert after[moved_wid].version == version_before + 1
        assert after[moved_wid].fingerprint[0] == 4.0

    def test_available_ids_interned_per_task_epoch(self):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        planner.plan(workers, tasks, 0.0)
        engine = planner._engine
        first = engine._available_ids
        assert first == frozenset(task.task_id for task in tasks)
        planner.plan(workers, tasks, 0.1)
        # Quiet epoch: identical task set, the frozenset is reused by
        # identity rather than rebuilt.
        assert engine._available_ids is first
        extra = tasks + [Task(999, Point(1.0, 1.0), 0.0, 1000.0)]
        planner.plan(workers, extra, 0.2)
        assert engine._available_ids is not first
        assert 999 in engine._available_ids


class TestComponentRederivation:
    """The engine keeps its dependency components across epochs and
    re-derives only those a changed, joining or departing worker touches;
    the ``decompose`` span reports how many it re-derived (``rebuilt``)."""

    def _snapshot(self):
        rng = random.Random(21)
        workers = [
            Worker(i, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 2.0, 0.0, 1000.0)
            for i in range(6)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, 1000.0)
            for j in range(25)
        ]
        return workers, tasks

    def _planner(self):
        from repro.obs import Observability

        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        obs = Observability()
        planner.attach_observability(obs)

        def plan(workers, tasks, now):
            outcome = planner.plan(workers, tasks, now)
            span = [e for e in obs.tracer.events if e["name"] == "decompose"][-1]
            return outcome, span["args"]["rebuilt"]

        return planner, plan

    @staticmethod
    def _scratch_components(planner, workers):
        """What a from-scratch decomposition of the engine's reach sets gives."""
        from repro.assignment.fast_partition import build_adjacency, connected_components

        entries = planner._engine._worker_entries
        return connected_components(
            build_adjacency({w.worker_id: entries[w.worker_id].reachable for w in workers})
        )

    @staticmethod
    def _components(planner):
        return [held.members for held in planner._engine._component_list]

    def test_quiet_epochs_rebuild_nothing(self):
        workers, tasks = self._snapshot()
        planner, plan = self._planner()
        cold, rebuilt = plan(workers, tasks, 0.0)
        assert rebuilt == cold.num_components  # cold start derives them all
        quiet, rebuilt = plan(workers, tasks, 0.05)
        assert quiet.recomputed_workers == 0
        assert rebuilt == 0
        assert quiet.reused_components == quiet.num_components
        _, rebuilt = plan(workers, tasks, 0.1)
        assert rebuilt == 0
        assert self._components(planner) == self._scratch_components(planner, workers)

    def test_moved_worker_rederives_its_components(self):
        workers, tasks = self._snapshot()
        planner, plan = self._planner()
        full = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        plan(workers, tasks, 0.0)
        # Move a worker into a different neighbourhood: its old and new
        # components are re-derived and results still match a fresh full
        # replan.
        moved = list(workers)
        moved[0] = moved[0].moved_to(Point(4.0, 4.0))
        a, rebuilt = plan(moved, tasks, 0.1)
        assert 1 <= rebuilt <= a.num_components
        assert self._components(planner) == self._scratch_components(planner, moved)
        b = full.plan(moved, tasks, 0.1)
        assert [
            (wp.worker.worker_id, wp.sequence.task_ids) for wp in a.assignment
        ] == [(wp.worker.worker_id, wp.sequence.task_ids) for wp in b.assignment]
        assert a.nodes_expanded == b.nodes_expanded

    def test_departure_rederives_its_component(self):
        workers, tasks = self._snapshot()
        planner, plan = self._planner()
        plan(workers, tasks, 0.0)
        former = next(c for c in self._components(planner) if 0 in c)
        # A worker leaving the stream changes the node set even when every
        # remaining worker's version is untouched: exactly what is left of
        # its component is re-derived.
        _, rebuilt = plan(workers[1:], tasks, 0.1)
        after = self._components(planner)
        assert after == self._scratch_components(planner, workers[1:])
        assert rebuilt == sum(1 for c in after if set(c) & set(former))
        assert all(0 not in c for c in after)

    def test_refresh_without_reachable_change_rebuilds_nothing(self):
        workers, tasks = self._snapshot()
        planner, plan = self._planner()
        full = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        plan(workers, tasks, 0.0)
        # A nudge far below the snapshot geometry forces a worker refresh
        # (new fingerprint) but cannot change any reachable set: the
        # dependency graph is provably identical, so nothing is re-derived;
        # the version bump only voids that component's cache hit.
        nudged = list(workers)
        nudged[0] = nudged[0].moved_to(
            Point(nudged[0].location.x + 1e-12, nudged[0].location.y)
        )
        a, rebuilt = plan(nudged, tasks, 0.1)
        assert a.recomputed_workers == 1
        assert rebuilt == 0
        assert a.searched_components == 1
        b = full.plan(nudged, tasks, 0.1)
        assert [
            (wp.worker.worker_id, wp.sequence.task_ids) for wp in a.assignment
        ] == [(wp.worker.worker_id, wp.sequence.task_ids) for wp in b.assignment]


class TestProfileHorizonClamping:
    """Horizons must never claim validity past the next speed-profile
    boundary; static models (infinite boundary) keep their old horizons."""

    def _timedep(self, multipliers=(1.0, 0.5), breakpoints=(0.0, 10.0), period=50.0):
        from repro.spatial.profiles import SpeedProfile
        from repro.spatial.timedep import TimeDependentTravelModel

        profile = SpeedProfile(
            breakpoints=breakpoints, multipliers=multipliers, period=period
        )
        return TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), profile)

    def test_reach_horizon_clamped_to_boundary(self):
        model = self._timedep()
        model.begin_epoch(0.0)
        worker = Worker(1, Point(0.0, 0.0), 5.0, 0.0, 1000.0)
        tasks = [Task(1, Point(1.0, 0.0), 0.0, 1000.0)]
        _, _, horizon = reachable_tasks_with_horizon(worker, tasks, 0.0, model)
        # Per-task boundaries are ~1000; the profile boundary (10) wins.
        assert horizon == 10.0

    def test_reach_horizon_clamped_even_when_set_is_empty(self):
        # An empty set has no member boundary at all, yet a faster window
        # can make it non-empty — the clamp is the only guard.
        model = self._timedep(multipliers=(0.5, 2.0))
        model.begin_epoch(0.0)
        worker = Worker(1, Point(0.0, 0.0), 10.0, 0.0, 1000.0)
        tasks = [Task(1, Point(8.0, 0.0), 0.0, 15.0)]  # congested time 16 >= 15
        capped, _, horizon = reachable_tasks_with_horizon(worker, tasks, 0.0, model)
        assert capped == []
        assert horizon == 10.0

    def test_sequence_horizon_clamped_to_boundary(self):
        model = self._timedep()
        model.begin_epoch(0.0)
        worker = Worker(1, Point(0.0, 0.0), 5.0, 0.0, 1000.0)
        tasks = [Task(1, Point(1.0, 0.0), 0.0, 1000.0)]
        box = []
        sequences = maximal_valid_sequences(
            worker, tasks, 0.0, model, horizon_out=box
        )
        assert sequences
        assert box[0] == 10.0
        # Empty reachable set: still clamped (re-enumeration is trivial).
        box = []
        assert maximal_valid_sequences(worker, [], 0.0, model, horizon_out=box) == []
        assert box[0] == 10.0

    def test_static_model_horizons_unchanged(self):
        worker = Worker(1, Point(0.0, 0.0), 5.0, 0.0, 40.0)
        tasks = [Task(1, Point(1.0, 0.0), 0.0, 30.0)]
        _, _, horizon = reachable_tasks_with_horizon(worker, tasks, 0.0, TRAVEL)
        assert horizon == 29.0  # e - leg: the PR 2 boundary, unclamped

    def test_engine_recomputes_exactly_at_boundary_epochs(self):
        from repro.assignment.planner import PlannerConfig, TaskPlanner

        model = self._timedep()
        planner = TaskPlanner(
            PlannerConfig(travel_model=model)
        )
        workers = [Worker(1, Point(0.0, 0.0), 5.0, 0.0, 1000.0)]
        tasks = [Task(1, Point(1.0, 0.0), 0.0, 1000.0)]
        first = planner.plan(workers, tasks, 0.0)
        assert first.recomputed_workers == 1
        inside = planner.plan(workers, tasks, 5.0)  # same window: pure reuse
        assert inside.reused_workers == 1 and inside.recomputed_workers == 0
        at_boundary = planner.plan(workers, tasks, 10.0)  # exactly on it
        assert at_boundary.recomputed_workers == 1
        next_window = planner.plan(workers, tasks, 12.0)  # inside new window
        assert next_window.reused_workers == 1

    def test_uniform_profile_reuses_like_static(self):
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.profiles import SpeedProfile
        from repro.spatial.timedep import TimeDependentTravelModel

        model = TimeDependentTravelModel(
            EuclideanTravelModel(speed=1.0), SpeedProfile.constant(1.0)
        )
        planner = TaskPlanner(
            PlannerConfig(travel_model=model)
        )
        workers = [Worker(1, Point(0.0, 0.0), 5.0, 0.0, 1000.0)]
        tasks = [Task(1, Point(1.0, 0.0), 0.0, 1000.0)]
        planner.plan(workers, tasks, 0.0)
        later = planner.plan(workers, tasks, 500.0)
        assert later.reused_workers == 1 and later.recomputed_workers == 0


def _entry_state(planner, workers):
    """What each snapshot worker's cached entry feeds the plan: capped and
    uncapped ids, ``Q_w`` and the reachability horizon.  ``fallback`` is
    left out: it only steers the arrival filter when the set is non-empty,
    and an empty set kept across a predicted arrival keeps its old flag.
    So is ``seq_horizon``: it is a conservative bound whose last bit
    depends on the ``now`` it was computed at."""
    entries = planner._engine._worker_entries
    return {
        w.worker_id: (
            entries[w.worker_id].reachable_ids,
            entries[w.worker_id].uncapped_ids,
            entries[w.worker_id].seq_tuples,
            entries[w.worker_id].reach_horizon,
        )
        for w in workers
    }


def outcome_ids(outcome):
    return {tid for wp in outcome.assignment for tid in wp.sequence.task_ids}


def _signature(outcome):
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
    )


class TestExactArrivalTest:
    """An arrival inside a worker's ``(hops + 1)·reach`` ball refreshes the
    worker only when it passes the kernel's own predicates against the
    cached entry — directly reachable, or within reach of a cached member;
    a cleared ball hit keeps its entry and counts as ``skipped`` on the
    ``refresh`` span.  Every step is held to an empty-cache engine, on the
    outcome and on the cached entries."""

    @staticmethod
    def _warm():
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        obs = Observability()
        planner.attach_observability(obs)
        return planner, obs

    @staticmethod
    def _step(planner, obs, workers, tasks, now):
        """Plan one step warm and on an empty cache; return the warm
        outcome and the step's ``skipped`` count."""
        outcome = planner.plan(workers, tasks, now)
        cold = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        assert _signature(outcome) == _signature(cold.plan(workers, tasks, now))
        assert _entry_state(planner, workers) == _entry_state(cold, workers)
        span = [e for e in obs.tracer.events if e["name"] == "refresh"][-1]
        return outcome, span["args"]["skipped"]

    def _arrive(self, workers, tasks, arrival, now=0.1):
        planner, obs = self._warm()
        self._step(planner, obs, workers, tasks, 0.0)
        return self._step(planner, obs, workers, tasks + [arrival], now)

    def test_ball_hit_failing_both_tests_is_not_refreshed(self):
        workers = [Worker(1, Point(0.0, 0.0), 1.0, 0.0, 1000.0)]
        member = Task(100, Point(0.5, 0.0), 0.0, 1000.0)
        # 1.8 from the worker (inside the 2·reach ball, outside reach) and
        # 1.87 from the only member.
        arrival = Task(101, Point(0.0, 1.8), 0.1, 1000.0)
        outcome, skipped = self._arrive(workers, [member], arrival)
        assert outcome.recomputed_workers == 0
        assert skipped == 1

    def test_hop_at_exactly_reach_from_a_member_is_refreshed(self):
        # The member sits at the worker's reach; the arrival lies at exactly
        # ``reachable_distance + _REACH_EPS`` beyond it, which the kernel's
        # inclusive hop test admits, but not directly reachable.
        workers = [Worker(1, Point(-1.0, 0.0), 1.0, 0.0, 1000.0)]
        member = Task(100, Point(0.0, 0.0), 0.0, 1000.0)
        reach = 1.0 + _REACH_EPS
        arrival = Task(101, Point(reach, 0.0), 0.1, 1000.0)
        assert TRAVEL.distance(member.location, arrival.location) == reach
        outcome, skipped = self._arrive(workers, [member], arrival)
        assert outcome.recomputed_workers == 1
        assert skipped == 0
        assert 101 in outcome_ids(outcome)

    def test_arrival_exactly_at_expiry_is_not_refreshed(self):
        # Within distance, but the leg (1.0) equals the time left until
        # expiry: the strict ``<`` makes it unreachable.
        workers = [Worker(1, Point(0.0, 0.0), 2.0, 0.0, 1000.0)]
        member = Task(100, Point(-1.5, 0.0), 0.0, 1000.0)  # 2.5 from the arrival
        arrival = Task(101, Point(1.0, 0.0), 0.5, 1.5)
        outcome, skipped = self._arrive(workers, [member], arrival, now=0.5)
        assert outcome.recomputed_workers == 0
        assert skipped == 1

    def test_predicted_hop_of_a_fallback_member_is_refreshed(self):
        # No real task in reach: the worker plans over predicted tasks, and
        # a predicted arrival one hop from a predicted member joins that set.
        workers = [Worker(1, Point(0.0, 0.0), 1.0, 0.0, 1000.0)]
        tasks = [
            Task(100, Point(50.0, 50.0), 0.0, 1000.0),
            Task(200, Point(0.8, 0.0), 0.0, 1000.0, predicted=True),
        ]
        arrival = Task(201, Point(1.6, 0.0), 0.1, 1000.0, predicted=True)
        planner, obs = self._warm()
        self._step(planner, obs, workers, tasks, 0.0)
        assert planner._engine._worker_entries[1].fallback
        outcome, skipped = self._step(planner, obs, workers, tasks + [arrival], 0.1)
        assert outcome.recomputed_workers == 1
        assert skipped == 0
        assert 201 in planner._engine._worker_entries[1].uncapped_ids

    @pytest.mark.parametrize("x, refreshed", [(0.5, True), (1.5, False)])
    def test_predicted_arrival_for_an_empty_set_needs_direct_reach(self, x, refreshed):
        # The real set is empty and no predicted task existed yet: only a
        # directly reachable predicted arrival can make the fallback set
        # non-empty.
        workers = [Worker(1, Point(0.0, 0.0), 1.0, 0.0, 1000.0)]
        tasks = [Task(100, Point(50.0, 50.0), 0.0, 1000.0)]
        arrival = Task(200, Point(x, 0.0), 0.1, 1000.0, predicted=True)
        outcome, skipped = self._arrive(workers, tasks, arrival)
        assert outcome.recomputed_workers == int(refreshed)
        assert skipped == int(not refreshed)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_arrival_stream_matches_empty_cache(self, seed):
        # Real and predicted arrivals, removals and moves over a fleet whose
        # balls overlap: warm == empty-cache engine at every step, with the
        # exact test clearing some ball hits along the way.
        rng = random.Random(4200 + seed)
        workers = {
            i: Worker(
                i,
                Point(rng.uniform(0, 8), rng.uniform(0, 8)),
                rng.uniform(0.6, 1.8),
                0.0,
                rng.uniform(40, 80),
            )
            for i in range(rng.randint(5, 9))
        }
        tasks = {}
        planner, obs = self._warm()
        now, next_tid, skipped_total = 0.0, 100, 0
        for _ in range(40):
            event = rng.random()
            if event < 0.15 and tasks:
                del tasks[rng.choice(sorted(tasks))]
            elif event < 0.8:
                tasks[next_tid] = Task(
                    next_tid,
                    Point(rng.uniform(0, 8), rng.uniform(0, 8)),
                    now,
                    now + rng.uniform(2.0, 20.0),
                    predicted=rng.random() < 0.3,
                )
                next_tid += 1
            else:
                wid = rng.choice(sorted(workers))
                workers[wid] = workers[wid].moved_to(
                    Point(rng.uniform(0, 8), rng.uniform(0, 8))
                )
            snapshot = [t for _, t in sorted(tasks.items()) if not t.is_expired(now)]
            if snapshot:
                _, skipped = self._step(
                    planner, obs, [w for _, w in sorted(workers.items())], snapshot, now
                )
                skipped_total += skipped
            now += rng.uniform(0.0, 1.0)
        assert skipped_total > 0



class TestIdentityPass:
    """One identity pass over the snapshot decides who is refreshed: an
    unchanged ``Worker`` object costs one ``is`` check, an equal-field
    replacement one field compare (after which the entry re-latches the
    new object), and only the work list reaches ``_refresh_worker`` (which
    ends in ``_refresh_sequences``) or ``_refresh_sequences`` alone.  Every
    step is held to an empty-cache engine."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count field-compare fallbacks and the two refresh kinds."""
        from repro.assignment import incremental

        counts = {"unchanged": 0, "refresh": [], "sequences": []}
        compare = incremental._worker_unchanged
        refresh = incremental.IncrementalPlanEngine._refresh_worker
        sequences = incremental.IncrementalPlanEngine._refresh_sequences

        def counting_compare(fingerprint, worker):
            counts["unchanged"] += 1
            return compare(fingerprint, worker)

        def counting_refresh(self, worker, *args):
            counts["refresh"].append(worker.worker_id)
            return refresh(self, worker, *args)

        def counting_sequences(self, worker, *args):
            counts["sequences"].append(worker.worker_id)
            return sequences(self, worker, *args)

        monkeypatch.setattr(incremental, "_worker_unchanged", counting_compare)
        monkeypatch.setattr(
            incremental.IncrementalPlanEngine, "_refresh_worker", counting_refresh
        )
        monkeypatch.setattr(
            incremental.IncrementalPlanEngine, "_refresh_sequences", counting_sequences
        )

        def reset():
            counts.update(unchanged=0, refresh=[], sequences=[])

        counts["reset"] = reset
        return counts

    @staticmethod
    def _snapshot():
        rng = random.Random(31)
        workers = [
            Worker(i, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 2.0, 0.0, 1000.0)
            for i in range(6)
        ]
        tasks = [
            Task(100 + j, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, 1000.0)
            for j in range(20)
        ]
        return workers, tasks

    @staticmethod
    def _plan(planner, workers, tasks, now, calls):
        """Plan warm; return the outcome and the calls that plan made."""
        calls["reset"]()
        outcome = planner.plan(workers, tasks, now)
        made = dict(calls)
        calls["reset"]()  # fresh lists: the cold plan below counts apart
        cold = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        assert _signature(outcome) == _signature(cold.plan(workers, tasks, now))
        return outcome, made

    def test_quiet_epoch_touches_no_worker(self, calls):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        self._plan(planner, workers, tasks, 0.0, calls)
        quiet, made = self._plan(planner, workers, tasks, 0.1, calls)
        assert made["unchanged"] == 0
        assert made["refresh"] == [] and made["sequences"] == []
        assert quiet.reused_workers == len(workers)

    def test_equal_field_replacement_is_reused_and_relatched(self, calls):
        import dataclasses

        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        self._plan(planner, workers, tasks, 0.0, calls)
        copies = [dataclasses.replace(worker) for worker in workers]
        assert all(c is not w and c == w for c, w in zip(copies, workers))
        outcome, made = self._plan(planner, copies, tasks, 0.1, calls)
        assert made["unchanged"] == len(copies)
        assert made["refresh"] == [] and made["sequences"] == []
        assert outcome.reused_workers == len(copies)
        entries = planner._engine._worker_entries
        assert all(entries[c.worker_id].worker is c for c in copies)
        # Re-latched: the copies now pass on identity alone.
        _, made = self._plan(planner, copies, tasks, 0.2, calls)
        assert made["unchanged"] == 0

    def test_moved_worker_is_refreshed(self, calls):
        workers, tasks = self._snapshot()
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        self._plan(planner, workers, tasks, 0.0, calls)
        moved = list(workers)
        moved[2] = moved[2].moved_to(Point(4.0, 4.0))
        outcome, made = self._plan(planner, moved, tasks, 0.1, calls)
        assert made["unchanged"] == 1
        assert made["refresh"] == [moved[2].worker_id]
        assert outcome.recomputed_workers == 1
        assert planner._engine._worker_entries[moved[2].worker_id].worker is moved[2]

    def test_worker_past_only_its_sequence_horizon_refreshes_sequences(self, calls):
        # Via ``a`` the worker reaches ``b`` by 1 + sqrt(2); directly by 1.
        # The sequence (a, b) therefore dies before ``b`` leaves the
        # reachable set: between the two horizons only ``Q_w`` is redone.
        workers = [Worker(1, Point(0.0, 0.0), 2.0, 0.0, 1000.0)]
        tasks = [
            Task(100, Point(0.0, 1.0), 0.0, 1000.0),
            Task(101, Point(1.0, 0.0), 0.0, 10.0),
        ]
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        self._plan(planner, workers, tasks, 0.0, calls)
        entry = planner._engine._worker_entries[1]
        now = 8.0
        assert entry.seq_horizon <= now < entry.reach_horizon
        outcome, made = self._plan(planner, workers, tasks, now, calls)
        assert made["refresh"] == []
        assert made["sequences"] == [1]
        assert outcome.recomputed_workers == 1


class TestWorkerEviction:
    """Entries of workers gone for more than ``_COMPONENT_CACHE_TTL`` epochs
    are dropped once the table outgrows ``max(64, 2·W)``; a worker's
    ``last_seen`` is stamped as it leaves, so one that was present for
    longer than the TTL is not dropped the moment it leaves, and present
    workers are never dropped."""

    def test_departed_entries_dropped_after_ttl(self):
        from repro.assignment.incremental import _COMPONENT_CACHE_TTL as ttl

        # A line of isolated workers, every third one with a task of its
        # own, and one task far off that nobody reaches yet.
        fleet = [Worker(i, Point(10.0 * i, 0.0), 1.5, 0.0, 1e6) for i in range(70)]
        tasks = [
            Task(1000 + i, Point(10.0 * i + 0.5, 0.0), 0.0, 1e6) for i in range(0, 70, 3)
        ] + [Task(999, Point(500.0, 500.0), 0.0, 1e6)]
        stay, leave = fleet[:2], fleet[2:]
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        epoch, now = 0, 0.0

        def step(workers):
            nonlocal epoch, now
            epoch += 1
            now += 0.01
            return planner.plan(workers, tasks, now)

        def entries():
            return planner._engine._worker_entries

        # Present for longer than the TTL, then most of the fleet leaves.
        for _ in range(ttl + 6):
            step(fleet)
        left_at = epoch
        for _ in range(ttl):
            step(stay)
            # Gone for at most the TTL: still cached, and so is the fleet
            # that stayed (present workers are never dropped).
            assert len(entries()) == len(fleet)
        step(stay)
        assert epoch - left_at == ttl + 1  # absent for more than the TTL
        assert sorted(entries()) == [w.worker_id for w in stay]
        gone = {w.worker_id for w in leave}
        assert not any(gone & owners for owners in planner._engine._task_owners.values())

        # A returning worker is refreshed from scratch and plans like an
        # empty-cache engine: back where it was, or (worker 4, whose old
        # plan was empty) next to the task nobody could reach.
        for back in (fleet[3], fleet[4].moved_to(Point(500.5, 500.0))):
            snapshot = stay + [back]
            outcome = step(snapshot)
            assert back.worker_id in entries()
            assert outcome.recomputed_workers >= 1
            cold = TaskPlanner(PlannerConfig(), travel=TRAVEL)
            assert _signature(outcome) == _signature(cold.plan(snapshot, tasks, now))


class TestDispatch:
    """The dispatch stage: every component search runs in process, in
    submission order, inside the engine's ``dispatch`` span."""

    @staticmethod
    def _snapshot(seed):
        return random_instance(random.Random(seed), max_workers=12, max_tasks=36)

    def test_expired_deadline_skips_every_job(self):
        """A deadline already in the past never reaches a search engine."""
        workers, tasks = self._snapshot(41)
        planner = TaskPlanner(PlannerConfig(deadline_s=0.0), travel=TRAVEL)
        obs = Observability()
        planner.attach_observability(obs)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.rung == "greedy" and outcome.deadline_hit
        assert outcome.nodes_expanded == 0
        searches = [e for e in obs.tracer.events if e["name"] == "component.search"]
        assert searches
        assert all(e["args"]["skipped"] for e in searches)

        job = ComponentJob(
            index=0,
            mode="bnb",
            root=PartitionNode(workers=[0]),
            worker_ids=(0,),
            sequences_by_worker={0: []},
            workers_by_id={},
            task_ids=frozenset(),
        )
        result = run_component_job(job, deadline=0.0)
        assert result.skipped and result.selections == () and result.nodes_expanded == 0

    def test_empty_dispatch(self):
        """A replay whose components all hit the cache dispatches nothing."""
        workers, tasks = self._snapshot(7)
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        obs = Observability()
        planner.attach_observability(obs)
        first = planner.plan(workers, tasks, 0.0)
        assert first.searched_components > 0
        seen = len(obs.tracer.events)
        replay = planner.plan(workers, tasks, 0.0)
        events = obs.tracer.events[seen:]
        dispatch = [e for e in events if e["name"] == "dispatch"]
        assert [e["args"]["jobs"] for e in dispatch] == [0]
        assert not [e for e in events if e["name"] == "component.search"]
        assert replay.searched_components == 0
        assert _signature(replay) == _signature(first)

    def test_experience_collection_leaves_live_cache_untouched(self):
        """Collection runs the pipeline on a throw-away cache: the live one
        neither serves it (everything is searched, TVF bypassed) nor keeps
        anything from it."""
        workers, tasks = self._snapshot(72)
        planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
        warm = planner.plan(workers, tasks, 0.0)
        engine = planner._engine
        entries = dict(engine._worker_entries)
        versions = {wid: entry.version for wid, entry in entries.items()}
        components = dict(engine._components)

        collected = planner.plan(workers, tasks, 0.0, collect_experience=True)
        assert collected.experience
        assert collected.reused_workers == collected.reused_components == 0
        assert collected.searched_components == collected.num_components

        assert engine._worker_entries == entries
        assert {w: e.version for w, e in engine._worker_entries.items()} == versions
        assert engine._components == components
        replay = planner.plan(workers, tasks, 0.0)
        assert replay.reused_workers == len(workers)
        assert replay.searched_components == 0
        assert _signature(replay)[0] == _signature(warm)[0]

    def test_executor_accepts_only_serial(self):
        assert PlannerConfig().executor == "serial"
        with pytest.raises(ValueError):
            PlannerConfig(executor="parallel")

    def test_executor_env_var_is_ignored(self, monkeypatch):
        workers, tasks = self._snapshot(19)
        expected = _signature(
            TaskPlanner(PlannerConfig(), travel=TRAVEL).plan(workers, tasks, 0.0)
        )
        monkeypatch.setenv("REPRO_EXECUTOR", "parallel")
        config = PlannerConfig()
        assert config.executor == "serial"
        outcome = TaskPlanner(config, travel=TRAVEL).plan(workers, tasks, 0.0)
        assert _signature(outcome) == expected
