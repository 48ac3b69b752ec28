"""Executor equivalence: serial and parallel backends are bit-for-bit equal.

The contract under test (see :mod:`repro.assignment.executor`): the
dispatch stage is an implementation detail.  For any snapshot, stream,
deadline state or worker count, routing component searches through the
process pool must produce exactly the assignments, planner outcomes,
simulation metrics and TVF experience the serial reference produces —
the merge stage reassembles results in submission order, cross-component
coupling stays in the parent, and a dying pool degrades to a serial
re-run rather than an error.
"""

from __future__ import annotations

import random

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False

import repro.assignment.executor as executor_mod
from repro.assignment.executor import (
    EXECUTOR_ENV,
    MAX_WORKERS_ENV,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    shutdown_shared_pools,
)
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.strategies import DTAStrategy, make_strategy
from repro.assignment.tvf import TaskValueFunction
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.yueche import generate_yueche
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_shared_pools()


@pytest.fixture(scope="module")
def workload():
    return generate_yueche(scale=0.02, seed=3)


def random_snapshot(rng, max_workers=12, max_tasks=36, span=6.0):
    """Random geometric snapshot -> (workers, tasks)."""
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, span), rng.uniform(0, span)),
            rng.uniform(0.8, 3.0),
            0.0,
            rng.uniform(10, 60),
        )
        for i in range(rng.randint(2, max_workers))
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, span), rng.uniform(0, span)), 0.0, rng.uniform(2, 50))
        for j in range(rng.randint(3, max_tasks))
    ]
    return workers, tasks


def canonical(assignment):
    """Order-independent bit-level view of an assignment."""
    return sorted(
        (plan.worker.worker_id, tuple(task.task_id for task in plan.sequence))
        for plan in assignment
    )


def outcome_state(outcome):
    """Everything in a PlanningOutcome that must not depend on the backend."""
    return {
        "assignment": canonical(outcome.assignment),
        "planned_tasks": outcome.planned_tasks,
        "nodes_expanded": outcome.nodes_expanded,
        "num_components": outcome.num_components,
        "reused_components": outcome.reused_components,
        "searched_components": outcome.searched_components,
        "rung": outcome.rung,
        "deadline_hit": outcome.deadline_hit,
    }


def make_planner(executor, max_workers=0, **overrides):
    config = PlannerConfig(executor=executor, max_workers=max_workers, **overrides)
    return TaskPlanner(config, travel=TRAVEL)


class TestExecutorUnit:
    def test_factory(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        parallel = make_executor("parallel", max_workers=2)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.max_workers == 2
        with pytest.raises(ValueError):
            make_executor("threads")
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=-1)

    def test_empty_dispatch(self):
        for backend in (SerialExecutor(), ParallelExecutor(max_workers=2)):
            results, stats = backend.run([])
            assert results == []
            assert stats.jobs == 0

    @pytest.mark.parametrize("kind", ["serial", "parallel"])
    def test_expired_deadline_skips_every_job(self, kind):
        """A deadline already in the past never reaches a search engine."""
        rng = random.Random(41)
        workers, tasks = random_snapshot(rng)
        planner = make_planner(kind, max_workers=2, deadline_s=0.0)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome.rung in ("greedy", "partial")
        assert outcome.deadline_hit

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        """A dying pool costs latency, never answers."""
        rng = random.Random(97)
        workers, tasks = random_snapshot(rng, max_workers=14, max_tasks=40)
        serial = make_planner("serial").plan(workers, tasks, 0.0)

        def broken_pool(max_workers):
            raise RuntimeError("injected pool failure")

        monkeypatch.setattr(executor_mod, "_shared_pool", broken_pool)
        # Force every job onto the (broken) pool so the fallback is the
        # only way this plan can complete.
        monkeypatch.setattr(executor_mod, "INLINE_MIN_SEQUENCES", 0)
        planner = make_planner("parallel", max_workers=2)
        outcome = planner.plan(workers, tasks, 0.0)
        assert outcome_state(outcome) == outcome_state(serial)
        assert planner.executor()._fallbacks >= 1

    def test_fallback_stats_are_per_dispatch(self, monkeypatch):
        """Regression: ``ExecutorStats.fallbacks`` used to report the
        executor's cumulative lifetime count, so one historic pool failure
        was re-billed on every later (successful) dispatch by any consumer
        summing per-epoch stats.  The stats field is per-dispatch (1 on
        the failing epoch, 0 afterwards); the lifetime total stays on
        ``ParallelExecutor._fallbacks``; and the broken pool is evicted so
        the next dispatch gets a fresh one."""
        rng = random.Random(53)
        # A fresh snapshot per epoch: identical snapshots would be served
        # from the component cache without ever consulting the pool.
        snapshots = [random_snapshot(rng, max_workers=14, max_tasks=40) for _ in range(3)]
        monkeypatch.setattr(executor_mod, "INLINE_MIN_SEQUENCES", 0)

        real_pool = executor_mod._shared_pool
        fail_next = [False]

        def flaky_pool(max_workers):
            if fail_next[0]:
                fail_next[0] = False
                raise RuntimeError("injected pool failure")
            return real_pool(max_workers)

        monkeypatch.setattr(executor_mod, "_shared_pool", flaky_pool)

        captured = []
        original_run = ParallelExecutor.run

        def recording_run(self, jobs, deadline=None, obs=executor_mod.OBS_DISABLED):
            results, stats = original_run(self, jobs, deadline, obs=obs)
            captured.append(stats)
            return results, stats

        monkeypatch.setattr(ParallelExecutor, "run", recording_run)

        planner = make_planner("parallel", max_workers=2)
        planner.plan(*snapshots[0], 0.0)  # prime the shared pool
        primed = executor_mod._SHARED_POOLS.get(2)
        assert primed is not None

        fail_next[0] = True
        planner.plan(*snapshots[1], 0.1)  # pool dies -> serial fallback
        planner.plan(*snapshots[2], 0.2)  # healthy again on a fresh pool

        assert [stats.fallbacks for stats in captured] == [0, 1, 0]
        assert planner.executor()._fallbacks == 1
        # The broken pool was evicted; the recovery dispatch rebuilt one.
        fresh = executor_mod._SHARED_POOLS.get(2)
        assert fresh is not None
        assert fresh is not primed

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "parallel")
        monkeypatch.setenv(MAX_WORKERS_ENV, "3")
        config = PlannerConfig()
        assert config.executor == "parallel"
        assert config.max_workers == 3
        # An explicit value always beats the environment.
        explicit = PlannerConfig(executor="serial", max_workers=5)
        assert explicit.executor == "serial"
        assert explicit.max_workers == 5

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(executor="gpu")


class TestSnapshotEquivalence:
    @pytest.mark.parametrize("max_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_plan_identical(self, seed, max_workers):
        rng = random.Random(5300 + seed)
        workers, tasks = random_snapshot(rng)
        serial = make_planner("serial").plan(workers, tasks, 0.0)
        parallel = make_planner("parallel", max_workers=max_workers).plan(
            workers, tasks, 0.0
        )
        assert outcome_state(parallel) == outcome_state(serial)

    @pytest.mark.parametrize("seed", range(4))
    def test_plan_identical_with_forced_pooling(self, seed, monkeypatch):
        """Every component through the pool: no inline shortcut to hide behind."""
        monkeypatch.setattr(executor_mod, "INLINE_MIN_SEQUENCES", 0)
        rng = random.Random(6400 + seed)
        workers, tasks = random_snapshot(rng)
        serial = make_planner("serial").plan(workers, tasks, 0.0)
        planner = make_planner("parallel", max_workers=2)
        parallel = planner.plan(workers, tasks, 0.0)
        assert outcome_state(parallel) == outcome_state(serial)

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_experience_collection_identical(self, max_workers, monkeypatch):
        """TVF training data must not depend on the backend either."""
        monkeypatch.setattr(executor_mod, "INLINE_MIN_SEQUENCES", 0)
        rng = random.Random(71)
        workers, tasks = random_snapshot(rng)
        serial = make_planner("serial").plan(
            workers, tasks, 0.0, collect_experience=True
        )
        parallel = make_planner("parallel", max_workers=max_workers).plan(
            workers, tasks, 0.0, collect_experience=True
        )
        assert outcome_state(parallel) == outcome_state(serial)
        # Raw (state, action, opt) tuples of plain dicts and floats —
        # directly comparable, order included.
        assert len(serial.experience) > 0
        assert parallel.experience == serial.experience

    def test_experience_collection_leaves_live_cache_untouched(self):
        """Collection runs the pipeline on a throw-away cache: the live one
        neither serves it (everything is searched, TVF bypassed) nor keeps
        anything from it."""
        rng = random.Random(72)
        workers, tasks = random_snapshot(rng)
        planner = make_planner("serial")
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
        assert outcome_state(replay)["assignment"] == outcome_state(warm)["assignment"]

    if HAVE_HYPOTHESIS:

        @given(seed=st.integers(min_value=0, max_value=10_000))
        @settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        def test_plan_identical_property(self, seed):
            rng = random.Random(seed)
            workers, tasks = random_snapshot(rng)
            serial = make_planner("serial").plan(workers, tasks, 0.0)
            parallel = make_planner("parallel", max_workers=2).plan(
                workers, tasks, 0.0
            )
            assert outcome_state(parallel) == outcome_state(serial)


def run_platform(workload, strategy, **platform_kwargs):
    platform = SCPlatform(
        workload.instance, strategy, PlatformConfig(**platform_kwargs)
    )
    try:
        return platform.run().deterministic_state()
    finally:
        platform.close()


class TestStreamEquivalence:
    """Full simulated streams through the incremental engine and the TVF."""

    @pytest.fixture(scope="class")
    def serial_stream(self, workload):
        return run_platform(workload, DTAStrategy(config=PlannerConfig(executor="serial")))

    @pytest.mark.parametrize("max_workers", WORKER_COUNTS)
    def test_incremental_stream(self, workload, serial_stream, max_workers):
        state = run_platform(
            workload,
            DTAStrategy(
                config=PlannerConfig(executor="parallel", max_workers=max_workers)
            ),
        )
        assert state == serial_stream

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_guided_tvf_stream(self, workload, max_workers):
        """DATA-WA trains its TVF from in-stream experience; the training
        data — and hence every guided search after it — must match."""

        def data_wa(executor, workers):
            return make_strategy(
                "data-wa",
                config=PlannerConfig(executor=executor, max_workers=workers),
                travel=workload.instance.travel,
                tvf=TaskValueFunction(seed=0),
            )

        serial = run_platform(workload, data_wa("serial", 0))
        parallel = run_platform(workload, data_wa("parallel", max_workers))
        assert parallel == serial

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_deadline_degraded_stream(self, workload, max_workers):
        """deadline_s=0 forces the greedy rung on every epoch in both
        backends — the deterministic corner of the degradation ladder."""
        serial = run_platform(
            workload,
            DTAStrategy(config=PlannerConfig(executor="serial", deadline_s=0.0)),
        )
        parallel = run_platform(
            workload,
            DTAStrategy(
                config=PlannerConfig(
                    executor="parallel", max_workers=max_workers, deadline_s=0.0
                )
            ),
        )
        assert parallel == serial
        degraded = {
            rung: count
            for rung, count in serial["degradation_rungs"].items()
            if rung != "full"
        }
        assert degraded, "deadline_s=0.0 should degrade every counted epoch"
