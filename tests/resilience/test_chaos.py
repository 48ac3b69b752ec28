"""Chaos suite: seeded fault streams must not kill the platform.

Every experiment here is reproducible by construction — the fault injector
perturbs streams as a pure function of ``(events, seed)`` and corrupts
travel queries by coordinate hashing — so assertions can be exact, not
merely statistical.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAStrategy, GreedyStrategy
from repro.core.events import EventKind, build_event_stream
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datasets.yueche import generate_yueche
from repro.resilience.chaos import ChaosConfig, ChaosTravelModel, FaultInjector
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.simulation.record import EpochRecord
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

FAULTY = ChaosConfig(
    seed=13,
    worker_dropout_rate=0.3,
    duplicate_event_rate=0.15,
    reorder_event_rate=0.1,
    malformed_event_rate=0.1,
)


@pytest.fixture(scope="module")
def workload():
    return generate_yueche(scale=0.015, seed=7)


def _event_signature(events):
    return [
        (
            event.time,
            event.kind.value,
            event.payload.worker_id if event.is_worker else event.payload.task_id,
        )
        for event in events
    ]


class TestPerturbEvents:
    def test_pure_in_seed(self, workload):
        events = workload.instance.event_stream()
        first = FaultInjector(FAULTY).perturb_events(events)
        second = FaultInjector(FAULTY).perturb_events(events)
        assert _event_signature(first) == _event_signature(second)

    def test_different_seeds_differ(self, workload):
        events = workload.instance.event_stream()
        a = FaultInjector(FAULTY).perturb_events(events)
        b = FaultInjector(dataclasses.replace(FAULTY, seed=14)).perturb_events(events)
        assert _event_signature(a) != _event_signature(b)

    def test_zero_rates_pass_through(self, workload):
        events = workload.instance.event_stream()
        untouched = FaultInjector(ChaosConfig(seed=13)).perturb_events(events)
        assert untouched == list(events)

    def test_injects_each_fault_kind(self, workload):
        events = workload.instance.event_stream()
        perturbed = FaultInjector(FAULTY).perturb_events(events)
        signature = _event_signature(perturbed)
        # Duplicates: some (time, kind, id) triple appears twice.
        assert len(signature) > len(set(signature))
        # Malformed: injected tasks carry the injector's negative id range.
        malformed = [
            event
            for event in perturbed
            if event.is_task and event.payload.task_id <= -1_000_000
        ]
        assert malformed
        # Reordering: the stream is no longer time-sorted.
        times = [event.time for event in perturbed]
        assert times != sorted(times)
        # Dropout: some worker id now arrives twice (drop + rejoin).
        worker_arrivals = [
            event.payload.worker_id for event in perturbed if event.is_worker
        ]
        assert len(worker_arrivals) > len(set(worker_arrivals))

    def test_crash_schedule_is_one_shot(self):
        injector = FaultInjector(ChaosConfig(crash_at_epoch=3))
        assert not injector.should_crash(2, mid=False)
        assert not injector.should_crash(3, mid=True)  # wrong point in epoch
        assert injector.should_crash(3, mid=False)
        assert not injector.should_crash(3, mid=False)  # fired once already


class TestChaosTravelModel:
    def test_corruption_is_deterministic(self):
        config = ChaosConfig(seed=5, nan_travel_rate=0.3, negative_travel_rate=0.2)
        model_a = ChaosTravelModel(EuclideanTravelModel(speed=1.0), config)
        model_b = ChaosTravelModel(EuclideanTravelModel(speed=1.0), config)
        points = [Point(float(i), float(j)) for i in range(6) for j in range(6)]
        for origin in points[:6]:
            for destination in points:
                first = model_a.distance(origin, destination)
                second = model_b.distance(origin, destination)
                assert (math.isnan(first) and math.isnan(second)) or first == second

    def test_corruption_rates_apply(self):
        config = ChaosConfig(seed=5, nan_travel_rate=0.25, negative_travel_rate=0.25)
        model = ChaosTravelModel(EuclideanTravelModel(speed=1.0), config)
        points = [Point(float(i) * 0.7, float(j) * 1.3) for i in range(12) for j in range(12)]
        values = [model.distance(points[0], p) for p in points[1:]]
        nans = sum(1 for v in values if math.isnan(v))
        negatives = sum(1 for v in values if v < 0)
        clean = sum(1 for v in values if v >= 0)
        assert nans and negatives and clean

    def test_wrap_travel_only_when_needed(self):
        base = EuclideanTravelModel(speed=1.0)
        plain = FaultInjector(ChaosConfig(seed=1)).wrap_travel(base)
        assert plain is base
        wrapped = FaultInjector(ChaosConfig(seed=1, nan_travel_rate=0.1)).wrap_travel(base)
        assert isinstance(wrapped, ChaosTravelModel)

    def test_matrix_kernel_disabled(self):
        import numpy as np

        config = ChaosConfig(seed=5, nan_travel_rate=0.3)
        model = ChaosTravelModel(EuclideanTravelModel(speed=1.0), config)
        coords = np.array([0.0, 1.0])
        assert model.distance_matrix(coords, coords, coords, coords) is None
        assert model.time_matrix(coords, coords, coords, coords) is None


class TestPlatformUnderChaos:
    def _metrics_are_finite(self, metrics):
        for key, value in metrics.as_dict().items():
            assert math.isfinite(value), f"metric {key} is not finite: {value}"

    def test_survives_event_faults(self, workload):
        injector = FaultInjector(FAULTY)
        platform = SCPlatform(
            workload.instance,
            DTAStrategy(config=PlannerConfig()),
            PlatformConfig(fault_injector=injector),
        )
        metrics = platform.run()
        self._metrics_are_finite(metrics)
        assert metrics.rejected_events > 0  # malformed events were dropped
        assert metrics.duplicate_events > 0  # duplicate deliveries ignored
        assert metrics.assigned_tasks >= 0

    def test_event_faults_are_reproducible(self, workload):
        states = []
        for _ in range(2):
            platform = SCPlatform(
                workload.instance,
                DTAStrategy(config=PlannerConfig()),
                PlatformConfig(fault_injector=FaultInjector(FAULTY)),
            )
            states.append(platform.run().deterministic_state())
        assert states[0] == states[1]

    def test_survives_corrupted_travel(self, workload):
        config = ChaosConfig(seed=21, nan_travel_rate=0.05, negative_travel_rate=0.05)
        chaos_travel = ChaosTravelModel(workload.instance.travel, config)
        instance = ATAInstance(
            workload.instance.workers,
            workload.instance.tasks,
            travel=chaos_travel,
            name="chaos-travel",
        )
        platform = SCPlatform(
            instance,
            DTAStrategy(config=PlannerConfig(), travel=chaos_travel),
        )
        metrics = platform.run()
        self._metrics_are_finite(metrics)

    def test_survives_everything_at_once(self, workload):
        config = ChaosConfig(
            seed=3,
            worker_dropout_rate=0.2,
            duplicate_event_rate=0.1,
            reorder_event_rate=0.1,
            malformed_event_rate=0.1,
            nan_travel_rate=0.03,
            negative_travel_rate=0.03,
        )
        injector = FaultInjector(config)
        chaos_travel = injector.wrap_travel(workload.instance.travel)
        instance = ATAInstance(
            workload.instance.workers,
            workload.instance.tasks,
            travel=chaos_travel,
            name="chaos-all",
        )
        platform = SCPlatform(
            instance,
            GreedyStrategy(travel=chaos_travel),
            PlatformConfig(fault_injector=injector),
        )
        metrics = platform.run()
        self._metrics_are_finite(metrics)


class TestDuplicateGuards:
    def _instance(self):
        worker = Worker(1, Point(0.0, 0.0), 5.0, 0.0, 100.0)
        task = Task(1, Point(1.0, 0.0), 0.0, 50.0)
        return ATAInstance([worker], [task], travel=EuclideanTravelModel(speed=1.0))

    def test_duplicate_task_event_ignored(self):
        instance = self._instance()
        platform = SCPlatform(instance, GreedyStrategy())
        platform._reset_run_state(clear_durability=False)
        task = instance.tasks[0]
        events = build_event_stream([], [task]) + build_event_stream([], [task])
        for seq, event in enumerate(events):
            record = EpochRecord(seq=seq, src="a", now=0.0)
            platform._ingest(event, record)
            platform.metrics.fold(record)
        assert platform.metrics.duplicate_events == 1
        assert len(platform._pending) == 1

    def test_duplicate_online_worker_ignored(self):
        instance = self._instance()
        platform = SCPlatform(instance, GreedyStrategy())
        platform._reset_run_state(clear_durability=False)
        worker = instance.workers[0]
        platform._on_worker(worker, EpochRecord(seq=0, src="a", now=0.0))
        moved = platform._workers[1].worker.moved_to(Point(3.0, 3.0))
        platform._workers[1].worker = moved
        duplicate = EpochRecord(seq=1, src="a", now=1.0)
        platform._on_worker(worker, duplicate)  # duplicate while online
        platform.metrics.fold(duplicate)
        assert platform.metrics.duplicate_events == 1
        assert platform._workers[1].worker.location == Point(3.0, 3.0)

    def test_rejoin_after_offline_accepted(self):
        instance = self._instance()
        platform = SCPlatform(instance, GreedyStrategy())
        platform._reset_run_state(clear_durability=False)
        first = Worker(1, Point(0.0, 0.0), 5.0, 0.0, 10.0)
        rejoined = Worker(1, Point(2.0, 2.0), 5.0, 20.0, 100.0)
        joined = EpochRecord(seq=0, src="a", now=0.0)
        platform._on_worker(first, joined)
        rejoin = EpochRecord(seq=1, src="a", now=20.0)
        platform._on_worker(rejoined, rejoin)
        platform.metrics.fold(joined)
        platform.metrics.fold(rejoin)
        assert platform.metrics.duplicate_events == 0
        assert platform._workers[1].worker.location == Point(2.0, 2.0)


class TestEventKindHelpers:
    def test_malformed_task_bypasses_validation(self):
        injector = FaultInjector(ChaosConfig(seed=1, malformed_event_rate=1.0))
        event = injector._malformed_task(5.0, -1_000_001, random.Random(1))
        assert event.kind is EventKind.TASK
        task = event.payload
        bad_coords = math.isnan(task.location.x) or math.isnan(task.location.y)
        bad_lifetime = task.expiration_time <= task.publication_time
        assert bad_coords or bad_lifetime
