"""Machine-invariant gate: a platform replay allocates no availability windows.

``_WorkerRuntime.is_idle`` runs for every online worker at every epoch and
``availability_remaining`` for every (worker, task) pair the reachability
kernel checks, so neither may build :class:`AvailabilityWindow` objects
per call.  Counted through ``__post_init__`` — no timing involved.
"""

import pytest

from repro.assignment.strategies import DTAStrategy
from repro.core.problem import ATAInstance
from repro.core.worker import AvailabilityWindow
from repro.simulation.platform import SCPlatform


@pytest.fixture
def window_count(monkeypatch):
    built = []
    original = AvailabilityWindow.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(AvailabilityWindow, "__post_init__", counting)
    return built


def test_windowless_replay_constructs_no_window(tiny_workload, window_count):
    instance = tiny_workload.instance
    assert not any(worker.windows for worker in instance.workers)
    platform = SCPlatform(instance, DTAStrategy(travel=instance.travel))
    metrics = platform.run()
    platform.close()
    assert metrics.replans > 0 and metrics.assigned_tasks > 0
    assert window_count == []


def test_windowed_replay_constructs_no_window(tiny_workload, window_count):
    # The windows a worker is given up front are the only ones that exist.
    instance = tiny_workload.instance
    workers = [
        worker.with_windows(
            [
                AvailabilityWindow(worker.on_time, worker.on_time + worker.available_time / 3),
                AvailabilityWindow(worker.off_time - worker.available_time / 3, worker.off_time),
            ]
        )
        for worker in instance.workers
    ]
    windowed = ATAInstance(workers, instance.tasks, travel=instance.travel, name="windowed")
    window_count.clear()
    platform = SCPlatform(windowed, DTAStrategy(travel=windowed.travel))
    metrics = platform.run()
    platform.close()
    assert metrics.replans > 0
    assert window_count == []
