"""Kill at every epoch, resume, and land on the uninterrupted run.

The resume contract (see :meth:`SCPlatform.resume`) holds at *any*
epoch, not just at a few hand-picked ones: for every epoch of a small
stream, a run is killed there — before the journal write
(``crash_mid_epoch=True``) and after it — and a resume must reproduce
the uninterrupted run's :meth:`SimulationMetrics.deterministic_state`
and its journal, entry for entry.  Two journal fields are exempt: the
measured ``cpu``, and the latency class ``cls``, because a resumed
process starts with a cold plan cache, so its first live epoch is
``full`` where the uninterrupted run's was ``incremental``.

Three strategies cover the three replay paths:

* DTA replays from the journal alone;
* FTA carries frozen sequences across epochs, so replay re-runs its
  planning calls (the ``snapshot_state()`` path);
* DTA+TP with every real task mirrored as a prediction repositions idle
  workers, so replay re-applies journaled ``repositions`` legs.

The streams are sized so the whole sweep stays a few seconds.
"""

from __future__ import annotations

import random

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAPlusTPStrategy, DTAStrategy, FTAStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.resilience.chaos import ChaosConfig, FaultInjector, InjectedCrash
from repro.resilience.checkpoint import InMemoryCheckpointStore
from repro.resilience.journal import InMemoryJournal
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

#: Checkpoint cadence: short enough that most crashes resume from a
#: snapshot plus a journal tail, long enough that some replay spans
#: several epochs.
INTERVAL = 4
#: How long before a real task's publication its mirrored prediction is
#: visible to DTA+TP.
LEAD_S = 60.0


def _stream(seed: int, num_workers: int, num_tasks: int, horizon: float = 600.0):
    rng = random.Random(seed)
    workers = []
    for wid in range(num_workers):
        on = rng.uniform(0.0, horizon / 3)
        workers.append(
            Worker(
                wid,
                Point(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)),
                1.0,
                on,
                on + rng.uniform(horizon / 2, horizon),
            )
        )
    tasks = []
    for tid in range(num_tasks):
        published = rng.uniform(0.0, horizon)
        tasks.append(
            Task(
                tid,
                Point(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)),
                published,
                published + rng.uniform(20.0, 90.0),
            )
        )
    return ATAInstance(workers, tasks, travel=EuclideanTravelModel(speed=0.02))


def _mirror_provider(instance):
    mirrors = [
        Task(
            task.task_id + 1_000_000,
            task.location,
            task.publication_time - LEAD_S,
            task.expiration_time,
            predicted=True,
        )
        for task in instance.tasks
    ]
    return lambda now: [task for task in mirrors if task.publication_time <= now]


STRATEGIES = {
    "DTA": (lambda instance: DTAStrategy(config=PlannerConfig()), (8, 30, 1)),
    "FTA": (lambda instance: FTAStrategy(config=PlannerConfig()), (6, 30, 2)),
    "DTA+TP": (
        lambda instance: DTAPlusTPStrategy(
            config=PlannerConfig(), predicted_task_provider=_mirror_provider(instance)
        ),
        (6, 30, 1),
    ),
}


def _platform(instance, make, journal, store, crash_epoch=None, mid=False):
    injector = None
    if crash_epoch is not None:
        injector = FaultInjector(
            ChaosConfig(crash_at_epoch=crash_epoch, crash_mid_epoch=mid)
        )
    return SCPlatform(
        instance,
        make(instance),
        PlatformConfig(
            journal=journal,
            checkpoint_store=store,
            checkpoint_interval=INTERVAL,
            fault_injector=injector,
        ),
    )


def _decisions(journal):
    return [
        {key: value for key, value in entry.items() if key not in ("cpu", "cls")}
        for entry in journal.entries()
    ]


@pytest.fixture(scope="module", params=sorted(STRATEGIES))
def uninterrupted(request):
    make, shape = STRATEGIES[request.param]
    instance = _stream(shape[2], shape[0], shape[1])
    journal = InMemoryJournal()
    platform = _platform(instance, make, journal, InMemoryCheckpointStore())
    state = platform.run().deterministic_state()
    platform.close()
    return request.param, instance, state, _decisions(journal)


def test_streams_exercise_every_replay_path(uninterrupted):
    name, _, state, decisions = uninterrupted
    assert len(decisions) >= 40
    assert state["assigned_tasks"] >= 10
    assert any(entry["src"] == "w" for entry in decisions)
    if name == "DTA+TP":
        assert sum(len(entry["repositions"]) for entry in decisions) >= 20


@pytest.mark.parametrize("mid", [False, True], ids=["after-write", "mid-epoch"])
def test_kill_at_every_epoch_and_resume(uninterrupted, mid):
    name, instance, state, decisions = uninterrupted
    make = STRATEGIES[name][0]
    mismatches = []
    for epoch in range(len(decisions)):
        journal, store = InMemoryJournal(), InMemoryCheckpointStore()
        platform = _platform(instance, make, journal, store, crash_epoch=epoch, mid=mid)
        with pytest.raises(InjectedCrash):
            platform.run()
        resumed = platform.resume().deterministic_state()
        platform.close()
        if resumed != state or _decisions(journal) != decisions:
            mismatches.append(epoch)
    assert mismatches == [], f"{name}: resume diverged after a kill at {mismatches}"
