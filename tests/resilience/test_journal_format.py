"""The journal format is pinned: old journals resume, new ones match.

Two pins, both recorded before the platform's epoch body was unified:

* ``fixtures/dta_tiny.journal.jsonl`` is a complete ``FileJournal`` of a
  tiny DTA run.  A fresh platform with no checkpoint resumes from it and
  must reach :data:`FIXTURE_STATE`.  The journal covers every epoch, so
  the whole run is replayed from recorded decisions and no planner
  change can move the result — only a change to how entries are read.
* :data:`DECISIONS_SHA256` is the digest of the entries a seeded DTA+TP
  run writes (its ``cpu`` measurement dropped), each serialised the way
  ``FileJournal`` writes it.  It pins the keys, their order and their
  values: dispatches, repositioning legs, rung and latency class.

The fixture was written by::

    journal = FileJournal("tests/resilience/fixtures/dta_tiny.journal.jsonl")
    SCPlatform(tiny_stream(), DTAStrategy(config=PlannerConfig()),
               PlatformConfig(journal=journal)).run()

The tests only read it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAPlusTPStrategy, DTAStrategy
from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.resilience.journal import FileJournal, InMemoryJournal
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.simulation.record import EpochRecord
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

FIXTURE = Path(__file__).parent / "fixtures" / "dta_tiny.journal.jsonl"

FIXTURE_STATE = {
    "assigned_tasks": 13,
    "dispatched_tasks": 13,
    "expired_tasks": 2,
    "replans": 21,
    "num_cpu_samples": 21,
    "assigned_per_worker": {0: 6, 1: 2, 3: 3, 4: 2},
    "rejected_events": 0,
    "duplicate_events": 0,
    "invariant_repairs": 0,
    "degradation_rungs": {"full": 21},
}

DECISIONS_SHA256 = "42299851ab40b98a91c6208c67a5c3d1cd3ce24b740a557a227f8c67110486e2"


def tiny_stream(seed: int = 5, num_workers: int = 5, num_tasks: int = 16):
    rng = random.Random(seed)
    workers = []
    for wid in range(num_workers):
        on = rng.uniform(0.0, 100.0)
        workers.append(
            Worker(
                wid,
                Point(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)),
                1.0,
                on,
                on + rng.uniform(200.0, 400.0),
            )
        )
    tasks = []
    for tid in range(num_tasks):
        published = rng.uniform(0.0, 300.0)
        tasks.append(
            Task(
                tid,
                Point(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)),
                published,
                published + rng.uniform(20.0, 90.0),
            )
        )
    return ATAInstance(workers, tasks, travel=EuclideanTravelModel(speed=0.02))


def journal_digest() -> str:
    instance = tiny_stream(seed=9, num_workers=6, num_tasks=24)
    mirrors = [
        Task(
            task.task_id + 1_000_000,
            task.location,
            task.publication_time - 60.0,
            task.expiration_time,
            predicted=True,
        )
        for task in instance.tasks
    ]
    strategy = DTAPlusTPStrategy(
        config=PlannerConfig(),
        predicted_task_provider=lambda now: [
            task for task in mirrors if task.publication_time <= now
        ],
    )
    journal = InMemoryJournal()
    SCPlatform(instance, strategy, PlatformConfig(journal=journal)).run()
    digest = hashlib.sha256()
    for entry in journal.entries():
        kept = {key: value for key, value in entry.items() if key != "cpu"}
        digest.update((json.dumps(kept, separators=(",", ":")) + "\n").encode())
    return digest.hexdigest()


def test_fixture_journal_resumes_to_its_golden_state():
    platform = SCPlatform(tiny_stream(), DTAStrategy(config=PlannerConfig()))
    metrics = platform.resume(journal=FileJournal(FIXTURE))
    assert metrics.deterministic_state() == FIXTURE_STATE
    # Replayed, not re-planned: the CPU samples are the journaled ones.
    entries = FileJournal(FIXTURE).entries()
    assert metrics.cpu_times == [entry["cpu"] for entry in entries if entry["counted"]]


def test_fixture_journal_covers_the_whole_run():
    entries = list(FileJournal(FIXTURE).entries())
    assert [entry["seq"] for entry in entries] == list(range(len(entries)))
    assert sum(len(entry["dispatches"]) for entry in entries) == (
        FIXTURE_STATE["assigned_tasks"]
    )


def test_fixture_entries_round_trip_through_the_record():
    for entry in FileJournal(FIXTURE).entries():
        assert EpochRecord.from_entry(entry).to_entry() == entry


def test_journaled_decisions_are_pinned():
    assert journal_digest() == DECISIONS_SHA256
