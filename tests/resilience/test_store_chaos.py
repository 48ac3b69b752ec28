"""Store-level chaos: corrupted durability records must degrade, not crash.

The checkpoint/journal contract only covers what the platform itself
writes; the medium underneath can still lose or mangle bytes (torn
writes that beat the atomic rename, disk corruption, a truncated copy).
These tests damage the stores directly and assert the recovery ladder:

* a checkpoint whose pickle no longer loads is skipped in favour of the
  next older snapshot;
* with every snapshot corrupted, recovery cold-starts from the journal;
* a gap in the journal sequence (a lost segment, not just a torn tail)
  stops replay at the last contiguous entry and the run continues live;
* so does an entry that parses but is malformed (a missing key, a wrong
  type, a list in place of the dict), while a well-formed entry that
  contradicts the replayed state still raises.

In every case ``resume()`` completes the run; for the deterministic DTA
configuration it still reproduces the uninterrupted baseline bit-for-bit.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAStrategy
from repro.datasets.yueche import generate_yueche
from repro.resilience.chaos import ChaosConfig, FaultInjector, InjectedCrash
from repro.resilience.checkpoint import (
    FileCheckpointStore,
    InMemoryCheckpointStore,
    PlatformCheckpoint,
)
from repro.resilience.journal import FileJournal, InMemoryJournal
from repro.simulation.platform import PlatformConfig, SCPlatform


@pytest.fixture(scope="module")
def workload():
    return generate_yueche(scale=0.02, seed=3)


@pytest.fixture(scope="module")
def baseline_state(workload):
    platform = SCPlatform(workload.instance, DTAStrategy(config=PlannerConfig()))
    return platform.run().deterministic_state()


def _crashed_platform(workload, journal, store, crash_epoch=23, interval=7):
    """Run a DTA platform into an injected crash, leaving durable state."""
    platform = SCPlatform(
        workload.instance,
        DTAStrategy(config=PlannerConfig()),
        PlatformConfig(
            journal=journal,
            checkpoint_store=store,
            checkpoint_interval=interval,
            fault_injector=FaultInjector(ChaosConfig(crash_at_epoch=crash_epoch)),
        ),
    )
    with pytest.raises(InjectedCrash):
        platform.run()
    return platform


class TestStoreListing:
    def test_in_memory_checkpoints_newest_first(self):
        store = InMemoryCheckpointStore()
        for seq in (3, 7, 12):
            store.save(PlatformCheckpoint(seq=seq, payload=b"x"))
        assert [c.seq for c in store.checkpoints()] == [12, 7, 3]

    def test_file_checkpoints_newest_first(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        for seq in (3, 12, 7):
            store.save(PlatformCheckpoint(seq=seq, payload=bytes([seq])))
        listed = store.checkpoints()
        assert [c.seq for c in listed] == [12, 7, 3]
        assert [c.payload for c in listed] == [bytes([12]), bytes([7]), bytes([3])]


class TestTornCheckpoint:
    def test_falls_back_to_older_snapshot(self, workload, baseline_state, caplog):
        journal, store = InMemoryJournal(), InMemoryCheckpointStore()
        platform = _crashed_platform(workload, journal, store, crash_epoch=23)
        assert len(store) >= 2, "test needs at least two snapshots to fall back"
        # Corrupt the newest snapshot the way a torn write would: the
        # payload is no longer a loadable pickle.
        good = store.checkpoints()
        store._checkpoints[-1] = PlatformCheckpoint(
            seq=good[0].seq, payload=good[0].payload[: len(good[0].payload) // 2]
        )
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = platform.resume()
        assert metrics.deterministic_state() == baseline_state
        assert any("failed to restore" in rec.message for rec in caplog.records)

    def test_truncated_file_checkpoint(self, workload, baseline_state, tmp_path, caplog):
        journal = FileJournal(tmp_path / "run.journal")
        store = FileCheckpointStore(tmp_path / "checkpoints")
        _crashed_platform(workload, journal, store, crash_epoch=23)
        journal.close()
        newest = store.checkpoints()[0]
        path = store._path(newest.seq)
        with open(path, "wb") as handle:
            handle.write(newest.payload[: len(newest.payload) // 2])

        # Fresh platform, as after a process kill.
        recovered = SCPlatform(
            workload.instance,
            DTAStrategy(config=PlannerConfig()),
            PlatformConfig(
                journal=FileJournal(tmp_path / "run.journal"),
                checkpoint_store=FileCheckpointStore(tmp_path / "checkpoints"),
                checkpoint_interval=7,
            ),
        )
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = recovered.resume()
        assert metrics.deterministic_state() == baseline_state
        assert any("failed to restore" in rec.message for rec in caplog.records)

    def test_all_checkpoints_corrupt_cold_starts(self, workload, baseline_state, caplog):
        journal, store = InMemoryJournal(), InMemoryCheckpointStore()
        platform = _crashed_platform(workload, journal, store, crash_epoch=23)
        store._checkpoints = [
            PlatformCheckpoint(seq=c.seq, payload=b"\x80garbage")
            for c in store._checkpoints
        ]
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = platform.resume()
        # Every snapshot refused to load, so recovery replayed the whole
        # journal from epoch zero — same determinism, more replay work.
        assert metrics.deterministic_state() == baseline_state


class TestJournalGap:
    def test_gap_stops_replay_and_continues_live(
        self, workload, baseline_state, tmp_path, caplog
    ):
        path = tmp_path / "gap.journal"
        journal = FileJournal(path)
        # Journal only (no checkpoints): replay starts at epoch zero, so a
        # mid-stream gap is guaranteed to sit inside the replayed range.
        platform = _crashed_platform(workload, journal, store=None, crash_epoch=23)
        journal.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) >= 12
        del lines[10]  # lose one mid-stream entry, not just a torn tail
        path.write_text("".join(lines), encoding="utf-8")

        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = platform.resume(journal=FileJournal(path))
        assert any("journal gap" in rec.message for rec in caplog.records)
        # DTA replans every epoch from platform state alone, so redoing
        # the lost span live lands on the same plans the crashed run made.
        assert metrics.deterministic_state() == baseline_state

    def test_gap_after_checkpoint(self, workload, baseline_state, caplog):
        journal, store = InMemoryJournal(), InMemoryCheckpointStore()
        platform = _crashed_platform(workload, journal, store, crash_epoch=23)
        # Newest checkpoint covers epochs < 21 (interval 7); drop a
        # journaled epoch the replay still needs.
        newest_seq = store.checkpoints()[0].seq
        victim = next(
            i
            for i, entry in enumerate(journal.entries())
            if entry["seq"] >= newest_seq
        )
        del journal._entries[victim]
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = platform.resume()
        assert any("journal gap" in rec.message for rec in caplog.records)
        assert metrics.deterministic_state() == baseline_state


def _rewrite_line(path, index, rewrite):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    entry = json.loads(lines[index])
    lines[index] = json.dumps(rewrite(entry)) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _without_src(entry):
    del entry["src"]
    return entry


class TestMalformedJournalEntry:
    @pytest.mark.parametrize(
        "rewrite",
        [
            _without_src,
            lambda entry: {**entry, "dispatches": 7},
            lambda entry: list(entry.values()),
        ],
        ids=["missing-src", "dispatches-not-a-list", "list-not-a-dict"],
    )
    def test_malformed_entry_degrades_to_live_replanning(
        self, workload, baseline_state, tmp_path, caplog, rewrite
    ):
        path = tmp_path / "run.journal"
        platform = _crashed_platform(
            workload, FileJournal(path), InMemoryCheckpointStore(), crash_epoch=23
        )
        platform.config.journal.close()
        # The newest checkpoint covers epochs < 21; entry 22 is replayed.
        _rewrite_line(path, 22, rewrite)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            metrics = platform.resume(journal=FileJournal(path))
        assert any("malformed journal entry" in rec.message for rec in caplog.records)
        assert metrics.deterministic_state() == baseline_state

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda entry: {**entry, "now": entry["now"] + 1.0},
            lambda entry: {**entry, "planned": True, "dispatches": [[0, 10**9]]},
        ],
        ids=["clock-diverges", "dispatch-of-unknown-task"],
    )
    def test_divergent_entry_still_raises(self, workload, tmp_path, rewrite):
        path = tmp_path / "run.journal"
        platform = _crashed_platform(
            workload, FileJournal(path), InMemoryCheckpointStore(), crash_epoch=23
        )
        platform.config.journal.close()
        _rewrite_line(path, 22, rewrite)
        with pytest.raises(RuntimeError):
            platform.resume(journal=FileJournal(path))
