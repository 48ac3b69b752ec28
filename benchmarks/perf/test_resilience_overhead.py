"""Fault-tolerance runtime overhead: the resilient platform vs bare metal.

One measurement, written into the ``degradation_overhead`` section of
``BENCH_planning.json`` (merged, so the sections owned by the other perf
modules survive): a full :class:`SCPlatform` replay of the Yueche-like
quick stream under DTA with every PR 6 feature armed — ingestion
validation, per-epoch WAL entries, periodic checkpoints, the incremental
engine's post-replan invariant check, and a generous planning deadline
(never hit, so the decisions stay identical to bare metal — asserted).

The gate is machine-invariant: deterministic counts of the work the
resilient path adds, which may not exceed the values committed in
``BENCH_planning.json`` — asserted here and by
``benchmarks/perf/check_regression.py`` (kind ``ceiling``):

* ``selfcheck_calls_per_plan`` — invariant sweeps per plan call;
* ``selfcheck_items_per_plan`` — selections checked plus cached worker
  entries swept, per plan call;
* ``journal_entries_per_epoch`` / ``journal_bytes_per_epoch`` — WAL
  entries and their compact-JSON bytes (the wall-clock ``cpu`` field
  left out) per epoch;
* ``checkpoints`` / ``checkpoint_bytes`` — snapshots saved and their
  total pickled payload;
* ``validated_per_event`` — ``validate_event`` calls per stream event.

They are counted on one extra resilient replay whose hooks count instead
of timing.  The same-run wall-clock ``overhead_ratio`` below is recorded
for information only: on a shared 2-vCPU host it read +4.4 to +4.7 %
and had failed its old absolute 1.05 bound 3 of 5 times on unchanged
code, about a third of it being the timing wrapper itself.

Measurement notes for the ratio: the obvious estimator — time a resilient run, time a
bare-metal run, divide — does not survive shared runners.  Back-to-back
identical runs here drift by 10-40% (frequency scaling, noisy
neighbours), an A/A control of the ratio estimator read 0.86, and no
amount of pairing, ordering, or best-of-N recovered a 3% effect from
that.  So the recorded ratio is **same-run instrumented**: one resilient
replay accumulates the CPU time (``time.process_time``) spent inside the
machinery hooks themselves, and the ratio is ``total / (total -
machinery)``.  Numerator and denominator come from the same process in
the same instant, so machine-wide slowdowns scale both together and
cancel; across runs the estimate is stable to a few tenths of a percent
where the A/B estimator swung by whole points.

What counts as machinery: the invariant self-check, WAL entry
construction, checkpoint capture, and event validation.  The first three
are wrapped in place (the wrapper's own clock calls are charged to the
machinery side, biasing the estimate *up*); validation is one tiny call
per arrival event, so rather than drown it in per-call wrapper overhead
it is micro-timed separately over the identical event stream (min over
several passes) and added to the machinery total.  The deadline feature
has no wrappable body at all: its healthy-path cost is a fused integer
compare shared with the pre-existing node-budget test plus one clock
poll per 64 node expansions, structurally below what any timer here can
resolve.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from conftest import print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: The committed baseline whose counts are the ceiling.
COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_planning.json"

#: The gated per-plan / per-epoch / per-run counts (module docstring).
COUNTS = (
    "selfcheck_calls_per_plan",
    "selfcheck_items_per_plan",
    "journal_entries_per_epoch",
    "journal_bytes_per_epoch",
    "checkpoints",
    "checkpoint_bytes",
    "validated_per_event",
)

#: Instrumented resilient replays; the recorded ratio is their median.
RESILIENT_REPS = 5
#: Bare-metal replays (decision-equality reference + context timing).
BASELINE_REPS = 3
#: Passes over the event stream when micro-timing ``validate_event``.
VALIDATE_PASSES = 5


def _resilient_counts(platform, events) -> dict:
    """Replay ``platform`` (resilient) once with counting hooks on the
    machinery and return the :data:`COUNTS`."""
    from repro.assignment import incremental
    from repro.assignment.planner import TaskPlanner
    from repro.simulation import platform as platform_mod

    tally = dict.fromkeys(("plans", "sweeps", "items", "validated"), 0)
    find_violation = incremental.IncrementalPlanEngine._find_violation
    plan = TaskPlanner.plan
    validate_event = platform_mod.validate_event

    def counted_find_violation(engine, selections, tasks_by_id, workers_by_id):
        tally["sweeps"] += 1
        tally["items"] += len(selections) + len(engine._worker_entries)
        return find_violation(engine, selections, tasks_by_id, workers_by_id)

    def counted_plan(planner, *args, **kwargs):
        tally["plans"] += 1
        return plan(planner, *args, **kwargs)

    def counted_validate(event):
        tally["validated"] += 1
        return validate_event(event)

    incremental.IncrementalPlanEngine._find_violation = counted_find_violation
    TaskPlanner.plan = counted_plan
    platform_mod.validate_event = counted_validate
    try:
        platform.run()
    finally:
        incremental.IncrementalPlanEngine._find_violation = find_violation
        TaskPlanner.plan = plan
        platform_mod.validate_event = validate_event

    journal = list(platform.config.journal.entries())
    journal_bytes = sum(
        len(json.dumps({k: v for k, v in entry.items() if k != "cpu"}, separators=(",", ":"))) + 1
        for entry in journal
    )
    checkpoints = platform.config.checkpoint_store.checkpoints()
    epochs = platform._next_seq
    return {
        "selfcheck_calls_per_plan": round(tally["sweeps"] / tally["plans"], 4),
        "selfcheck_items_per_plan": round(tally["items"] / tally["plans"], 4),
        "journal_entries_per_epoch": round(len(journal) / epochs, 4),
        "journal_bytes_per_epoch": round(journal_bytes / epochs, 4),
        "checkpoints": len(checkpoints),
        "checkpoint_bytes": sum(len(c.payload) for c in checkpoints),
        "validated_per_event": round(tally["validated"] / len(events), 4),
    }


class TestResilienceOverhead:
    def _build(self, instance, resilient):
        from repro.assignment.planner import PlannerConfig
        from repro.assignment.strategies import DTAStrategy
        from repro.resilience.checkpoint import InMemoryCheckpointStore
        from repro.resilience.journal import InMemoryJournal
        from repro.simulation.platform import PlatformConfig, SCPlatform

        if resilient:
            planner_config = PlannerConfig(deadline_s=30.0, self_check=True)
            platform_config = PlatformConfig(
                replan_interval=0.0,
                validate_events=True,
                journal=InMemoryJournal(),
                checkpoint_store=InMemoryCheckpointStore(),
            )
        else:
            planner_config = PlannerConfig(deadline_s=None, self_check=False)
            platform_config = PlatformConfig(
                replan_interval=0.0,
                validate_events=False,
            )
        return SCPlatform(
            instance, DTAStrategy(config=planner_config), platform_config
        )

    def test_degradation_overhead(self, bench_scale, perf_results):
        from repro.assignment import incremental
        from repro.core.events import validate_event
        from repro.datasets.yueche import generate_yueche
        from repro.simulation import platform as platform_mod

        workload = generate_yueche(scale=bench_scale.workload_scale, seed=11)
        instance = workload.instance

        def timed(resilient):
            platform = self._build(instance, resilient)
            start = time.process_time()
            metrics = platform.run()
            return time.process_time() - start, metrics, platform

        timed(False), timed(True)  # warm-up pair, discarded

        # -- bare-metal reference ------------------------------------
        base_times = []
        for _ in range(BASELINE_REPS):
            base_s, base_metrics, _ = timed(False)
            base_times.append(base_s)

        # -- validation cost, micro-timed off to the side ------------
        events = instance.event_stream()
        validate_s = float("inf")
        for _ in range(VALIDATE_PASSES):
            start = time.process_time()
            for event in events:
                validate_event(event)
            validate_s = min(validate_s, time.process_time() - start)

        # -- instrumented resilient replays --------------------------
        machinery = [0.0]

        def _wrap(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                start = time.process_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    machinery[0] += time.process_time() - start

            setattr(owner, name, wrapper)
            return owner, name, original

        hooks = (
            (incremental.IncrementalPlanEngine, "_find_violation"),
            (platform_mod.SCPlatform, "_journal_epoch"),
            (platform_mod.SCPlatform, "_maybe_checkpoint"),
        )
        saved = [_wrap(owner, name) for owner, name in hooks]
        ratios, resilient_times = [], []
        try:
            for _ in range(RESILIENT_REPS):
                machinery[0] = 0.0
                hard_s, hard_metrics, hard_platform = timed(True)
                spent = machinery[0] + validate_s
                ratios.append(hard_s / max(hard_s - spent, 1e-9))
                resilient_times.append(hard_s)
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

        # The machinery must be observation-only on a healthy stream: the
        # generous deadline never fires, validation rejects nothing, and
        # every decision matches the bare-metal run.
        assert hard_metrics.assigned_tasks == base_metrics.assigned_tasks
        assert hard_metrics.replans == base_metrics.replans
        assert hard_metrics.degraded_epochs == 0
        assert hard_metrics.rejected_events == 0
        assert hard_metrics.invariant_repairs == 0
        journal_entries = len(hard_platform.config.journal)
        checkpoints = len(hard_platform.config.checkpoint_store)
        assert journal_entries > 0
        assert checkpoints > 0

        counts = _resilient_counts(self._build(instance, True), events)
        overhead = statistics.median(ratios)
        entry = {
            "workers": instance.num_workers,
            "tasks": instance.num_tasks,
            "baseline_ms": round(min(base_times) * 1000.0, 3),
            "resilient_ms": round(min(resilient_times) * 1000.0, 3),
            "journal_entries": journal_entries,
            "overhead_ratio": round(overhead, 4),
            **counts,
        }
        perf_results.setdefault("degradation_overhead", {})["small"] = entry
        print_figure(
            "Fault-tolerance overhead — resilient platform vs bare metal (DTA)",
            [
                {
                    "scale": f"small ({entry['workers']}w/{entry['tasks']}t)",
                    "baseline_ms": entry["baseline_ms"],
                    "resilient_ms": entry["resilient_ms"],
                    "journal": journal_entries,
                    "ckpts": checkpoints,
                    "sweep/plan": counts["selfcheck_items_per_plan"],
                    "overhead": f"{(overhead - 1.0) * 100.0:+.1f}%",
                }
            ],
            ["scale", "baseline_ms", "resilient_ms", "journal", "ckpts", "sweep/plan", "overhead"],
        )
        # The same ceiling check_regression.py enforces, applied inline so
        # the smoke run fails fast: no more resilient-path work than the
        # committed run did.
        committed = json.loads(COMMITTED.read_text())["degradation_overhead"]["small"]
        for name in COUNTS:
            assert counts[name] <= committed[name], name
