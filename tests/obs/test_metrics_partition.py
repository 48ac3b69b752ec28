"""Every ``SimulationMetrics`` field is deterministic or declared wall-clock.

``SimulationMetrics.deterministic_state()`` is the bit-for-bit contract
of checkpoint/recovery: a resumed run must reproduce it exactly.  A new
counter accidentally left out of that mapping weakens the contract
silently — the resume sweep would keep passing while the counter
drifts.  So the partition is checked by behaviour: perturb each field of
a populated metrics object; the deterministic state must move for every
field except those declared in :data:`METRICS_WALL_CLOCK_EXEMPT`, and
must not move for those.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.obs.metrics import StreamingHistogram
from repro.simulation.metrics import EPOCH_CLASSES, SimulationMetrics
from repro.simulation.record import EpochRecord

#: SimulationMetrics fields excluded from ``deterministic_state()``, each
#: with the reason it may be.  Every other field must move that state.
METRICS_WALL_CLOCK_EXEMPT = {
    "parallel_components": "kept for the frozen e2e harness; always 0",
    "executor_overhead_s": "kept for the frozen e2e harness; always 0",
    "latency_by_class": (
        "streaming histograms over the same wall-clock measurements as "
        "cpu_times (replan latency per epoch class); only sample counts "
        "could ever agree across runs, and those are already covered by "
        "num_cpu_samples / degradation_rungs"
    ),
}

FIELDS = [field.name for field in dataclasses.fields(SimulationMetrics)]


def _populated() -> SimulationMetrics:
    """Metrics with every counter, list and mapping non-empty."""
    metrics = SimulationMetrics()
    metrics.fold(
        EpochRecord(
            0,
            "a",
            0.0,
            rejected=1,
            duplicates=1,
            expired=1,
            planned=True,
            counted=True,
            cpu=0.004,
            rung="partial",
            cls="degraded",
            repairs=1,
            dispatches=[(3, 7)],
        )
    )
    return metrics


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return value + value[-1:]
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _perturbed(value[key])}
    if isinstance(value, StreamingHistogram):
        histogram = copy.deepcopy(value)
        histogram.record(1.0)
        return histogram
    raise TypeError(
        f"no perturbation for {type(value).__name__}: teach _perturbed the "
        "new field type before deciding which side of the partition it is on"
    )


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_on_its_declared_side_of_the_partition(name):
    base = _populated()
    value = getattr(base, name)
    if isinstance(value, (list, dict)):
        assert value, f"_populated() leaves {name} empty"
    changed = copy.deepcopy(base)
    setattr(changed, name, _perturbed(value))
    moved = changed.deterministic_state() != base.deterministic_state()
    if name in METRICS_WALL_CLOCK_EXEMPT:
        assert not moved, f"{name} is declared wall-clock but moves deterministic_state()"
    else:
        assert moved, (
            f"{name} is neither in deterministic_state() nor declared in "
            "METRICS_WALL_CLOCK_EXEMPT: assign it to one side"
        )


def test_latency_by_class_is_declared_exempt():
    assert "latency_by_class" in METRICS_WALL_CLOCK_EXEMPT
    # Every exemption names a real field (no stale declarations) and
    # says why it may stay out of the deterministic state.
    assert set(METRICS_WALL_CLOCK_EXEMPT) <= set(FIELDS)
    assert all(reason.strip() for reason in METRICS_WALL_CLOCK_EXEMPT.values())


def test_latency_recordings_do_not_move_deterministic_state():
    a, b = SimulationMetrics(), SimulationMetrics()
    # Same stream, different wall-clock readings and epoch classes.
    a.fold(EpochRecord(0, "a", 0.0, counted=True, cpu=0.010, cls="full"))
    a.fold(EpochRecord(1, "a", 1.0, counted=True, cpu=0.002, cls="incremental"))
    b.fold(EpochRecord(0, "a", 0.0, counted=True, cpu=0.500, cls="degraded"))
    b.fold(EpochRecord(1, "a", 1.0, counted=True, cpu=0.900, cls="degraded"))
    assert a.deterministic_state() == b.deterministic_state()
    assert a.replan_latency_summary() != b.replan_latency_summary()


def test_summary_overall_merges_every_class():
    metrics = SimulationMetrics()
    for i, cls in enumerate(EPOCH_CLASSES):
        for _ in range(i + 1):
            metrics.fold(
                EpochRecord(i, "a", 0.0, counted=True, cpu=0.001 * (i + 1), cls=cls)
            )
    summary = metrics.replan_latency_summary()
    assert set(summary) == set(EPOCH_CLASSES) | {"overall"}
    assert summary["overall"]["count"] == sum(
        summary[cls]["count"] for cls in EPOCH_CLASSES
    )
    # Summaries are in milliseconds.
    assert summary["full"]["p50"] > 0.5


def test_empty_metrics_summary_is_empty():
    assert SimulationMetrics().replan_latency_summary() == {}
