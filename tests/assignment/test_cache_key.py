"""The incremental engine's cache key covers every planning knob.

The engine replays cached reachable sets, sequences and component results
only while its ``context_key`` is unchanged.  A ``PlannerConfig`` field
that changes planning but is missing from the key would let a cached
replan leak across configurations.  Every field is classified here:
changing a field of :data:`PERTURBED` must drop the whole cache, and a
field of :data:`EXEMPT` says why it may stay out of the key.  A new field
fails :func:`test_every_field_is_classified` until it is in one of them.
"""

import dataclasses
import random

import pytest

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.tvf import TaskValueFunction
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

#: field -> a value other than the default.
PERTURBED = {
    "max_reachable": 9,
    "max_sequence_length": 2,
    "max_sequences": 31,
    "node_budget": 49_999,
    "use_tvf": True,
    "tvf_min_workers": 5,
    "use_partition": False,
    "per_leg_pricing": False,
}

#: field -> why it may stay out of the context key.
EXEMPT = {
    "travel_model": (
        "identity-tracked separately (the engine keeps a strong reference "
        "and is-checks it per plan); arbitrary model objects don't belong "
        "in a hashable key tuple"
    ),
    "incremental_replan": (
        "when disabled every plan runs on a throw-away empty cache, so "
        "the key cannot go stale through it"
    ),
    "deadline_s": (
        "deadline-degraded component answers are never written to the "
        "cache, so cached entries are valid under any deadline setting"
    ),
    "self_check": (
        "audit-only toggle: detects cache corruption, never changes the "
        "planning output"
    ),
    "executor": "kept for the frozen e2e harness; always serial",
    "search_mode": "one legal value; removed by ROADMAP item 4",
    "bound_mode": "one legal value; removed by ROADMAP item 4",
}


def test_every_field_is_classified():
    fields = {field.name for field in dataclasses.fields(PlannerConfig)}
    assert not PERTURBED.keys() & EXEMPT.keys()
    assert fields == PERTURBED.keys() | EXEMPT.keys()
    assert all(reason.strip() for reason in EXEMPT.values())


@pytest.mark.parametrize("field", sorted(PERTURBED))
def test_changing_a_keyed_field_drops_the_cache(field):
    rng = random.Random(11)
    workers = [
        Worker(i, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 2.0, 0.0, 1000.0)
        for i in range(6)
    ]
    tasks = [
        Task(100 + j, Point(rng.uniform(0, 8), rng.uniform(0, 8)), 0.0, 1000.0)
        for j in range(25)
    ]
    planner = TaskPlanner(PlannerConfig(), travel=TRAVEL, tvf=TaskValueFunction())
    planner.plan(workers, tasks, 0.0)
    assert planner.plan(workers, tasks, 0.1).recomputed_workers == 0
    assert getattr(planner.config, field) != PERTURBED[field]
    setattr(planner.config, field, PERTURBED[field])
    assert planner.plan(workers, tasks, 0.2).recomputed_workers == len(workers)
