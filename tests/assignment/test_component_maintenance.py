"""Dependency components kept across epochs by ``IncrementalPlanEngine``.

On seeded random snapshot streams — workers joining, leaving and
rejoining, a reachable-set cap below the uncapped sets, version bumps
that move no dependency edge, TVF-guided components and the
predicted-task fallback — every epoch must satisfy:

* the engine's partition -- its component list plus one singleton per
  worker with nothing in reach (``_empty``) -- equals a from-scratch
  ``connected_components(build_adjacency(...))`` over the same capped
  reachable sets, and its task -> holders map is their exact inverse;
* the outcome equals an empty-cache engine's;
* the number of replayed components equals what the member-set +
  versions cache rule alone would replay, with a worker in ``_empty``
  replayed iff its version has not moved since the last plan counted it,
  so the one-lookup hit of an untouched component changes cost, never
  counts;
* every partition subtree a component holds equals one built from
  scratch over its members' current capped reachable sets, although it
  was built once, at the component's first search.
"""

import random

import pytest

from repro.assignment.fast_partition import (
    build_adjacency,
    build_component_subtree,
    connected_components,
)
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs import Observability
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)


def _signature(outcome):
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
        outcome.rung,
    )


def _scratch_components(engine, workers):
    entries = engine._worker_entries
    return connected_components(
        build_adjacency({w.worker_id: entries[w.worker_id].reachable for w in workers})
    )


def _partition(engine):
    """The component list's members plus a singleton per empty worker."""
    singletons = [[wid] for wid in engine._empty]
    return sorted([held.members for held in engine._component_list] + singletons)


def _assert_structure(engine, workers):
    present = {w.worker_id for w in workers}
    assert set(engine._registered) == present == set(engine._component_of) | engine._empty
    assert engine._empty.isdisjoint(engine._component_of)
    assert all(engine._registered[wid] == () for wid in engine._empty)
    holders = {}
    for wid, ids in engine._registered.items():
        assert ids == engine._worker_entries[wid].reachable_ids
        for tid in ids:
            holders.setdefault(tid, set()).add(wid)
    assert engine._holders == holders
    for held in engine._component_list:
        assert all(engine._component_of[wid] is held for wid in held.members)


def _rule_reuse(engine, cache_before, counted_before):
    """Components the member-set + versions cache alone would replay, plus
    the empty workers whose version is the one they were last counted at
    (``counted_before``: worker id -> version)."""
    entries = engine._worker_entries
    reused = sum(counted_before.get(wid) == entries[wid].version for wid in engine._empty)
    planner = engine.planner
    config = planner.config
    use_guided = config.use_tvf and planner.tvf is not None
    for held in engine._component_list:
        members = held.members
        guided = use_guided and len(members) >= config.tvf_min_workers
        cached = cache_before.get(frozenset(members))
        if (
            cached is not None
            and cached.versions
            == {wid: engine._worker_entries[wid].version for wid in members}
            and cached.mode == ("tvf" if guided else "bnb")
            and (not guided or cached.task_epoch == engine._task_epoch)
        ):
            reused += 1
    return reused


@pytest.fixture(scope="module")
def bootstrapped_tvf():
    rng = random.Random(7)
    workers = [
        Worker(i, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 2.0, 0.0, 40.0)
        for i in range(8)
    ]
    tasks = [
        Task(500 + j, Point(rng.uniform(0, 10), rng.uniform(0, 10)), 0.0, 30.0)
        for j in range(25)
    ]
    boot = TaskPlanner(PlannerConfig(use_tvf=True, incremental_replan=False), travel=TRAVEL)
    boot.train_tvf(workers, tasks, 0.0, epochs=2)
    return boot.tvf


SCENARIOS = {
    "default": {},
    "capped": {"max_reachable": 2},
    "guided": {"use_tvf": True, "tvf_min_workers": 2},
}


def _new_worker(rng, wid, now):
    return Worker(
        wid,
        Point(rng.uniform(0, 10), rng.uniform(0, 10)),
        rng.uniform(1.0, 3.0),
        0.0,
        now + rng.uniform(20, 60),
    )


def _new_task(rng, tid, now, predicted=False):
    return Task(
        tid,
        Point(rng.uniform(0, 10), rng.uniform(0, 10)),
        now,
        now + rng.uniform(2, 30),
        predicted=predicted,
    )


def _stream(rng, seen):
    """A seeded snapshot stream: yields ``(workers, tasks, now)`` and, in
    between, removes or adds a task, moves a worker (or nudges it so that
    only its version moves), benches / rejoins / adds / drops a worker,
    or churns a predicted task.  Departures and arrivals are tallied in
    ``seen``."""
    now = 0.0
    next_id = 1000
    workers = {i: _new_worker(rng, i, now) for i in range(rng.randint(4, 9))}
    tasks = {}
    for _ in range(rng.randint(8, 25)):
        tasks[next_id] = _new_task(rng, next_id, now)
        next_id += 1
    predicted = {}
    benched = set()
    for _ in range(60):
        snapshot_workers = [
            w for wid, w in sorted(workers.items())
            if wid not in benched and now < w.off_time
        ]
        snapshot_tasks = [t for _, t in sorted(tasks.items())] + [
            t for _, t in sorted(predicted.items())
        ]
        yield snapshot_workers, snapshot_tasks, now

        event = rng.random()
        if event < 0.15 and tasks:
            del tasks[rng.choice(sorted(tasks))]
        elif event < 0.35:
            tasks[next_id] = _new_task(rng, next_id, now)
            next_id += 1
        elif event < 0.45:
            wid = rng.choice(sorted(workers))
            workers[wid] = workers[wid].moved_to(
                Point(rng.uniform(0, 10), rng.uniform(0, 10))
            )
        elif event < 0.6:
            # Refresh without moving any dependency edge: a version bump.
            wid = rng.choice(sorted(workers))
            location = workers[wid].location
            workers[wid] = workers[wid].moved_to(Point(location.x + 1e-12, location.y))
        elif event < 0.75:
            # Bench a worker, or bring a benched one back (a rejoin).
            if benched and rng.random() < 0.5:
                benched.discard(rng.choice(sorted(benched)))
                seen["joined"] += 1
            else:
                benched.add(rng.choice(sorted(workers)))
                seen["left"] += 1
        elif event < 0.82:
            workers[next_id] = _new_worker(rng, next_id, now)
            next_id += 1
            seen["joined"] += 1
        elif event < 0.88 and len(workers) > 2:
            del workers[rng.choice(sorted(workers))]
            seen["left"] += 1
        elif predicted and rng.random() < 0.4:
            del predicted[rng.choice(sorted(predicted))]
        else:
            predicted[next_id] = _new_task(rng, next_id, now, predicted=True)
            next_id += 1
        now += rng.uniform(0.0, 1.5)


def _planner(options, tvf, incremental=True):
    return TaskPlanner(
        PlannerConfig(incremental_replan=incremental, **options),
        travel=TRAVEL,
        tvf=tvf if options.get("use_tvf") else None,
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(6))
def test_maintained_components_match_scratch(seed, scenario, bootstrapped_tvf):
    rng = random.Random(9100 + seed)
    options = SCENARIOS[scenario]
    warm_planner = _planner(options, bootstrapped_tvf)
    cold_planner = _planner(options, bootstrapped_tvf, incremental=False)
    obs = Observability()
    warm_planner.attach_observability(obs)
    engine = warm_planner._engine

    seen = {"rebuilt": 0, "version_only": 0, "left": 0, "joined": 0, "empty_reused": 0}
    counted = {}
    for snapshot_workers, snapshot_tasks, now in _stream(rng, seen):
        cache_before = dict(engine._components)
        warm = warm_planner.plan(snapshot_workers, snapshot_tasks, now)
        cold = cold_planner.plan(snapshot_workers, snapshot_tasks, now)
        assert _signature(warm) == _signature(cold)
        if warm.num_components:  # not the empty-snapshot early return
            assert _partition(engine) == _scratch_components(engine, snapshot_workers)
            _assert_structure(engine, snapshot_workers)
            entries = engine._worker_entries
            reused = _rule_reuse(engine, cache_before, counted)
            assert warm.reused_components == reused
            assert warm.reused_components + warm.searched_components == warm.num_components
            seen["empty_reused"] += reused - _rule_reuse(engine, cache_before, {})
            counted.update((wid, entries[wid].version) for wid in engine._empty)
            counted = {wid: v for wid, v in counted.items() if wid in entries}
            rebuilt = [e for e in obs.tracer.events if e["name"] == "decompose"][-1][
                "args"
            ]["rebuilt"]
            seen["rebuilt"] += rebuilt
            if rebuilt == 0 and warm.searched_components:
                seen["version_only"] += 1

    # The stream exercised re-derivation, hits voided by a version bump
    # alone, departures and arrivals.
    assert seen["rebuilt"] and seen["version_only"]
    assert seen["left"] and seen["joined"]
    assert seen["empty_reused"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(6))
def test_held_subtrees_match_scratch(seed, scenario, bootstrapped_tvf):
    """A component builds its partition subtree once and keeps it for its
    lifetime: after every plan, each held subtree equals one built from
    scratch over the members' current capped reachable sets."""
    rng = random.Random(9100 + seed)
    planner = _planner(SCENARIOS[scenario], bootstrapped_tvf)
    engine = planner._engine
    seen = {"left": 0, "joined": 0}
    checked = kept = 0
    for snapshot_workers, snapshot_tasks, now in _stream(rng, seen):
        held_before = {held: held.root for held in engine._component_list}
        planner.plan(snapshot_workers, snapshot_tasks, now)
        entries = engine._worker_entries
        for held in engine._component_list:
            if held.root is None:
                continue  # never searched by a job
            fresh = build_component_subtree(
                build_adjacency({wid: entries[wid].reachable for wid in held.members}),
                held.members,
            )
            assert held.root == fresh
            checked += 1
            kept += held_before.get(held) is held.root
    # Some subtrees were built this epoch, some carried over from earlier.
    assert kept and checked > kept
