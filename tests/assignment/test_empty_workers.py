"""Workers with nothing in reach: counted by the engine, never walked.

A snapshot worker whose capped reachable set is empty is a one-worker
dependency component whose search selects nothing.  The engine keeps such
workers in one set, ``_empty``, instead of a component, and counts them:
each is one component and adds the nodes its engine expands on an empty
one-worker tree; it is searched in an epoch where its version moved since
it was last counted and replayed otherwise; past an expired deadline it is
skipped into the greedy rung with 0 nodes and stays uncounted.  These
tests pin that accounting against an empty-cache engine, the scalar
oracle's component count and the job runner, and check that the
self-check repairs an engine whose ``_empty`` set was corrupted.
"""

import random

import pytest
from reference_pipeline import reference_plan
from test_component_maintenance import _stream

from repro.assignment.dfsearch import adaptive_node_budget, dfsearch_one_worker
from repro.assignment.executor import ComponentJob, run_component_job
from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.assignment.tree import PartitionNode
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import Point
from repro.spatial.travel import EuclideanTravelModel

TRAVEL = EuclideanTravelModel(speed=1.0)

#: ``(planner options, plan keyword arguments)`` per setup.  ``guided``
#: keeps one-worker components on the exact engine; ``guided_singletons``
#: sends them, and so the empty workers, through the guided one.
SETUPS = {
    "bnb": ({}, {}),
    "guided": ({"use_tvf": True, "tvf_min_workers": 2}, {}),
    "guided_singletons": ({"use_tvf": True, "tvf_min_workers": 1}, {}),
    "deadline": ({"deadline_s": 0.0}, {}),
    "experience": ({}, {"collect_experience": True}),
}


def _fields(outcome):
    """Every field a warm plan shares with a cold one (``repairs`` last)."""
    return (
        [(wp.worker.worker_id, wp.sequence.task_ids) for wp in outcome.assignment],
        outcome.planned_tasks,
        outcome.nodes_expanded,
        outcome.num_components,
        outcome.experience,
        outcome.rung,
        outcome.deadline_hit,
        outcome.repairs,
    )


@pytest.fixture(scope="module")
def tvf():
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


def _planner(options, tvf, **overrides):
    return TaskPlanner(
        PlannerConfig(**dict(options, **overrides)),
        travel=TRAVEL,
        tvf=tvf if options.get("use_tvf") else None,
    )


@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("seed", range(4))
def test_warm_counts_match_cold_and_oracle(seed, setup, tvf):
    options, kwargs = SETUPS[setup]
    rng = random.Random(9300 + seed)
    warm_planner = _planner(options, tvf)
    cold_planner = _planner(options, tvf, incremental_replan=False)
    engine = warm_planner._engine
    seen = {"left": 0, "joined": 0}
    empty_seen = reused_seen = 0
    for workers, tasks, now in _stream(rng, seen):
        warm = warm_planner.plan(workers, tasks, now, **kwargs)
        cold = cold_planner.plan(workers, tasks, now, **kwargs)
        assert _fields(warm) == _fields(cold)
        assert warm.num_components == reference_plan(workers, tasks, now, TRAVEL).num_components
        assert warm.reused_components + warm.searched_components == warm.num_components
        if setup == "deadline":
            assert warm.nodes_expanded == 0
            assert warm.num_components == 0 or warm.rung == "greedy"
        if warm.num_components and not kwargs:
            empty_seen += len(engine._empty)
            reused_seen += warm.reused_components
    if not kwargs:
        assert empty_seen  # the streams do leave workers with nothing in reach
    if setup != "deadline" and not kwargs:
        assert reused_seen


@pytest.mark.parametrize(
    "options, mode, nodes",
    [
        ({}, "bnb", 1),
        ({"use_tvf": True, "tvf_min_workers": 1}, "tvf", 2),
    ],
)
def test_empty_worker_nodes_come_from_the_engine(options, mode, nodes, tvf):
    """What the engine counts per empty worker is what the job runner
    returns for an empty one-worker job of the same engine."""
    far = Worker(7, Point(90.0, 90.0), 1.0, 0.0, 60.0)
    workers = [Worker(0, Point(0.0, 0.0), 2.0, 0.0, 60.0), far]
    tasks = [Task(100, Point(0.5, 0.0), 0.0, 30.0)]
    planner = _planner(options, tvf)
    outcome = planner.plan(workers, tasks, 0.0)
    engine = planner._engine
    assert engine._empty == {7}
    job = ComponentJob(
        index=0,
        mode=mode,
        root=PartitionNode(workers=[7]),
        worker_ids=(7,),
        sequences_by_worker={7: []},
        workers_by_id={7: far},
        task_ids=frozenset(t.task_id for t in tasks),
        node_budget=adaptive_node_budget(planner.config.node_budget, 1, 0),
        tasks=tasks if mode == "tvf" else None,
        tvf=planner.tvf if mode == "tvf" else None,
    )
    assert engine._empty_nodes == run_component_job(job).nodes_expanded == nodes
    if mode == "bnb":
        assert dfsearch_one_worker(7, [], job.task_ids).nodes_expanded == nodes
    assert outcome.num_components == 2


def _snapshot():
    """Two workers sharing a task, one with a task of its own, and two
    with nothing in reach."""
    workers = [
        Worker(0, Point(0.0, 0.0), 2.0, 0.0, 60.0),
        Worker(1, Point(1.0, 0.0), 2.0, 0.0, 60.0),
        Worker(2, Point(20.0, 0.0), 2.0, 0.0, 60.0),
        Worker(3, Point(50.0, 50.0), 1.0, 0.0, 60.0),
        Worker(4, Point(80.0, 80.0), 1.0, 0.0, 60.0),
    ]
    tasks = [
        Task(100, Point(0.5, 0.0), 0.0, 30.0),
        Task(101, Point(0.6, 0.5), 0.0, 30.0),
        Task(102, Point(20.5, 0.0), 0.0, 30.0),
    ]
    return workers, tasks


def _empty_in_component(engine):
    wid = min(engine._empty)
    held = engine._component_list[0]
    held.members.append(wid)
    engine._component_of[wid] = held


def _candidate_in_empty(engine):
    engine._empty.add(engine._component_list[0].members[0])


def _candidate_moved_to_empty(engine):
    wid = engine._component_list[0].members[0]
    del engine._component_of[wid]
    engine._empty.add(wid)


def _departed_in_empty(engine):
    engine._empty.add(5)  # left the snapshot one plan ago


@pytest.mark.parametrize(
    "corrupt",
    [_empty_in_component, _candidate_in_empty, _candidate_moved_to_empty, _departed_in_empty],
)
def test_self_check_repairs_a_misplaced_worker(corrupt):
    """A worker with nothing in reach that is also in a component, one
    with a candidate left in ``_empty`` (beside its component, or instead
    of it), and a departed one left there: each is repaired, the next
    epoch is healthy again."""
    workers, tasks = _snapshot()
    planner = TaskPlanner(PlannerConfig(), travel=TRAVEL)
    departing = Worker(5, Point(90.0, 10.0), 1.0, 0.0, 60.0)
    assert planner.plan(workers + [departing], tasks, 0.0).repairs == 0
    assert planner.plan(workers, tasks, 0.1).repairs == 0
    engine = planner._engine
    assert engine._empty == {3, 4}
    corrupt(engine)
    outcome = planner.plan(workers, tasks, 0.2)
    assert outcome.repairs == 1
    cold = TaskPlanner(PlannerConfig(incremental_replan=False), travel=TRAVEL)
    assert _fields(outcome)[:-1] == _fields(cold.plan(workers, tasks, 0.2))[:-1]
    assert planner.plan(workers, tasks, 0.3).repairs == 0
