"""Scalar oracle for the TPA pipeline (Alg. 4) — what the planner is compared to.

Every stage here is the slow, obviously-right variant, and none of it is
shared with the product pipeline: the scalar ``reachable_tasks`` loop
(no travel matrix), matrix-free
``maximal_valid_sequences``, the networkx dependency graph and RTC tree
(``reference_partition.py``), and the plain Algorithm 1 ``dfsearch`` of
``reference_search.py`` (no branch-and-bound, no TVF).
Nothing is imported from ``planner.py`` or ``incremental.py``.

What it pins, per snapshot:

* ``reachable_ids`` / ``sequence_ids`` — every worker's capped reachable
  set and ``Q_w``, order included.  This is where the product chooses
  between the scalar loop and the vector kernel, so these must match bit
  for bit.
* ``num_components`` — the dependency graph's connected components.
* ``planned_tasks`` — the optimum, valid when ``complete`` (every search
  finished inside its budget).  The product's tree and search engine
  differ, so tie-breaks may pick another optimal plan; the count may not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.assignment.reachability import reachable_tasks
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import TravelModel

from reference_partition import build_partition_tree, build_worker_dependency_graph
from reference_search import dfsearch


@dataclass
class ReferencePlan:
    reachable_ids: Dict[int, Tuple[int, ...]]
    sequence_ids: Dict[int, Tuple[Tuple[int, ...], ...]]
    num_components: int
    planned_tasks: int
    complete: bool


def reference_plan(
    workers: Sequence[Worker],
    tasks: Sequence[Task],
    now: float,
    travel: TravelModel,
    max_reachable: int = 10,
    max_sequence_length: int = 3,
    max_sequences: int = 32,
    per_leg_pricing: bool = True,
    node_budget: int = 200_000,
) -> ReferencePlan:
    """Plan one snapshot from scratch; defaults mirror ``PlannerConfig``."""
    travel.begin_epoch(now)
    active = [task for task in tasks if not task.is_expired(now)]
    real = [task for task in active if not task.predicted]
    reachable_by_worker = {}
    sequences_by_worker = {}
    for worker in workers:
        reachable = reachable_tasks(worker, real, now, travel, max_tasks=max_reachable)
        if not reachable and len(real) != len(active):
            # Predicted tasks only guide workers with no real task in reach.
            reachable = reachable_tasks(
                worker, active, now, travel, max_tasks=max_reachable
            )
        reachable_by_worker[worker.worker_id] = reachable
        sequences_by_worker[worker.worker_id] = maximal_valid_sequences(
            worker,
            reachable,
            now,
            travel,
            max_length=max_sequence_length,
            max_sequences=max_sequences,
            per_leg=per_leg_pricing,
        )

    roots = []
    if workers and active:
        roots = build_partition_tree(
            build_worker_dependency_graph(reachable_by_worker)
        ).roots
    workers_by_id = {worker.worker_id: worker for worker in workers}
    available = frozenset(task.task_id for task in active)
    planned = 0
    complete = True
    for root in roots:
        result = dfsearch(
            root,
            None,
            sequences_by_worker,
            workers_by_id,
            node_budget=node_budget,
            available_ids=available,
        )
        planned += result.opt
        complete = complete and result.complete
    return ReferencePlan(
        reachable_ids={
            wid: tuple(task.task_id for task in found)
            for wid, found in reachable_by_worker.items()
        },
        sequence_ids={
            wid: tuple(sequence.task_ids for sequence in found)
            for wid, found in sequences_by_worker.items()
        },
        num_components=len(roots),
        planned_tasks=planned,
        complete=complete,
    )


def assert_planner_matches_oracle(planner, workers, tasks, now, expect_optimum=True):
    """Plan the snapshot on an empty cache and hold it against the oracle.

    ``planner`` is a ``TaskPlanner`` with ``incremental_replan`` on (its
    live engine is read back for the per-worker stage outputs).  Pass
    ``expect_optimum=False`` for TVF-guided planners, whose search is a
    heuristic.  Returns the planner's outcome.
    """
    planner.reset_cache()
    outcome = planner.plan(workers, tasks, now)
    assert_outcome_matches_oracle(planner, outcome, workers, tasks, now, expect_optimum)
    return outcome


def assert_outcome_matches_oracle(
    planner, outcome, workers, tasks, now, expect_optimum=True, node_budget=200_000
):
    """Hold ``outcome`` — what ``planner`` just returned for this snapshot,
    from a cache in any state — against the oracle.  Mid-stream this pins
    the warm engine's reused and partially refreshed per-worker state, not
    only its agreement with a cold run of the same code.  ``node_budget``
    bounds the oracle's plain search (the optimum is compared only when it
    finishes inside it); the per-worker stages are compared regardless."""
    config = planner.config
    reference = reference_plan(
        workers,
        tasks,
        now,
        planner.travel,
        max_reachable=config.max_reachable,
        max_sequence_length=config.max_sequence_length,
        max_sequences=config.max_sequences,
        per_leg_pricing=config.per_leg_pricing,
        node_budget=node_budget,
    )
    assert outcome.num_components == reference.num_components
    if not reference.num_components:
        assert outcome.planned_tasks == 0
        return
    # The live cache may also hold workers absent from this snapshot.
    entries = planner._engine._worker_entries
    assert {
        wid: entries[wid].reachable_ids for wid in reference.reachable_ids
    } == reference.reachable_ids
    assert {
        wid: entries[wid].seq_tuples for wid in reference.sequence_ids
    } == reference.sequence_ids
    # A valid plan over the oracle's Q_w: own candidate, no task twice.
    used = []
    for plan in outcome.assignment:
        task_ids = plan.sequence.task_ids
        assert task_ids in reference.sequence_ids[plan.worker.worker_id]
        used.extend(task_ids)
    assert len(used) == len(set(used)) == outcome.planned_tasks
    if expect_optimum and reference.complete:
        assert outcome.planned_tasks == reference.planned_tasks
