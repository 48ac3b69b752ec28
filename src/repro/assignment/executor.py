"""One component search, as a value: :class:`ComponentJob` and
:func:`run_component_job`.

After partitioning, each connected component is an independent
sub-problem whose search result depends only on the component's tree, its
workers' candidate sequences and the available task ids — never on
``now`` or on other components.  The incremental engine's decompose stage
fixes everything a search needs in a :class:`ComponentJob`; its dispatch
stage runs the jobs in process, in submission order; its merge stage
applies the cross-component steps (the greedy deadline fill, cache
writes) in component order.

The module itself stays because ``benchmarks/e2e/traced.py`` looks both
names up here by path to replay the search stage.  They move into
:mod:`repro.assignment.incremental` in the next benchmark-change PR
(ROADMAP item 4), alongside ``PlannerConfig.bound_mode``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.assignment.dfsearch import DEFAULT_BOUND_MODE, adaptive_node_budget, dfsearch, dfsearch_bnb
from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker


@dataclass(frozen=True)
class ComponentJob:
    """One component's search, fixed at decompose time.

    ``mode`` selects the engine: ``"exact"`` (plain DFSearch), ``"bnb"``
    (branch-and-bound) or ``"tvf"`` (guided search).  Exact/B&B jobs read
    only task *ids* — the searches never read task attributes — while TVF
    jobs carry the active task list, whose attributes feed the value
    function's state features.
    """

    index: int
    mode: str
    root: PartitionNode
    worker_ids: Tuple[int, ...]
    sequences_by_worker: Dict[int, List[TaskSequence]]
    workers_by_id: Dict[int, Worker]
    task_ids: FrozenSet[int]
    node_budget: int = 0
    collect_experience: bool = False
    #: Admissible bound kind for B&B jobs (see
    #: :data:`repro.assignment.dfsearch.BOUND_MODES`); exact/TVF jobs
    #: ignore it.
    bound_mode: str = DEFAULT_BOUND_MODE
    #: Active tasks (TVF mode only: global snapshot statistics).
    tasks: Optional[Sequence[Task]] = None
    #: The trained value function (TVF mode only).
    tvf: Optional[object] = None
    #: Total candidate sequences across the component's workers (a span
    #: argument when tracing is on).
    num_sequences: int = 0


@dataclass
class ComponentResult:
    """What one component's search produced (or why it did not run)."""

    selections: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    nodes_expanded: int = 0
    deadline_hit: bool = False
    #: The deadline had already expired when the job would have started:
    #: no search ran and the merge stage must apply the greedy fill (a
    #: cross-component sequential step).
    skipped: bool = False
    experience: List = field(default_factory=list)


def deadline_expired(deadline: Optional[float]) -> bool:
    """Whether the absolute ``time.perf_counter()`` ``deadline`` has
    passed (``None`` never expires): checked before a component search
    starts, here and by the engine's decompose stage."""
    return deadline is not None and _time.perf_counter() >= deadline


def empty_worker_nodes(mode: str, worker: Worker, base_budget: int, tvf=None) -> int:
    """Nodes the ``mode`` engine expands on a one-worker tree whose worker
    has no candidate: what the incremental engine counts per worker with
    nothing in reach, instead of searching it."""
    wid, budget = worker.worker_id, adaptive_node_budget(base_budget, 1, 0)
    root = PartitionNode(workers=[wid])
    job = ComponentJob(0, mode, root, (wid,), {wid: []}, {wid: worker}, frozenset(), budget, tasks=(), tvf=tvf)
    return run_component_job(job).nodes_expanded


def run_component_job(
    job: ComponentJob, deadline: Optional[float] = None
) -> ComponentResult:
    """Execute one component search.

    Pure in ``job`` apart from the deadline ladder: an expired deadline at
    start yields a ``skipped`` marker, a mid-search expiry yields the
    engine's anytime partial with ``deadline_hit`` set.  ``deadline`` is
    an absolute ``time.perf_counter()`` instant.
    """
    if deadline_expired(deadline):
        return ComponentResult(skipped=True)
    if job.mode == "tvf":
        result = dfsearch_tvf(
            job.root, job.tasks, job.sequences_by_worker, job.workers_by_id, job.tvf
        )
    elif job.mode == "exact":
        result = dfsearch(
            job.root,
            None,
            job.sequences_by_worker,
            job.workers_by_id,
            node_budget=job.node_budget,
            collect_experience=job.collect_experience,
            deadline=deadline,
            available_ids=job.task_ids,
        )
    else:
        result = dfsearch_bnb(
            job.root,
            None,
            job.sequences_by_worker,
            job.workers_by_id,
            node_budget=job.node_budget,
            collect_experience=job.collect_experience,
            deadline=deadline,
            available_ids=job.task_ids,
            bound_mode=job.bound_mode,
        )
    return ComponentResult(
        selections=tuple(result.selections),
        nodes_expanded=result.nodes_expanded,
        deadline_hit=result.deadline_hit,
        experience=result.experience,
    )
