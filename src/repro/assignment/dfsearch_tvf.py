"""TVF-guided search over the partition tree (Algorithm 2).

``dfsearch_tvf`` walks the partition tree like Algorithm 1 but, instead of
branching over every candidate sequence, greedily commits each worker to
the sequence the trained Task Value Function scores highest.  This removes
the backtracking and makes the per-node cost linear in the number of
candidate sequences, which is where DATA-WA's CPU savings over DTA+TP come
from.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.assignment.dfsearch import _action_snapshot, _state_snapshot, DFSearchResult
from repro.assignment.tree import PartitionNode
from repro.assignment.tvf import StateFeatureCache, TaskValueFunction
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker


def _guided(
    node: PartitionNode,
    task_ids: FrozenSet[int],
    pending_workers: Tuple[int, ...],
    sequences_by_worker: Dict[int, List[TaskSequence]],
    workers_by_id: Dict[int, Worker],
    tasks_by_id: Dict[int, Task],
    tvf: TaskValueFunction,
    nodes_expanded: List[int],
    state_cache: Optional[StateFeatureCache] = None,
) -> Tuple[int, List[Tuple[int, Tuple[int, ...]]], FrozenSet[int]]:
    """Recursive core of Algorithm 2; returns (assigned, selections, remaining tasks)."""
    nodes_expanded[0] += 1

    if not pending_workers:
        total = 0
        selections: List[Tuple[int, Tuple[int, ...]]] = []
        remaining = task_ids
        for child in node.children:
            child_total, child_sel, remaining = _guided(
                child,
                remaining,
                tuple(child.workers),
                sequences_by_worker,
                workers_by_id,
                tasks_by_id,
                tvf,
                nodes_expanded,
                state_cache,
            )
            total += child_total
            selections.extend(child_sel)
        return total, selections, remaining

    worker_id, *rest = pending_workers
    worker = workers_by_id[worker_id]
    candidates = [
        sequence
        for sequence in sequences_by_worker.get(worker_id, [])
        if sequence.task_ids and sequence.task_id_set <= task_ids
    ]

    chosen: Optional[TaskSequence] = None
    if candidates:
        descendant = node.descendant_workers()
        state = _state_snapshot(list(pending_workers) + descendant, task_ids)
        actions = [_action_snapshot(worker, sequence) for sequence in candidates]
        if tvf.is_fitted:
            state_features = state_cache.features(state) if state_cache else None
            scores = tvf.values(
                state, actions, workers_by_id, tasks_by_id, state_features=state_features
            )
            best_index = int(scores.argmax())
        else:
            # Untrained TVF: fall back to the longest sequence (earliest in
            # candidate order on ties), matching the DFSearch tie-breaking
            # heuristic.  ``Q_w`` from maximal_valid_sequences is already
            # ranked longest-first, but callers may pass hand-built or
            # filtered sequence sets in any order, so pick explicitly
            # rather than trusting ``candidates[0]``.
            best_index = 0
            best_length = len(candidates[0])
            for index in range(1, len(candidates)):
                if len(candidates[index]) > best_length:
                    best_index = index
                    best_length = len(candidates[index])
        chosen = candidates[best_index]

    if chosen is None:
        selections = [(worker_id, ())]
        assigned = 0
        remaining = task_ids
    else:
        selections = [(worker_id, chosen.task_ids)]
        assigned = len(chosen)
        remaining = task_ids - frozenset(chosen.task_ids)

    sub_assigned, sub_selections, remaining = _guided(
        node,
        remaining,
        tuple(rest),
        sequences_by_worker,
        workers_by_id,
        tasks_by_id,
        tvf,
        nodes_expanded,
        state_cache,
    )
    return assigned + sub_assigned, selections + sub_selections, remaining


def dfsearch_tvf(
    node: PartitionNode,
    tasks: Sequence[Task],
    sequences_by_worker: Dict[int, List[TaskSequence]],
    workers_by_id: Dict[int, Worker],
    tvf: TaskValueFunction,
) -> DFSearchResult:
    """Run Algorithm 2 on a partition-tree node with a trained TVF."""
    tasks_by_id = {task.task_id: task for task in tasks}
    task_ids = frozenset(tasks_by_id.keys())
    nodes_expanded = [0]
    state_cache = StateFeatureCache(tasks_by_id) if tvf.is_fitted else None
    assigned, selections, _ = _guided(
        node,
        task_ids,
        tuple(node.workers),
        sequences_by_worker,
        workers_by_id,
        tasks_by_id,
        tvf,
        nodes_expanded,
        state_cache,
    )
    return DFSearchResult(
        opt=assigned,
        selections=selections,
        nodes_expanded=nodes_expanded[0],
        experience=[],
    )
