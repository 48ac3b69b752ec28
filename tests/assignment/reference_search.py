"""Plain DFSearch (Algorithm 1) — the oracle the branch-and-bound search
is held to.

``dfsearch`` computes, for a partition-tree node, the maximum number of
tasks assignable to the workers of that node and its descendants, trying
every (worker, maximal-valid-sequence) combination and recursing on the
remaining workers and tasks.  Besides the optimum it returns the realising
assignment and, optionally, the ``(state, action, opt)`` experience tuples
of every visited state.  No bound, no ordering, no dominance: the only
shortcuts are memoisation of completed ``(node, pending workers, tasks)``
sub-problems and the node budget / deadline cut.

Nothing is imported from the product's search modules except the
:class:`DFSearchResult` data class the results are reported in.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.assignment.dfsearch import DFSearchResult
from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker

#: Expansions between wall-clock deadline checks.
_DEADLINE_CHECK_INTERVAL = 64


@dataclass
class SearchContext:
    """Shared state of one DFSearch invocation.

    Attributes
    ----------
    sequences_by_worker:
        ``Q_w`` for every worker id (maximal valid task sequences).
    workers_by_id:
        Worker lookup.
    node_budget:
        Maximum number of *true* expansions before falling back to the
        best-found-so-far answer.  Memo hits are free: they replay an
        already-computed sub-problem without exploring anything new, so
        they are tallied in ``memo_hits`` and never charged against the
        budget.
    deadline:
        Absolute ``time.perf_counter()`` instant after which the search
        stops expanding and returns the best anytime answer, checked
        cooperatively every ``_DEADLINE_CHECK_INTERVAL`` expansions (the
        wall-clock twin of ``node_budget``).  ``None`` disables the check.
    collect_experience:
        Whether to record ``(state, action, opt)`` tuples for TVF training.
    """

    sequences_by_worker: Dict[int, List[TaskSequence]]
    workers_by_id: Dict[int, Worker]
    node_budget: int = 20000
    deadline: Optional[float] = None
    collect_experience: bool = False
    nodes_expanded: int = 0
    memo_hits: int = 0
    deadline_hit: bool = False
    # Expansion count at which the stop test next takes its slow path (0
    # forces the first call through it, so an already-expired deadline is
    # noticed at expansion 0).
    _next_stop_check: int = 0
    experience: List[Tuple[dict, dict, float]] = field(default_factory=list)
    # Memo key: (node identity, pending workers, available tasks).  The
    # node identity is load-bearing: with it omitted, the empty-pending
    # state of *different* tree nodes collides whenever their remaining
    # task sets coincide, replaying one node's children for another's and
    # silently losing assignments (a worker's sequence set is unique to a
    # node, so non-empty pending sets cannot collide — only the empty one
    # could).
    _memo: Dict[
        Tuple[int, FrozenSet[int], FrozenSet[int]],
        Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]],
    ] = field(default_factory=dict)

    def out_of_budget(self) -> bool:
        """Budget or wall-clock cutoff reached; the deadline is polled
        every ``_DEADLINE_CHECK_INTERVAL`` expansions (never past the
        budget)."""
        if self.nodes_expanded < self._next_stop_check:
            return False
        if self.nodes_expanded >= self.node_budget or self.deadline_hit:
            return True
        if self.deadline is not None:
            if _time.perf_counter() >= self.deadline:
                self.deadline_hit = True
                self._next_stop_check = 0  # stay on the slow (True) path
                return True
            self._next_stop_check = min(
                self.node_budget, self.nodes_expanded + _DEADLINE_CHECK_INTERVAL
            )
        else:
            self._next_stop_check = self.node_budget
        return False


def _state_snapshot(worker_ids: Sequence[int], task_ids: Collection[int]) -> dict:
    """Compact state description stored in experience tuples."""
    return {
        "num_workers": len(worker_ids),
        "num_tasks": len(task_ids),
        "worker_ids": tuple(sorted(worker_ids)),
        "task_ids": tuple(sorted(task_ids)),
    }


def _action_snapshot(worker: Worker, sequence: TaskSequence) -> dict:
    """Compact action description stored in experience tuples."""
    return {
        "worker_id": worker.worker_id,
        "task_ids": sequence.task_ids,
        "sequence_length": len(sequence),
    }


def _search(
    node: PartitionNode,
    task_ids: FrozenSet[int],
    pending_workers: Tuple[int, ...],
    context: SearchContext,
) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """Recursive core of Algorithm 1.

    ``pending_workers`` are the workers of ``node`` not yet decided; when it
    is empty the search recurses into the children, whose sub-problems are
    independent of each other by construction of the partition tree.
    """
    memo_key = (id(node), frozenset(pending_workers), task_ids)
    cached = context._memo.get(memo_key) if not context.collect_experience else None
    if cached is not None:
        context.memo_hits += 1
        return cached
    context.nodes_expanded += 1

    if not pending_workers:
        total = 0
        selections: List[Tuple[int, Tuple[int, ...]]] = []
        remaining = task_ids
        for child in node.children:
            child_opt, child_sel = _search(child, remaining, tuple(child.workers), context)
            total += child_opt
            selections.extend(child_sel)
            used = {tid for _, tids in child_sel for tid in tids}
            remaining = remaining - frozenset(used)
        result = (total, tuple(selections))
        if not context.collect_experience:
            context._memo[memo_key] = result
        return result

    worker_id, *rest = pending_workers
    rest_tuple = tuple(rest)
    worker = context.workers_by_id[worker_id]
    candidate_sequences = context.sequences_by_worker.get(worker_id, [])

    # Option 0: assign this worker nothing.
    best_opt, best_selection = _search(node, task_ids, rest_tuple, context)
    best_selection = ((worker_id, ()),) + best_selection

    if not context.out_of_budget():
        for sequence in candidate_sequences:
            sequence_ids = sequence.task_id_set
            if not sequence_ids or not sequence_ids <= task_ids:
                continue
            sub_opt, sub_selection = _search(node, task_ids - sequence_ids, rest_tuple, context)
            value = sub_opt + len(sequence_ids)
            if context.collect_experience:
                descendant = node.descendant_workers()
                state = _state_snapshot(list(pending_workers) + descendant, task_ids)
                action = _action_snapshot(worker, sequence)
                context.experience.append((state, action, float(value)))
            if value > best_opt:
                best_opt = value
                best_selection = ((worker_id, sequence.task_ids),) + sub_selection
            if context.out_of_budget():
                break

    result = (best_opt, best_selection)
    if not context.collect_experience:
        context._memo[memo_key] = result
    return result


def dfsearch(
    node: PartitionNode,
    tasks: Optional[Sequence[Task]],
    sequences_by_worker: Dict[int, List[TaskSequence]],
    workers_by_id: Dict[int, Worker],
    node_budget: int = 20000,
    collect_experience: bool = False,
    deadline: Optional[float] = None,
    available_ids: Optional[FrozenSet[int]] = None,
) -> DFSearchResult:
    """Run Algorithm 1 on a partition-tree node.

    Parameters
    ----------
    node:
        Root of the (sub)tree to search.
    tasks:
        Currently unassigned tasks available to this sub-problem.  The
        search only ever reads their ids; pass ``available_ids`` instead
        (with ``tasks=None``) to make the call a pure function of plain
        data.
    sequences_by_worker:
        Pre-computed ``Q_w`` for every worker appearing in the tree.
    workers_by_id:
        Worker lookup table.
    node_budget:
        Limit on recursive expansions (graceful degradation on huge nodes).
    collect_experience:
        Record ``(state, action, opt)`` tuples for TVF training; disables
        memoisation so every visited state is recorded with its true value.
    deadline:
        Absolute ``time.perf_counter()`` cutoff; on expiry the best
        anytime answer found so far is returned with ``deadline_hit`` set.
    available_ids:
        Task ids available to this sub-problem; overrides ``tasks``.
    """
    context = SearchContext(
        sequences_by_worker=sequences_by_worker,
        workers_by_id=workers_by_id,
        node_budget=node_budget,
        deadline=deadline,
        collect_experience=collect_experience,
    )
    task_ids = (
        frozenset(available_ids)
        if available_ids is not None
        else frozenset(task.task_id for task in tasks)
    )
    opt, selections = _search(node, task_ids, tuple(node.workers), context)
    return DFSearchResult(
        opt=opt,
        selections=list(selections),
        nodes_expanded=context.nodes_expanded,
        experience=context.experience,
        memo_hits=context.memo_hits,
        complete=not context.out_of_budget(),
        deadline_hit=context.deadline_hit,
    )
