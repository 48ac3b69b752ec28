"""Exact search over the partition tree: the branch-and-bound engine.

``dfsearch_bnb`` computes, for a partition-tree node, the maximum number
of tasks assignable to the workers of that node and its descendants — the
optimum Algorithm 1 (DFSearch) defines by trying every (worker,
maximal-valid-sequence) combination — together with the realising
assignment and, optionally, ``(state, action, opt)`` experience tuples
used to train the Task Value Function.  It prunes that enumeration:
every sub-problem carries an admissible upper bound (a per-worker capped
relaxation over the candidate sequences, evaluated as bitmask
intersections), branches are ordered so the incumbent tightens early,
sequences whose task sets are subsets of an already-explored sibling —
with the sibling's extra tasks invisible to the remaining workers — are
skipped (dominance), and memoisation keys are restricted to the tasks the
remaining workers can actually reference.  The plain enumeration is the
oracle the engine is held to; it lives in the tests
(``tests/assignment/reference_search.py``), with brute-force optima that
share nothing with either.

``dfsearch_one_worker`` is the engine's answer on a one-worker leaf tree
in closed form — the worker's longest fully-available candidate — for the
incremental engine's one-worker components; the engine solves the last
worker of every childless node by the same rule.

The worst case is exponential; a node budget (and an optional wall-clock
deadline) bounds the explored search tree and memoisation collapses
repeated (workers, tasks) sub-problems, so the engine degrades gracefully
to a feasible best-effort answer on huge clusters.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker

#: Adaptive-budget scaling: expansions granted per component worker and per
#: candidate sequence.  Dense components solve to proven optimality well
#: under these floors (typically a few thousand expansions), while huge
#: flat components get room to finish instead of degrading at a fixed cap
#: sized for yesterday's cost profile.
_BUDGET_PER_WORKER = 2000
_BUDGET_PER_SEQUENCE = 250

#: Expansions between wall-clock deadline checks.  A ``perf_counter`` read
#: costs tens of nanoseconds versus microseconds per expansion, so checking
#: every 64 nodes keeps the overshoot past a deadline in the tens of
#: microseconds while adding well under a percent of search cost.
_DEADLINE_CHECK_INTERVAL = 64


def adaptive_node_budget(base: int, num_workers: int, num_sequences: int) -> int:
    """Search budget scaled to the component size (never below ``base``).

    A pure function of the component's worker count and total candidate-
    sequence count, so a cached component result and a fresh search — which
    must stay bit-for-bit interchangeable — always derive the identical
    budget for the identical component.
    """
    return max(
        base,
        num_workers * _BUDGET_PER_WORKER,
        num_sequences * _BUDGET_PER_SEQUENCE,
    )


@dataclass
class DFSearchResult:
    """Outcome of a component search."""

    opt: int
    selections: List[Tuple[int, Tuple[int, ...]]]
    nodes_expanded: int
    experience: List[Tuple[dict, dict, float]] = field(default_factory=list)
    #: Sub-problems answered from the memo table (not charged to budget).
    memo_hits: int = 0
    #: False when the node budget cut exploration short, i.e. ``opt`` is a
    #: feasible lower bound rather than the proven optimum.
    complete: bool = True
    #: True when a wall-clock deadline (not the node budget) cut the search:
    #: the planner's degradation ladder keys off this to decide whether the
    #: epoch was served by an anytime partial.  Deadline-cut results are
    #: wall-clock-dependent and must never be cached across calls.
    deadline_hit: bool = False

    def as_assignment_map(self) -> Dict[int, Tuple[int, ...]]:
        """Worker id -> tuple of assigned task ids."""
        return {worker_id: task_ids for worker_id, task_ids in self.selections if task_ids}


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


#: A completed sub-problem's selection: ``(worker id, task ids)`` pairs.
_Selection = Tuple[Tuple[int, Tuple[int, ...]], ...]


class _BnBNode:
    """Per-tree-node search structures and memo, built once per invocation.

    Task sets live as bitmasks over the tasks actually referenced by some
    candidate sequence of this tree (its *universe*) — intersection,
    containment and cardinality are then single big-int operations.  A
    candidate is live iff ``mask & available == mask``: one test per
    candidate, which on ``dense_batch`` beats keeping an index of the live
    ones although only about 8 % of the scanned candidates are live.

    ``memo[i]`` holds the completed sub-problems of workers ``i..`` plus
    every descendant, and ``memo[len(worker_ids)]`` those of the children
    alone, keyed by the available mask restricted to ``rel_from[i]`` (the
    only tasks that sub-problem can read).  Callers probe it before they
    recurse, so a memo hit costs one dict lookup and no call.
    """

    __slots__ = (
        "children",
        "worker_ids",
        "desc_worker_ids",
        "candidates",
        "all_bounds",
        "rest_bounds",
        "rel_from",
        "empty_tail",
        "last",
        "memo",
    )

    def __init__(
        self,
        node: PartitionNode,
        universe: Set[int],
        bit_mask: Dict[int, int],
        sequences_by_worker: Dict[int, List[TaskSequence]],
    ) -> None:
        self.children = [
            _BnBNode(child, universe, bit_mask, sequences_by_worker)
            for child in node.children
        ]
        self.worker_ids = list(node.workers)

        #: candidates[i] — this node's i-th worker's usable sequences as
        #: (mask, length, task_id_tuple), longest first so the incumbent
        #: tightens early and the suffix-bound cut can break the loop.
        self.candidates = []
        #: all_bounds — (union mask, longest length), the per-worker term
        #: of the relaxation bound, of this node's workers then of every
        #: descendant in preorder.
        self.all_bounds = []
        for worker_id in self.worker_ids:
            cands = []
            union = 0
            sequences = sequences_by_worker.get(worker_id, [])
            # Longest first; the sort is stable, so ties keep Q_w rank.
            for sequence in sorted(sequences, key=lambda seq: -len(seq.task_ids)):
                ids = sequence.task_ids
                if not ids or not sequence.task_id_set <= universe:
                    continue  # references a task outside this sub-problem
                mask = 0
                for tid in ids:
                    mask |= bit_mask[tid]
                cands.append((mask, len(ids), ids))
                union |= mask
            self.candidates.append(cands)
            self.all_bounds.append((union, cands[0][1] if cands else 0))

        #: The flattened descendant worker ids (experience states).
        self.desc_worker_ids = []
        for child in self.children:
            self.all_bounds.extend(child.all_bounds)
            self.desc_worker_ids.extend(child.worker_ids)
            self.desc_worker_ids.extend(child.desc_worker_ids)
        #: rest_bounds[i] — all_bounds[i + 1:]: the terms the bound of the
        #: rest of the problem after worker i scans.
        self.rest_bounds = [
            tuple(self.all_bounds[i + 1:]) for i in range(len(self.worker_ids))
        ]

        #: rel_from[i] — union mask of every task referenced by workers
        #: i.. of this node plus all descendants: the only tasks the
        #: remaining sub-problem can read, hence a sound memo-key filter.
        rel = [0]
        for union, _ in reversed(self.all_bounds):
            rel.append(rel[-1] | union)
        rel.reverse()
        self.rel_from = rel[: len(self.worker_ids) + 1]

        #: empty_tail[i:] — the all-unassigned selection tuple for workers
        #: i.. plus every descendant in preorder (the legacy layout).
        tail: List[Tuple[int, Tuple[int, ...]]] = [
            (worker_id, ()) for worker_id in self.worker_ids
        ]
        for child in self.children:
            tail.extend(child.empty_tail)
        self.empty_tail = tuple(tail)

        #: Index of the worker solved in closed form — the last one of a
        #: childless node — or -1.
        self.last = len(self.worker_ids) - 1 if not self.children else -1
        self.memo: List[Dict[int, Tuple[int, _Selection]]] = [
            {} for _ in range(len(self.worker_ids) + 1)
        ]


class _BnBContext:
    """Mutable state of one branch-and-bound invocation."""

    __slots__ = (
        "bit_mask",
        "node_budget",
        "deadline",
        "deadline_hit",
        "_next_stop_check",
        "nodes_expanded",
        "memo_hits",
        "collect_experience",
        "experience",
        "universe_tids",
        "extra_tids",
    )

    def __init__(
        self,
        bit_mask: Dict[int, int],
        node_budget: int,
        deadline: Optional[float] = None,
    ) -> None:
        self.bit_mask = bit_mask
        self.node_budget = node_budget
        self.deadline = deadline
        self.deadline_hit = False
        #: The stop test's fast half: :func:`_stop_reached` runs only once
        #: ``nodes_expanded`` reaches it (0 sends the first test through,
        #: so an already-expired deadline is noticed at expansion 0).
        self._next_stop_check = 0
        self.nodes_expanded = 0
        self.memo_hits = 0
        #: TVF experience collection from the *explored* sub-problems.
        #: Unlike the plain enumeration (which disables memoisation to
        #: record every visited state), the engine keeps its pruning on — the recorded tuples are exactly the branches it had
        #: to evaluate, which makes experience collection dramatically
        #: cheaper on dense components at the cost of a sparser sample.
        self.collect_experience = False
        self.experience: List[Tuple[dict, dict, float]] = []
        #: Bit position -> task id (ascending, so mask iteration yields
        #: sorted ids) and the available-but-unreferenced task ids that
        #: every state snapshot carries.
        self.universe_tids: List[int] = []
        self.extra_tids: Tuple[int, ...] = ()

    def record(
        self, info: _BnBNode, i: int, available: int, task_ids: Tuple[int, ...], value: int
    ) -> None:
        """The experience tuple of worker ``i`` of ``info`` taking
        ``task_ids`` in the ``available`` state, achieving ``value``."""
        remaining = list(self.extra_tids)
        tids = self.universe_tids
        bits = available
        while bits:
            remaining.append(tids[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        pending = list(info.worker_ids[i:]) + info.desc_worker_ids
        self.experience.append(
            (
                _state_snapshot(pending, sorted(remaining)),
                {
                    "worker_id": info.worker_ids[i],
                    "task_ids": task_ids,
                    "sequence_length": len(task_ids),
                },
                float(value),
            )
        )


def _stop_reached(context: _BnBContext) -> bool:
    """Budget or wall-clock cutoff reached — the stop test behind its fast
    half ``nodes_expanded >= _next_stop_check``, which callers test
    inline.  The deadline is polled every ``_DEADLINE_CHECK_INTERVAL``
    expansions (never past the budget), so the fast half is one integer
    compare whether or not one is armed."""
    if context.nodes_expanded >= context.node_budget or context.deadline_hit:
        return True
    if context.deadline is not None:
        if _time.perf_counter() >= context.deadline:
            context.deadline_hit = True
            context._next_stop_check = 0  # stay on the slow (True) path
            return True
        context._next_stop_check = min(
            context.node_budget, context.nodes_expanded + _DEADLINE_CHECK_INTERVAL
        )
    else:
        context._next_stop_check = context.node_budget
    return False


def _bnb_children(
    info: _BnBNode, available: int, context: _BnBContext
) -> Tuple[int, _Selection, bool]:
    """Solve a node's children sequentially (the empty-pending state).

    The caller has probed ``info.memo[-1]`` and missed; each child's memo
    is probed here before its search."""
    if not info.children:
        return 0, (), True
    if context.nodes_expanded >= context._next_stop_check and _stop_reached(context):
        return 0, info.empty_tail[len(info.worker_ids):], False
    context.nodes_expanded += 1
    total = 0
    selections: List[Tuple[int, Tuple[int, ...]]] = []
    remaining = available
    complete = True
    bit_mask = context.bit_mask
    for child in info.children:
        cached = child.memo[0].get(remaining & child.rel_from[0])
        if cached is None:
            child_opt, child_sel, child_complete = _bnb_solve(child, 0, remaining, context)
            complete = complete and child_complete
        else:
            context.memo_hits += 1
            child_opt, child_sel = cached
        total += child_opt
        selections.extend(child_sel)
        for _, task_ids in child_sel:
            for tid in task_ids:
                remaining &= ~bit_mask[tid]
    result = (total, tuple(selections))
    if complete:
        info.memo[-1][available & info.rel_from[-1]] = result
    return result[0], result[1], complete


def _bnb_solve(
    info: _BnBNode, i: int, available: int, context: _BnBContext
) -> Tuple[int, _Selection, bool]:
    """Branch-and-bound over worker ``i`` of ``info`` (then ``i+1``…).

    The caller has probed ``info.memo[i]`` and missed.  The last worker of
    a childless node is solved in closed form.  Returns ``(opt, selections,
    complete)`` where ``complete`` is False iff the budget cut exploration
    somewhere below (in which case ``opt`` is still a feasible lower bound
    and the selections reuse no task).
    """
    if i == len(info.worker_ids):
        return _bnb_children(info, available, context)
    if context.nodes_expanded >= context._next_stop_check and _stop_reached(context):
        return 0, info.empty_tail[i:], False
    context.nodes_expanded += 1
    memo = info.memo[i]
    key = available & info.rel_from[i]

    if i == info.last:
        # The optimum of a lone last worker is its first live candidate in
        # longest-first order (``dfsearch_one_worker``'s rule): the search
        # would evaluate it, poll, and stop at the next live one on the
        # suffix cut.
        for mask, length, task_ids in info.candidates[i]:
            if mask & available == mask:
                if context.collect_experience:
                    context.record(info, i, available, task_ids, length)
                selection = ((info.worker_ids[i], task_ids),)
                if context.nodes_expanded >= context._next_stop_check and _stop_reached(context):
                    return length, selection, False
                memo[key] = (length, selection)
                return length, selection, True
        memo[key] = (0, info.empty_tail[i:])
        return 0, info.empty_tail[i:], True

    # ``cap``, the distinct available tasks workers i.. reference, bounds
    # this sub-problem.  The additive relaxation bounds the rest: every
    # worker i + 1.. capped at min(longest candidate, |union ∩ available|)
    # (each cap is admissible on its own), the sum capped at ``rest_cap``;
    # the scan stops once it reaches ``rest_cap``.  The relaxation is
    # monotone in ``available``, which is what makes the suffix cut sound.
    # Worker i's own term would tighten ``cap`` to the additive bound of
    # the sub-problem, but never stops the search earlier: a live
    # candidate's length is at most that term, so the suffix cut fires at
    # the same candidate.
    cap = key.bit_count()
    if cap == 0:
        memo[key] = (0, info.empty_tail[i:])
        return 0, info.empty_tail[i:], True
    rest = i + 1
    rest_rel = info.rel_from[rest]
    rest_cap = (available & rest_rel).bit_count()
    total = 0
    if rest_cap:
        for union, longest in info.rest_bounds[i]:
            overlap = (union & available).bit_count()
            total += overlap if overlap < longest else longest
            if total >= rest_cap:
                break
    rest_upper = total if total < rest_cap else rest_cap

    worker_id = info.worker_ids[i]
    rest_memo = info.memo[rest]
    best_opt = -1
    best_selection: Optional[_Selection] = None
    complete = True
    tried: List[int] = []
    # Every candidate is scanned in order and the live ones processed.
    # Non-live candidates change nothing, so the break tests fire at the
    # same processed candidate as a walk of the live ones alone would:
    # ``length`` never grows and ``best_opt`` only moves at a processed one.
    for mask, length, task_ids in info.candidates[i]:
        if mask & available != mask:
            continue
        if best_opt >= cap:
            break  # incumbent met the sub-problem bound: proven optimal
        if length + rest_upper <= best_opt:
            break  # longest-first order: every later candidate bounds lower
        # Dominance: a sequence whose task set is a subset of an explored
        # sibling's is skippable only when the sibling's extra tasks are
        # invisible to the remaining sub-problem — then both branches
        # leave the rest the same effective task pool and the longer
        # sibling's value is an upper bound.  (An unconditional subset
        # rule would be unsound: freeing a contested task can unlock a
        # longer sequence elsewhere, outweighing this worker's loss.)
        dominated = False
        for tried_mask in tried:
            if mask & ~tried_mask == 0 and (tried_mask & ~mask) & rest_rel == 0:
                dominated = True
                break
        if dominated:
            continue
        sub_available = available & ~mask
        cached = rest_memo.get(sub_available & rest_rel)
        if cached is None:
            sub_opt, sub_sel, sub_complete = _bnb_solve(info, rest, sub_available, context)
            complete = complete and sub_complete
        else:
            context.memo_hits += 1
            sub_opt, sub_sel = cached
        tried.append(mask)
        value = length + sub_opt
        if context.collect_experience:
            context.record(info, i, available, task_ids, value)
        if value > best_opt:
            best_opt = value
            best_selection = ((worker_id, task_ids),) + sub_sel
        if context.nodes_expanded >= context._next_stop_check and _stop_reached(context):
            complete = False
            break
    # Option 0 (assign nothing) — skipped when the rest-of-problem bound
    # proves it cannot beat the incumbent.
    if best_selection is None or rest_upper > best_opt:
        cached = rest_memo.get(available & rest_rel)
        if cached is None:
            sub_opt, sub_sel, sub_complete = _bnb_solve(info, rest, available, context)
            complete = complete and sub_complete
        else:
            context.memo_hits += 1
            sub_opt, sub_sel = cached
        if sub_opt > best_opt or best_selection is None:
            best_opt = sub_opt
            best_selection = ((worker_id, ()),) + sub_sel
    if complete:
        memo[key] = (best_opt, best_selection)
    return best_opt, best_selection, complete


def dfsearch_bnb(
    node: PartitionNode,
    tasks: Optional[Sequence[Task]],
    sequences_by_worker: Dict[int, List[TaskSequence]],
    workers_by_id: Dict[int, Worker],
    node_budget: int = 20000,
    collect_experience: bool = False,
    deadline: Optional[float] = None,
    available_ids: Optional[FrozenSet[int]] = None,
) -> DFSearchResult:
    """Anytime branch-and-bound search of a partition-tree node.

    Parameters
    ----------
    node:
        Root of the (sub)tree to search.
    tasks:
        Currently unassigned tasks available to this sub-problem.  The
        search only ever reads their ids; pass ``available_ids`` instead
        (with ``tasks=None``) to make the call a pure function of plain
        data — the form :func:`repro.assignment.executor.run_component_job`
        calls it in.
    sequences_by_worker:
        Pre-computed ``Q_w`` for every worker appearing in the tree.
    workers_by_id:
        Worker lookup table.
    node_budget:
        Limit on expansions (graceful degradation on huge nodes).  Memo
        hits replay a completed sub-problem and are not charged.
    collect_experience:
        Record a ``(state, action, value)`` tuple for every branch the
        search actually evaluates — the explored sub-problems.  Pruning and
        memoisation stay on, so the sample is sparser than the plain
        enumeration's exhaustive trace but costs orders of magnitude fewer
        expansions on dense components.
    deadline:
        Absolute ``time.perf_counter()`` cutoff; on expiry the best
        anytime answer found so far is returned with ``deadline_hit`` set.
    available_ids:
        Task ids available to this sub-problem; overrides ``tasks``.

    Guarantees, for the same inputs:

    * **the optimum ``opt``** of Algorithm 1 whenever the search completes
      within its budget (the bound is admissible and the dominance rule
      only skips sequences provably no better than an explored sibling);
    * a **feasible** answer always — selections are drawn from ``Q_w``
      and no task is assigned twice, even under budget exhaustion;
    * the result depends only on the tree shape, the workers' sequence
      id-sets and the availability of the referenced task ids — never on
      ``now`` — so component results stay replayable by the incremental
      engine.
    """
    if available_ids is None:
        available_ids = {task.task_id for task in tasks}

    # Universe: available tasks actually referenced by some sequence of a
    # tree worker, in sorted id order for a deterministic bit layout.
    referenced: Set[int] = set()
    for worker_id in node.all_workers():
        for sequence in sequences_by_worker.get(worker_id, []):
            ids = sequence.task_id_set
            if ids and ids <= available_ids:
                referenced.update(ids)
    universe_tids = sorted(referenced)
    bit_mask = {tid: 1 << i for i, tid in enumerate(universe_tids)}

    info = _BnBNode(node, referenced, bit_mask, sequences_by_worker)
    context = _BnBContext(bit_mask, node_budget, deadline=deadline)
    if collect_experience:
        context.collect_experience = True
        context.universe_tids = universe_tids
        context.extra_tids = tuple(sorted(available_ids - referenced))
    available = (1 << len(bit_mask)) - 1
    opt, selections, complete = _bnb_solve(info, 0, available, context)
    return DFSearchResult(
        opt=opt,
        selections=list(selections),
        nodes_expanded=context.nodes_expanded,
        experience=context.experience,
        memo_hits=context.memo_hits,
        complete=complete,
        deadline_hit=context.deadline_hit,
    )


def dfsearch_one_worker(
    worker_id: int,
    sequences: Sequence[TaskSequence],
    available_ids: FrozenSet[int],
) -> DFSearchResult:
    """Closed form of :func:`dfsearch_bnb` on a one-worker leaf tree.

    A lone worker's optimum is its longest fully-available candidate —
    the first in ``Q_w`` order when lengths tie — or ``()`` when none is
    available.  The branch-and-bound engine answers a one-worker leaf tree
    by the same rule in one expansion — the first live candidate in its
    longest-first (stable) order — so this reports ``nodes_expanded = 1``
    as well, and its result is interchangeable with the search's, cache
    entries included.
    """
    best: Tuple[int, ...] = ()
    for sequence in sequences:
        ids = sequence.task_ids
        if len(ids) > len(best) and sequence.task_id_set <= available_ids:
            best = ids
    return DFSearchResult(
        opt=len(best), selections=[(worker_id, best)], nodes_expanded=1
    )
