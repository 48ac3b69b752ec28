"""Exact search over the partition tree: DFSearch (Algorithm 1) and an
anytime branch-and-bound engine built on the same sub-problem structure.

``dfsearch`` computes, for a partition-tree node, the maximum number of
tasks assignable to the workers of that node and its descendants, trying
every (worker, maximal-valid-sequence) combination and recursing on the
remaining workers and tasks.  Besides the optimum it returns the realising
assignment and, optionally, the ``(state, action, opt)`` experience tuples
used to train the Task Value Function.

``dfsearch_bnb`` solves the identical problem with branch-and-bound
pruning: every sub-problem carries an admissible upper bound (a per-worker
capped relaxation over the candidate sequences, evaluated as bitmask
intersections), branches are ordered so the incumbent tightens
early, sequences whose task sets are subsets of an already-explored
sibling — with the sibling's extra tasks invisible to the remaining
workers — are skipped (dominance), and memoisation keys are restricted
to the tasks the remaining workers can actually reference.  On any instance
the plain search solves within budget the two engines return the same
``opt``; under budget exhaustion both degrade to a feasible best-effort
answer, but the branch-and-bound engine reaches the optimum after far
fewer expansions on dense components.

``dfsearch_one_worker`` is the branch-and-bound engine's answer on a
one-worker leaf tree in closed form — the worker's longest
fully-available candidate — for the incremental engine's one-worker
components; the engine solves the last worker of every childless node by
the same rule, so their oracle is a brute force in the tests.

The worst case is exponential; a node budget bounds the explored search
tree and memoisation collapses repeated (workers, tasks) sub-problems, so
both engines degrade gracefully to a best-effort answer on huge clusters.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker

#: Adaptive-budget scaling: expansions granted per component worker and per
#: candidate sequence.  Dense components solve to proven optimality well
#: under these floors with the branch-and-bound engine (typically a few
#: thousand expansions), while huge flat components get room to finish
#: instead of degrading at a fixed cap sized for yesterday's cost profile.
_BUDGET_PER_WORKER = 2000
_BUDGET_PER_SEQUENCE = 250

#: Expansions between wall-clock deadline checks.  A ``perf_counter`` read
#: costs tens of nanoseconds versus microseconds per expansion, so checking
#: every 64 nodes keeps the overshoot past a deadline in the tens of
#: microseconds while adding well under a percent of search cost.
_DEADLINE_CHECK_INTERVAL = 64

#: Admissible bound kinds for :func:`dfsearch_bnb`.  ``additive`` is the
#: per-worker capped sum; ``lp`` refines it with an exact fractional-
#: matching (bipartite b-matching max-flow) relaxation; ``adaptive``
#: enables the refinement only on *contested* nodes — ones holding a
#: capacity-surplus worker cluster, where the additive bound provably
#: double-counts shared tasks.  Every kind is admissible, so the engine
#: stays exact under all of them.
BOUND_MODES = ("additive", "lp", "adaptive")

#: The shipped bound kind: the one default of ``PlannerConfig``,
#: ``ComponentJob`` and :func:`dfsearch_bnb` (why: ``PlannerConfig``).
DEFAULT_BOUND_MODE = "additive"

#: Work cap of one max-flow bound evaluation, counted in augmenting-path
#: steps.  The flow search is *anytime*: on hitting the cap it abandons the
#: refinement and the caller falls back to the additive bound (a partial
#: flow is a lower bound on the relaxation and would not be admissible).
_FLOW_STEP_LIMIT = 4096

#: Adaptive trigger — see :meth:`_BnBNode.__init__`.  The matching bound
#: can only improve on the additive bound when some worker *cluster* has
#: capacity surplus: a subset whose summed capacities exceed the distinct
#: tasks it references (a Hall-deficiency witness — some capacity provably
#: goes unused, which is exactly what the additive sum double-counts).
#: Dense isotropic components never have one (every worker's pool dwarfs
#: its capacity), and there the flow search is pure per-node overhead, so
#: arming on a mere refs-per-task ratio triples ``bound()`` cost for zero
#: pruning.  The trigger scans workers in ascending pool-size order and
#: arms on the first prefix whose capacity sum exceeds its joint pool.


def _matching_bound(units: List[Tuple[int, int]], limit: int) -> Optional[int]:
    """Exact b-matching max-flow over ``(task mask, capacity)`` units.

    Models the LP relaxation of the component's worker×task structure:
    worker ``w`` may serve at most ``capacity`` tasks, each drawn from its
    ``mask``, and every task serves at most one worker.  The integral
    max-flow equals the LP optimum here (the constraint matrix is totally
    unimodular), upper-bounds any feasible joint selection — a selection
    induces a flow — and never exceeds the additive bound ``limit``.

    Returns ``None`` when the augmenting-path step cap is hit: the partial
    flow is *not* an admissible upper bound, so the caller must fall back
    to the additive value.
    """
    owner: Dict[int, int] = {}  # task bit -> unit index currently serving it
    matched = 0  # mask of matched tasks
    steps = 0
    flow = 0
    for w, (mask, capacity) in enumerate(units):
        for _ in range(capacity):
            # One Kuhn augmentation from ``w``, as an explicit-stack DFS
            # over current task holders; frames are [holder, bits left to
            # scan, entry bit].
            visited = {w}
            stack = [[w, mask, 0]]
            augmented = False
            while stack:
                frame = stack[-1]
                free = units[frame[0]][0] & ~matched
                if free:
                    bit = free & -free
                    matched |= bit
                    owner[bit] = frame[0]
                    # Shift every stolen task one frame up the path.
                    for k in range(len(stack) - 1, 0, -1):
                        owner[stack[k][2]] = stack[k - 1][0]
                    augmented = True
                    break
                bits = frame[1]
                descended = False
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    frame[1] = bits
                    holder = owner[bit]
                    if holder in visited:
                        continue
                    visited.add(holder)
                    steps += 1
                    if steps > _FLOW_STEP_LIMIT:
                        return None
                    stack.append([holder, units[holder][0], bit])
                    descended = True
                    break
                if not descended:
                    stack.pop()
            if not augmented:
                break  # matched tasks only grow: later tries fail too
            flow += 1
            if flow >= limit:
                return limit
    return flow


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
        wall-clock twin of ``node_budget``).  ``None`` disables the check
        entirely — the no-deadline path pays nothing.
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
    # Single fused threshold for the per-expansion stop test: the fast path
    # is one integer compare whether or not a deadline is armed (0 forces
    # the first call through the slow path, so an already-expired deadline
    # is noticed at expansion 0).
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
        return self.nodes_expanded >= self._next_stop_check and _stop_reached(self)


def _stop_reached(context: Union[SearchContext, "_BnBContext"]) -> bool:
    """Budget or wall-clock cutoff reached — the stop test of both engines,
    behind its fast half ``nodes_expanded >= _next_stop_check``, which
    callers test inline.  The deadline is polled every
    ``_DEADLINE_CHECK_INTERVAL`` expansions (never past the budget), so
    the fast half is one integer compare whether or not one is armed."""
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


@dataclass
class DFSearchResult:
    """Outcome of a DFSearch / branch-and-bound run."""

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
        data — the form :func:`repro.assignment.executor.run_component_job`
        calls it in.
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
        selections=[sel for sel in selections],
        nodes_expanded=context.nodes_expanded,
        experience=context.experience,
        memo_hits=context.memo_hits,
        complete=not context.out_of_budget(),
        deadline_hit=context.deadline_hit,
    )


# --------------------------------------------------------------------- #
# Branch-and-bound engine
# --------------------------------------------------------------------- #


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
        "own_bounds",
        "all_bounds",
        "suffix_bounds",
        "rel_from",
        "empty_tail",
        "last",
        "lp_active",
        "memo",
    )

    def __init__(
        self,
        node: PartitionNode,
        universe: Set[int],
        bit_mask: Dict[int, int],
        sequences_by_worker: Dict[int, List[TaskSequence]],
        bound_mode: str,
    ) -> None:
        self.children = [
            _BnBNode(child, universe, bit_mask, sequences_by_worker, bound_mode)
            for child in node.children
        ]
        self.worker_ids = list(node.workers)

        #: candidates[i] — this node's i-th worker's usable sequences as
        #: (mask, length, task_id_tuple), longest first so the incumbent
        #: tightens early and the suffix-bound cut can break the loop.
        self.candidates = []
        #: own_bounds[i] — (union mask, longest length) per worker: the
        #: per-worker term of the relaxation bound.
        self.own_bounds = []
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
            self.own_bounds.append((union, cands[0][1] if cands else 0))

        #: Concatenated (union, longest) of this node's workers then every
        #: descendant in preorder, and the flattened descendant worker ids
        #: (experience states).
        self.all_bounds = list(self.own_bounds)
        self.desc_worker_ids = []
        for child in self.children:
            self.all_bounds.extend(child.all_bounds)
            self.desc_worker_ids.extend(child.worker_ids)
            self.desc_worker_ids.extend(child.desc_worker_ids)
        #: suffix_bounds[i] — all_bounds[i:]: the terms the bound of
        #: workers i.. scans.
        self.suffix_bounds = [
            tuple(self.all_bounds[i:]) for i in range(len(self.worker_ids) + 1)
        ]

        #: rel_from[i] — union mask of every task referenced by workers
        #: i.. of this node plus all descendants: the only tasks the
        #: remaining sub-problem can read, hence a sound memo-key filter.
        rel = [0]
        for union, _ in reversed(self.all_bounds):
            rel.append(rel[-1] | union)
        rel.reverse()
        self.rel_from = rel[: len(self.worker_ids) + 1]

        #: Whether :meth:`bound` refines the additive value with the exact
        #: fractional-matching max-flow.  Decided per tree node: ``lp``
        #: forces it, ``adaptive`` enables it only when the group holds a
        #: capacity-surplus cluster — some workers-in-ascending-pool-order
        #: prefix whose capacities sum past its joint task pool — the
        #: Hall-deficiency structure where the additive bound provably
        #: double-counts.  Without one (dense isotropic components) the
        #: flow equals the additive value and would be pure overhead.
        if bound_mode == "lp":
            self.lp_active = sum(1 for union, _ in self.all_bounds if union) >= 2
        elif bound_mode == "adaptive":
            pools = sorted(
                (union.bit_count(), union, longest)
                for union, longest in self.all_bounds
                if union
            )
            cap_sum = 0
            joint = 0
            self.lp_active = False
            for pool_size, union, longest in pools:
                cap_sum += longest if longest < pool_size else pool_size
                joint |= union
                # A one-worker prefix can never trigger: its capacity is
                # clamped to its own pool size.
                if cap_sum > joint.bit_count():
                    self.lp_active = True
                    break
        else:
            self.lp_active = False

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

    def bound(self, i: int, available: int) -> int:
        """Matching-refined upper bound on tasks assignable by workers
        ``i..`` of this node plus all descendants, given the ``available``
        mask — the bound of nodes with :attr:`lp_active` set.

        The additive relaxation caps every undecided worker at ``min(longest
        candidate, |union ∩ available|)`` (each cap is individually
        admissible) and the total at the number of distinct available tasks
        the group references; :func:`_bnb_solve` computes it inline, for
        ``i`` and ``i + 1`` in one scan.  Here it is refined by the exact
        fractional-matching max-flow over the same ``(union ∩ available,
        capacity)`` structure, which never double-counts a shared task.
        A value is only ever reused for the identical ``(i, available)``
        under the node's active kind (the option-0 child inherits its
        parent's rest bound); both kinds are monotone in ``available``,
        which is what makes the suffix cuts sound.  On a step-cap abort the
        flow search discards its partial flow (a lower bound of the
        relaxation, inadmissible) and the additive value stands.
        """
        cap = (available & self.rel_from[i]).bit_count()
        if cap == 0:
            return 0
        total = 0
        units: List[Tuple[int, int]] = []
        for union, longest in self.suffix_bounds[i]:
            overlap_mask = union & available
            if overlap_mask:
                overlap = overlap_mask.bit_count()
                capacity = overlap if overlap < longest else longest
                total += capacity
                units.append((overlap_mask, capacity))
        if total >= cap:
            total = cap
        if len(units) < 2:
            return total  # a single worker's capped term is already exact
        flow = _matching_bound(units, total)
        return total if flow is None else flow


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
        #: The stop test's fast half, as for :class:`SearchContext`.
        self._next_stop_check = 0
        self.nodes_expanded = 0
        self.memo_hits = 0
        #: TVF experience collection from the *explored* sub-problems.
        #: Unlike the plain search (which disables memoisation to record
        #: every visited state), the branch-and-bound engine keeps its
        #: pruning on — the recorded tuples are exactly the branches it had
        #: to evaluate, which makes experience collection dramatically
        #: cheaper on dense components at the cost of a sparser sample.
        self.collect_experience = False
        self.experience: List[Tuple[dict, dict, float]] = []
        #: Bit position -> task id (ascending, so mask iteration yields
        #: sorted ids) and the available-but-unreferenced task ids that the
        #: plain search would carry in every state snapshot.
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
    info: _BnBNode,
    i: int,
    available: int,
    context: _BnBContext,
    upper: Optional[int] = None,
) -> Tuple[int, _Selection, bool]:
    """Branch-and-bound over worker ``i`` of ``info`` (then ``i+1``…).

    The caller has probed ``info.memo[i]`` and missed.  ``upper`` is
    ``info.bound(i, available)`` when the caller already holds it (the
    option-0 child of worker ``i - 1``); only :attr:`_BnBNode.lp_active`
    nodes read it — elsewhere one additive scan yields both this
    sub-problem's bound and the rest-of-problem bound.  The last worker of
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

    rest = i + 1
    if info.lp_active:
        if upper is None:
            upper = info.bound(i, available)
        if upper == 0:
            memo[key] = (0, info.empty_tail[i:])
            return 0, info.empty_tail[i:], True
        rest_upper = info.bound(rest, available)
    else:
        # bound(i) = min(cap, term_i + S) and bound(i + 1) = min(rest_cap,
        # S), S the capped terms of workers i + 1..: one scan of S, cut
        # short once it settles both minima.
        cap = key.bit_count()
        if cap == 0:
            memo[key] = (0, info.empty_tail[i:])
            return 0, info.empty_tail[i:], True
        union, longest = info.own_bounds[i]
        overlap = (union & available).bit_count()
        term = overlap if overlap < longest else longest
        rest_cap = (available & info.rel_from[rest]).bit_count()
        total = 0
        if rest_cap:
            limit = cap - term if cap - term > rest_cap else rest_cap
            for union, longest in info.suffix_bounds[rest]:
                overlap = (union & available).bit_count()
                total += overlap if overlap < longest else longest
                if total >= limit:
                    break
        rest_upper = total if total < rest_cap else rest_cap
        upper = total + term if total + term < cap else cap

    worker_id = info.worker_ids[i]
    rest_memo = info.memo[rest]
    rest_rel = info.rel_from[rest]
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
        if best_opt >= upper:
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
    if best_selection is None or (best_opt < upper and rest_upper > best_opt):
        cached = rest_memo.get(available & rest_rel)
        if cached is None:
            sub_opt, sub_sel, sub_complete = _bnb_solve(
                info, rest, available, context, rest_upper
            )
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
    bound_mode: str = DEFAULT_BOUND_MODE,
) -> DFSearchResult:
    """Anytime branch-and-bound equivalent of :func:`dfsearch`.

    ``bound_mode`` selects the admissible bound (see :data:`BOUND_MODES`):
    the per-worker ``additive`` relaxation (the default), the
    fractional-matching ``lp`` refinement, or ``adaptive``, which pays for
    the flow search only on contested nodes.  The mode changes how much
    is pruned — ``nodes_expanded`` and the tie-broken selections may
    differ — but never the optimality guarantees below, which hold for
    every kind.

    Guarantees, for the same inputs:

    * **identical ``opt``** whenever the plain search completes within its
      budget (the bound is admissible and the dominance rule only skips
      sequences provably no better than an explored sibling);
    * a **feasible** answer always — selections are drawn from ``Q_w``
      and no task is assigned twice, even under budget exhaustion;
    * like the plain search, the result depends only on the tree shape,
      the workers' sequence id-sets and the availability of the
      referenced task ids — never on ``now`` — so component results stay
      replayable by the incremental engine.

    With ``collect_experience`` the engine records a ``(state, action,
    value)`` tuple for every branch it actually evaluates — the explored
    sub-problems.  Pruning and memoisation stay on, so the sample is
    sparser than the plain search's exhaustive trace but costs orders of
    magnitude fewer expansions on dense components; recorded values are
    the achieved values of the explored branches, identical in meaning to
    the plain search's tuples.

    Like :func:`dfsearch`, the engine only reads task *ids*: passing
    ``available_ids`` (with ``tasks=None``) yields the same result from
    plain data.
    """
    if bound_mode not in BOUND_MODES:
        raise ValueError(
            f"bound_mode must be one of {BOUND_MODES}, got {bound_mode!r}"
        )
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

    info = _BnBNode(node, referenced, bit_mask, sequences_by_worker, bound_mode)
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
