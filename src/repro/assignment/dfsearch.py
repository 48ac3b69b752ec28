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
components; ``dfsearch_bnb`` stays its oracle.

The worst case is exponential; a node budget bounds the explored search
tree and memoisation collapses repeated (workers, tasks) sub-problems, so
both engines degrade gracefully to a best-effort answer on huge clusters.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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


def _state_snapshot(worker_ids: Sequence[int], task_ids: FrozenSet[int]) -> dict:
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


class _BnBNode:
    """Per-tree-node search structures, precomputed once per invocation.

    Task sets live as bitmasks over the tasks actually referenced by some
    candidate sequence of this tree (its *universe*) — intersection,
    containment and cardinality are then single big-int operations over
    the arrays cached when the sequences were enumerated.
    """

    __slots__ = (
        "key",
        "children",
        "worker_ids",
        "desc_worker_ids",
        "candidates",
        "holders",
        "own_bounds",
        "desc_bounds",
        "all_bounds",
        "rel_from",
        "empty_tail",
        "lp_active",
    )

    def __init__(
        self,
        node: PartitionNode,
        bit_of: Dict[int, int],
        sequences_by_worker: Dict[int, List[TaskSequence]],
        counter: List[int],
        bound_mode: str,
    ) -> None:
        self.key = counter[0]
        counter[0] += 1
        self.children = [
            _BnBNode(child, bit_of, sequences_by_worker, counter, bound_mode)
            for child in node.children
        ]
        self.worker_ids = list(node.workers)

        #: candidates[i] — this node's i-th worker's usable sequences as
        #: (mask, length, task_id_tuple), longest first so the incumbent
        #: tightens early and the suffix-bound cut can break the loop.
        self.candidates = []
        #: holders[i][b] — bitmask over the indices of worker i's
        #: candidates that contain the task at bit position b: clearing
        #: the holders of every unavailable task leaves the live ones.
        self.holders = []
        #: own_bounds[i] — (union mask, longest length) per worker: the
        #: per-worker term of the relaxation bound.
        self.own_bounds = []
        for worker_id in self.worker_ids:
            cands = []
            holders = [0] * len(bit_of)
            union = 0
            sequences = sequences_by_worker.get(worker_id, [])
            # Longest first; the sort is stable, so ties keep Q_w rank.
            for sequence in sorted(sequences, key=lambda seq: -len(seq.task_ids)):
                ids = sequence.task_ids
                if not ids or any(tid not in bit_of for tid in ids):
                    continue  # references a task outside this sub-problem
                mask = 0
                flag = 1 << len(cands)
                for tid in ids:
                    position = bit_of[tid]
                    mask |= 1 << position
                    holders[position] |= flag
                cands.append((mask, len(ids), ids))
                union |= mask
            self.candidates.append(cands)
            self.holders.append(holders)
            self.own_bounds.append((union, cands[0][1] if cands else 0))

        #: Flattened (union mask, longest) of every descendant worker, and
        #: the matching flattened descendant worker ids (experience states).
        self.desc_bounds = []
        self.desc_worker_ids = []
        for child in self.children:
            self.desc_bounds.extend(child.own_bounds)
            self.desc_bounds.extend(child.desc_bounds)
            self.desc_worker_ids.extend(child.worker_ids)
            self.desc_worker_ids.extend(child.desc_worker_ids)

        #: rel_from[i] — union mask of every task referenced by workers
        #: i.. of this node plus all descendants: the only tasks the
        #: remaining sub-problem can read, hence a sound memo-key filter.
        descendant_rel = 0
        for union, _ in self.desc_bounds:
            descendant_rel |= union
        rel = [descendant_rel]
        for union, _ in reversed(self.own_bounds):
            rel.append(rel[-1] | union)
        rel.reverse()
        self.rel_from = rel

        #: Concatenated (union, longest) of this node's workers then every
        #: descendant — ``bound(i)`` scans ``all_bounds[i:]``, the exact
        #: order the two legacy loops visited.
        self.all_bounds = self.own_bounds + self.desc_bounds

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

    def bound(self, i: int, available: int) -> int:
        """Admissible upper bound on tasks assignable by workers ``i..``
        of this node plus all descendants, given the ``available`` mask.

        Additive relaxation: every undecided worker contributes at most
        ``min(longest candidate, |union ∩ available|)`` (each cap is
        individually admissible), and the total can never exceed the
        number of distinct available tasks the group references.  The
        per-worker scan short-circuits at that cap.

        With :attr:`lp_active` the additive value is refined by the exact
        fractional-matching max-flow over the same ``(union ∩ available,
        capacity)`` structure, which never double-counts a shared task.
        A value is only ever reused for the identical ``(i, available)``
        **under the node's active kind** (the option-0 child inherits its
        parent's rest bound) — an additive value must never stand in for
        an LP call site (or vice versa) once a caller has used it to size
        a suffix cut, and both kinds are monotone in ``available``, which
        is what makes the suffix cuts sound.  On a step-cap abort the flow
        search discards its partial flow (a lower bound of the relaxation,
        inadmissible) and the additive value stands.
        """
        cap = (available & self.rel_from[i]).bit_count()
        if cap == 0:
            return 0
        bounds = self.all_bounds
        if not self.lp_active:
            total = 0
            for j in range(i, len(bounds)):
                union, longest = bounds[j]
                overlap = (union & available).bit_count()
                if overlap:
                    total += overlap if overlap < longest else longest
                    if total >= cap:
                        return cap
            return total
        # LP path: the additive scan runs without the cap short-circuit so
        # the flow search sees every undecided worker's unit.
        total = 0
        units: List[Tuple[int, int]] = []
        for j in range(i, len(bounds)):
            union, longest = bounds[j]
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
        "memo",
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
        self._next_stop_check = 0
        self.nodes_expanded = 0
        self.memo_hits = 0
        # (node key, worker index, relevant available mask) -> (opt, sel).
        # Only *completed* sub-problems are stored, so a memo entry is
        # always the proven optimum of its sub-problem regardless of the
        # incumbent state it was computed under.
        self.memo: Dict[
            Tuple[int, int, int], Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]
        ] = {}
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

    def exhausted(self) -> bool:
        """Budget or wall-clock cutoff reached (same contract as
        :meth:`SearchContext.out_of_budget`; the deadline is polled every
        ``_DEADLINE_CHECK_INTERVAL`` expansions, and the fast path is a
        single integer compare whether or not a deadline is armed)."""
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

    def mask_task_ids(self, mask: int) -> List[int]:
        """Task ids of a universe bitmask, in ascending id order."""
        ids: List[int] = []
        tids = self.universe_tids
        bits = mask
        while bits:
            ids.append(tids[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        return ids


def _bnb_children(
    info: _BnBNode, available: int, context: _BnBContext
) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...], bool]:
    """Solve a node's children sequentially (the empty-pending state)."""
    if not info.children:
        return 0, (), True
    key = (info.key, len(info.worker_ids), available & info.rel_from[-1])
    cached = context.memo.get(key)
    if cached is not None:
        context.memo_hits += 1
        return cached[0], cached[1], True
    if context.exhausted():
        return 0, info.empty_tail[len(info.worker_ids):], False
    context.nodes_expanded += 1
    total = 0
    selections: List[Tuple[int, Tuple[int, ...]]] = []
    remaining = available
    complete = True
    bit_mask = context.bit_mask
    for child in info.children:
        child_opt, child_sel, child_complete = _bnb_solve(child, 0, remaining, context)
        total += child_opt
        selections.extend(child_sel)
        complete = complete and child_complete
        for _, task_ids in child_sel:
            for tid in task_ids:
                remaining &= ~bit_mask[tid]
    result = (total, tuple(selections))
    if complete:
        context.memo[key] = result
    return result[0], result[1], complete


def _bnb_solve(
    info: _BnBNode,
    i: int,
    available: int,
    context: _BnBContext,
    upper: Optional[int] = None,
) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...], bool]:
    """Branch-and-bound over worker ``i`` of ``info`` (then ``i+1``…).

    ``upper`` is ``info.bound(i, available)`` when the caller already
    holds it (the option-0 child of worker ``i - 1``).  Returns ``(opt,
    selections, complete)`` where ``complete`` is False iff the budget cut
    exploration somewhere below (in which case ``opt`` is still a feasible
    lower bound and the selections reuse no task).
    """
    if i == len(info.worker_ids):
        return _bnb_children(info, available, context)

    key = (info.key, i, available & info.rel_from[i])
    cached = context.memo.get(key)
    if cached is not None:
        context.memo_hits += 1
        return cached[0], cached[1], True
    if context.exhausted():
        return 0, info.empty_tail[i:], False
    context.nodes_expanded += 1

    if upper is None:
        upper = info.bound(i, available)
    if upper == 0:
        result = (0, info.empty_tail[i:])
        context.memo[key] = result
        return 0, result[1], True

    worker_id = info.worker_ids[i]
    rest_rel = info.rel_from[i + 1]
    rest_upper = info.bound(i + 1, available)
    best_opt = -1
    best_selection: Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]] = None
    complete = True
    tried: List[int] = []
    # Live candidates: clear the holders of every unavailable task, then
    # walk the surviving indices lowest-first (candidate order).  The
    # break tests fire at the same processed candidate as a scan of every
    # candidate would: ``length`` never grows and ``best_opt`` only moves
    # at a processed one.
    candidates = info.candidates[i]
    holders = info.holders[i]
    live = (1 << len(candidates)) - 1
    gone = info.own_bounds[i][0] & ~available
    while gone:
        bit = gone & -gone
        live &= ~holders[bit.bit_length() - 1]
        gone ^= bit
    while live:
        low = live & -live
        live ^= low
        mask, length, task_ids = candidates[low.bit_length() - 1]
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
        sub_opt, sub_sel, sub_complete = _bnb_solve(info, i + 1, available & ~mask, context)
        complete = complete and sub_complete
        tried.append(mask)
        value = length + sub_opt
        if context.collect_experience:
            pending = list(info.worker_ids[i:]) + info.desc_worker_ids
            remaining = sorted(
                context.mask_task_ids(available) + list(context.extra_tids)
            )
            context.experience.append(
                (
                    _state_snapshot(pending, remaining),
                    {
                        "worker_id": worker_id,
                        "task_ids": task_ids,
                        "sequence_length": length,
                    },
                    float(value),
                )
            )
        if value > best_opt:
            best_opt = value
            best_selection = ((worker_id, task_ids),) + sub_sel
        if context.exhausted():
            complete = False
            break
    # Option 0 (assign nothing) — skipped when the rest-of-problem bound
    # proves it cannot beat the incumbent.
    if best_selection is None or (best_opt < upper and rest_upper > best_opt):
        sub_opt, sub_sel, sub_complete = _bnb_solve(
            info, i + 1, available, context, rest_upper
        )
        complete = complete and sub_complete
        if sub_opt > best_opt or best_selection is None:
            best_opt = sub_opt
            best_selection = ((worker_id, ()),) + sub_sel
    result = (best_opt, best_selection)
    if complete:
        context.memo[key] = result
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
    referenced: set = set()
    for worker_id in node.all_workers():
        for sequence in sequences_by_worker.get(worker_id, []):
            ids = sequence.task_id_set
            if ids and ids <= available_ids:
                referenced.update(ids)
    bit_of = {tid: i for i, tid in enumerate(sorted(referenced))}
    bit_mask = {tid: 1 << i for tid, i in bit_of.items()}

    counter = [0]
    info = _BnBNode(node, bit_of, sequences_by_worker, counter, bound_mode)
    context = _BnBContext(bit_mask, node_budget, deadline=deadline)
    if collect_experience:
        context.collect_experience = True
        context.universe_tids = sorted(referenced)
        context.extra_tids = tuple(sorted(available_ids - referenced))
    available = (1 << len(bit_of)) - 1
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
    available.  The branch-and-bound engine reaches the same answer in one
    expansion: its root bound is the longest live candidate's length, and
    the first live candidate in its longest-first (stable) order meets
    it.  So this reports ``nodes_expanded = 1`` as well, and its result
    is interchangeable with the search's, cache entries included.
    """
    best: Tuple[int, ...] = ()
    for sequence in sequences:
        ids = sequence.task_ids
        if len(ids) > len(best) and sequence.task_id_set <= available_ids:
            best = ids
    return DFSearchResult(
        opt=len(best), selections=[(worker_id, best)], nodes_expanded=1
    )
