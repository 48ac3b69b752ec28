"""Maximal valid task sequence generation (Section IV-A.1, Eq. 10).

For a worker's reachable task set ``RS_w`` we enumerate valid task
sequences (Definition 4) of at most ``max_length`` tasks, depth first in
lexicographic order of task index.  Each task *set* keeps the
earliest-completing order the search reached (Eq. 10), and the search
extends an order only when it ties or beats the best order of its set
known at that moment.  The continuations of a slower order are never
visited, so the kept order is not always the set's minimum-completion
order, and a set reachable only through such a continuation is missed —
leaving its subsets to be reported as maximal.  On 300
sampled ``dense_batch`` calls about 8 % of the emitted sequences finish
later than their set's best order (median 3-4 s, at most 32-39 s), and
1-5 truly maximal sets went missing; ``tests/assignment/
test_sequence_definitions.py`` pins both on a three-task instance.  Of
the stored sets only those inside no larger stored set are returned.

The enumeration is exponential in the worst case; ``max_length`` bounds the
sequence length (workers rarely chain more than a handful of tasks inside
one availability window), ``max_sequences`` bounds the output size, and
the search enters no node once ``max_sequences * 8`` sets are stored.

The search is a plain recursion over precomputed leg-time arrays
(:class:`~repro.spatial.travel_matrix.LegTimes`): every worker→task and
task→task leg is evaluated exactly once per call — sliced out of a shared
:class:`~repro.spatial.travel_matrix.TravelMatrix` when one is supplied,
or computed scalar-by-scalar otherwise.  Both sources yield bit-identical
floats, so the enumeration result does not depend on which path fed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, LegPricer, TravelModel
from repro.spatial.travel_matrix import LegTimes, TravelMatrix

#: Below this many reachable tasks the scalar leg precompute is cheaper
#: than matrix slicing; both sources yield bit-identical leg times.
_MATRIX_MIN_TASKS = 5


def maximal_valid_sequences(
    worker: Worker,
    reachable: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
    max_length: int = 3,
    max_sequences: int = 64,
    matrix: Optional[TravelMatrix] = None,
    horizon_out: Optional[List[float]] = None,
    per_leg: bool = True,
) -> List[TaskSequence]:
    """Generate the maximal valid task sequence set ``Q_w``.

    The search proceeds depth-first over orderings, pruning any extension
    that violates Definition 4.  Every visited task *set* keeps the
    earliest-completing of its visited orders, and an order is extended
    only if it ties or beats that set's best order at the time — so an
    unvisited order can complete earlier (see the module docstring for
    how often).  A set is returned only if no larger stored set contains
    it, ranked by size (descending), then relative completion time.

    The empty sequence is never returned; a worker with no feasible task
    yields an empty list.

    Parameters
    ----------
    matrix:
        Optional shared :class:`TravelMatrix`; when given (and covering the
        worker and every reachable task) the leg times are array slices
        instead of per-pair travel-model calls.
    horizon_out:
        Optional single-element accumulator.  When given, the earliest
        future time at which this function's output could change — with the
        worker and ``reachable`` held fixed — is appended.  Every validity
        predicate has the form ``now + legs < bound`` with ``legs`` and
        ``bound`` time-invariant, so each evaluated-and-true predicate
        flips exactly at ``bound - legs``; predicates that are false stay
        false as ``now`` grows.  The minimum over those flip times is
        therefore a sound reuse horizon for incremental replanning.  The
        leg times themselves are only time-invariant inside one
        speed-profile window of the travel model, so the horizon is
        additionally clamped to ``next_profile_boundary(now)`` (infinite
        for static models).
    per_leg:
        Price each leg in the speed-profile window in force at its
        *departure* on the simulated clock (PR 10), instead of freezing
        every leg at the epoch multiplier.  Only takes effect when the
        model feeding the legs returns a pricer from
        :meth:`~repro.spatial.travel.TravelModel.leg_pricer` — static and
        uniform-profile models return ``None``, keeping this path
        bit-for-bit identical to the frozen one.  When active, each leg
        priced at the latched multiplier is rescaled by
        ``latched / multiplier_at(departure)`` (a no-op inside the
        latched window), and the reported horizon is additionally
        tightened to the earliest instant at which any evaluated leg's
        departure would cross into another window — shifting all
        departures by less than that slack preserves every window
        assignment, so arrivals shift uniformly and the frozen-path
        horizon reasoning applies unchanged between boundaries.
    """
    if max_length < 1:
        raise ValueError("max_length must be at least 1")
    # Boundary clamp for every reported horizon.  Either source may feed
    # the legs (the matrix when it covers the worker and every task, the
    # scalar model otherwise), so take the minimum boundary over both —
    # over-clamping is always sound, and for the supported configuration
    # (both referencing the same model) the minimum *is* that model's
    # boundary.
    if horizon_out is not None:
        profile_boundary = float("inf")
        if travel is not None:
            profile_boundary = travel.next_profile_boundary(now)
        if matrix is not None:
            profile_boundary = min(
                profile_boundary, matrix.travel.next_profile_boundary(now)
            )
    reachable = list(reachable)
    if not reachable:
        if horizon_out is not None:
            horizon_out.append(profile_boundary)
        return []

    # Eq. 10 comparisons (the best order kept per subset, and the final
    # ranking) run on *relative* accumulated leg times — the same
    # sums shifted to a time origin of zero.  Comparing absolute arrivals
    # ``now + legs`` is not invariant under a shift of ``now``: two orders
    # whose leg sums differ by less than one ulp of ``now`` can round to
    # equality at one epoch and to either strict order at another, so the
    # tie winner would change while every validity predicate — and hence
    # the reuse horizon — stays constant.  Road-network models make such
    # ties structural (tasks snapping to one node give permutations with
    # literally identical sums), and the incremental engine's replay
    # guarantee needs the winner to be a pure function of the leg times.
    # Validity predicates keep using absolute arrivals, unchanged.

    if (
        matrix is not None
        and len(reachable) >= _MATRIX_MIN_TASKS
        and matrix.has_worker(worker.worker_id)
        and all(task.task_id in matrix for task in reachable)
    ):
        legs = matrix.leg_times(worker, reachable)
        legs_model = matrix.travel
    else:
        travel = travel or EuclideanTravelModel(speed=worker.speed)
        legs = LegTimes.from_scalar(worker, reachable, travel)
        legs_model = travel
    # The pricer must come from the model whose latched multiplier is
    # baked into the leg arrays it will rescale.
    pricer = legs_model.leg_pricer(now) if per_leg else None

    orders, slack = _search(
        worker, reachable, now, legs, pricer, max_length, max_sequences
    )
    if horizon_out is not None:
        # Rounding is monotone: ``now + min(a, b)`` is
        # ``min(now + a, now + b)``.
        horizon_out.append(min(now + slack, profile_boundary))
    return [
        TaskSequence(worker, tuple([reachable[i] for i in order]))
        for order in orders
    ]


def _search(
    worker: Worker,
    reachable: List[Task],
    now: float,
    legs: LegTimes,
    pricer: Optional[LegPricer],
    max_length: int,
    max_sequences: int,
) -> Tuple[List[Tuple[int, ...]], float]:
    """The depth-first search behind :func:`maximal_valid_sequences`.

    Returns the ranked index orders of the maximal sequences, and the
    smallest slack of any predicate the search evaluated (the reuse
    horizon is ``now`` plus it).  Kept apart from the public function so
    that a call with no reachable task does not pay for the closure's
    cells.
    """
    n = len(reachable)
    off_time = worker.off_time
    # Definition 4 (i) and (ii) in one comparison: rounding is monotone,
    # so ``arrive >= min(e, off)`` is ``arrive >= e or arrive >= off`` and
    # ``min(e, off) - arrive`` is ``min(e - arrive, off - arrive)``.
    limits = [min(task.expiration_time, off_time) for task in reachable]
    reach = worker.reachable_distance + 1e-9
    budget = max_sequences * 8
    # A node at depth ``depth_cap`` could only extend past the length
    # bound or run out of tasks, so the search never enters one.
    depth_cap = min(max_length, n)
    task_time = legs.task_time
    task_dist = legs.task_dist

    # Best ordering per task subset, keyed by the subset's index bitmask
    # (bijective with the task-id frozenset, far cheaper to build and
    # hash): its relative completion time and its index order.  ``levels``
    # lists the masks by size, each in first-stored order.
    best_rel: Dict[int, float] = {}
    best_order: Dict[int, Tuple[int, ...]] = {}
    levels: List[List[int]] = [[] for _ in range(depth_cap + 1)]
    min_slack = float("inf")
    min_boundary_slack = float("inf")

    def visit(
        prefix: Tuple[int, ...],
        used: int,
        time: float,
        rel_time: float,
        time_row: List[float],
        dist_row: List[float],
    ) -> None:
        # One search node: try every unused task after ``prefix`` in index
        # order, store the subset it completes when the order beats the
        # best known one, and descend when it ties or beats it.
        nonlocal min_slack, min_boundary_slack
        if pricer is not None:
            # Every candidate leg of this node departs at ``time``: one
            # window lookup prices them all, and the departure's distance
            # to its boundary tightens the reuse horizon (the node always
            # has a candidate to price).
            ratio, boundary_slack = pricer.ratio_and_slack(time)
            if boundary_slack < min_boundary_slack:
                min_boundary_slack = boundary_slack
            if ratio != 1.0:
                time_row = [leg * ratio for leg in time_row]
        depth = len(prefix) + 1
        deeper = depth < depth_cap
        level = levels[depth]
        for i in range(n):
            if used >> i & 1:
                continue
            leg = time_row[i]
            arrive = time + leg
            limit = limits[i]
            if arrive >= limit or dist_row[i] > reach:
                continue
            slack = limit - arrive
            if slack < min_slack:
                min_slack = slack
            rel_arrive = rel_time + leg
            key = used | (1 << i)
            existing = best_rel.get(key)
            if existing is None:
                order = prefix + (i,)
                best_rel[key] = rel_arrive
                best_order[key] = order
                level.append(key)
            elif rel_arrive < existing:
                order = prefix + (i,)
                best_rel[key] = rel_arrive
                best_order[key] = order
            elif deeper and rel_arrive == existing:
                order = prefix + (i,)
            else:
                # Only the best-known order of a subset is extended, which
                # curbs redundant exploration.
                continue
            if deeper and len(best_rel) < budget:
                visit(order, key, arrive, rel_arrive, task_time[i], task_dist[i])

    if budget > 0:
        visit((), 0, now, 0.0, legs.worker_time, legs.worker_dist)
    # ``visit`` reaches itself through its own closure cell: clearing the
    # cell breaks that cycle, so the function and everything it holds
    # (the subset dicts, the leg rows) are freed here, not by the cyclic
    # collector.
    del visit
    slack = min(min_slack, min_boundary_slack)
    if len(best_rel) <= 1:
        return list(best_order.values()), slack

    # Keep only maximal subsets: none may be contained in a larger stored
    # one.  Walk the sizes from the largest down, carrying the downward
    # closure of everything larger: a mask is dominated exactly when some
    # one-larger mask, stored or itself dominated, contains it.  Each
    # size's survivors are ranked by relative completion (a stable sort,
    # so ties keep first-stored order) — which is the stable
    # ``(-size, completion)`` sort, and it may stop at ``max_sequences``.
    # The completion was recorded during the search, so the sort key is
    # a lookup, and being ``now``-free it ranks identically at every
    # epoch the sequence set itself is unchanged.
    ranked: List[int] = []
    dominated: Set[int] = set()
    dominated_here: List[int] = []
    for size in range(depth_cap, 0, -1):
        stored = levels[size]
        survivors = [mask for mask in stored if mask not in dominated]
        survivors.sort(key=best_rel.__getitem__)
        ranked += survivors
        if len(ranked) >= max_sequences or size == 1:
            break
        dominated_below: List[int] = []
        for masks in (stored, dominated_here):
            for mask in masks:
                bits = mask
                while bits:
                    low = bits & -bits
                    bits ^= low
                    subset = mask ^ low
                    if subset not in dominated:
                        dominated.add(subset)
                        dominated_below.append(subset)
        dominated_here = dominated_below

    return [best_order[mask] for mask in ranked[:max_sequences]], slack
