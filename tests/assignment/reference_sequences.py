"""The explicit-stack sequence enumerator — the product's until the recursion.

``reference_maximal_valid_sequences`` is the body
``repro.assignment.sequences.maximal_valid_sequences`` had before the
recursive enumerator replaced it, moved here verbatim (same convention as
the other ``reference_*.py`` modules; nothing under ``src/`` imports it).
It walks the same lexicographic preorder on tuple frames, filters
maximality with an inverted member index and ranks with one stable sort,
so the product must match it bit for bit: the same task-id lists in the
same order, and the same ``horizon_out`` float.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, TravelModel
from repro.spatial.travel_matrix import LegTimes, TravelMatrix

__all__ = ["reference_maximal_valid_sequences"]

#: Below this many reachable tasks the scalar leg precompute is cheaper
#: than matrix slicing; both sources yield bit-identical leg times.
_MATRIX_MIN_TASKS = 5


def reference_maximal_valid_sequences(
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
    that violates Definition 4.  For every visited task *set* only the
    minimum-completion-time ordering is retained (Eq. 10), and a sequence
    is returned only if it is maximal, i.e. no reachable task can be
    appended without violating a constraint or the length bound.

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
        *departure* on the simulated clock, instead of freezing
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

    # Eq. 10 comparisons (minimum-completion order per subset, and the
    # final ranking) run on *relative* accumulated leg times — the same
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

    n = len(reachable)
    expirations = [task.expiration_time for task in reachable]
    off_time = worker.off_time
    reach = worker.reachable_distance + 1e-9
    budget = max_sequences * 8

    # Best ordering per task subset, keyed by the subset's index bitmask
    # (bijective with the task-id frozenset, far cheaper to build and hash):
    # mask -> (relative completion time, index order).
    best_by_subset: Dict[int, Tuple[float, Tuple[int, ...]]] = {}

    # Depth-first search on an explicit stack.  A frame is
    # (prefix, used_bitmask, arrival_at_last, relative_arrival,
    # next_candidate, is_entry): ``is_entry`` marks the first visit of a
    # search node (where the budget bailout applies); resumed frames
    # continue the candidate loop after a deeper exploration returned.
    worker_time = legs.worker_time
    worker_dist = legs.worker_dist
    task_time = legs.task_time
    task_dist = legs.task_dist
    min_slack = float("inf")
    min_boundary_slack = float("inf")
    stack: List[Tuple[Tuple[int, ...], int, float, float, int, bool]] = [
        ((), 0, now, 0.0, 0, True)
    ]
    while stack:
        prefix, used, time, rel_time, start, is_entry = stack.pop()
        if is_entry and len(best_by_subset) >= budget:
            continue
        if prefix:
            time_row = task_time[prefix[-1]]
            dist_row = task_dist[prefix[-1]]
        else:
            time_row = worker_time
            dist_row = worker_dist
        if pricer is not None:
            # Every candidate leg of this frame departs at ``time``: one
            # window lookup prices them all.  The departure's distance to
            # its boundary tightens the reuse horizon — but only when the
            # frame actually prices a leg (below); a frame with no
            # remaining candidates evaluates nothing a window change
            # could flip.
            ratio, boundary_slack = pricer.ratio_and_slack(time)
        else:
            ratio = 1.0
        evaluated = False
        for i in range(start, n):
            if used >> i & 1:
                continue
            evaluated = True
            leg = time_row[i] if ratio == 1.0 else time_row[i] * ratio
            arrive = time + leg
            if arrive >= expirations[i] or arrive >= off_time:
                continue
            if dist_row[i] > reach:
                continue
            rel_arrive = rel_time + leg
            slack = min(expirations[i] - arrive, off_time - arrive)
            if slack < min_slack:
                min_slack = slack
            key = used | (1 << i)
            existing = best_by_subset.get(key)
            new_prefix = prefix + (i,)
            if existing is None or rel_arrive < existing[0]:
                best_by_subset[key] = (rel_arrive, new_prefix)
            # Only continue extending from the best-known order of this
            # subset to curb redundant exploration.
            if len(new_prefix) < max_length and (
                existing is None or rel_arrive <= existing[0]
            ):
                stack.append((prefix, used, time, rel_time, i + 1, False))
                stack.append((new_prefix, key, arrive, rel_arrive, 0, True))
                break
        if evaluated and pricer is not None and boundary_slack < min_boundary_slack:
            min_boundary_slack = boundary_slack

    if horizon_out is not None:
        horizon_out.append(
            min(now + min_slack, now + min_boundary_slack, profile_boundary)
        )

    if not best_by_subset:
        return []

    # Keep only maximal subsets: no other stored subset strictly contains
    # them.  An inverted member -> subsets index narrows each containment
    # check to the subsets sharing at least one member (the all-pairs scan
    # was quadratic in |best_by_subset| and dominated dense instances).
    masks = list(best_by_subset.keys())
    sizes = [mask.bit_count() for mask in masks]
    max_size = max(sizes)
    positions_by_member: Dict[int, List[int]] = {}
    for position, mask in enumerate(masks):
        bits = mask
        while bits:
            low = bits & -bits
            positions_by_member.setdefault(low, []).append(position)
            bits ^= low
    maximal: List[int] = []
    for position, mask in enumerate(masks):
        size = sizes[position]
        if size < max_size:
            shortest = None
            bits = mask
            while bits:
                low = bits & -bits
                members = positions_by_member[low]
                if shortest is None or len(members) < len(shortest):
                    shortest = members
                bits ^= low
            if any(
                sizes[p] > size and masks[p] & mask == mask for p in shortest
            ):
                continue
        maximal.append(mask)

    # Rank by (more tasks, earlier relative completion) and bound the
    # output size.  The relative completion was recorded during the search,
    # so the sort key is a dictionary lookup rather than a fresh
    # arrival-times recomputation (and, being now-free, ranks identically
    # at every epoch the sequence set itself is unchanged).
    ranked = sorted(
        maximal, key=lambda mask: (-mask.bit_count(), best_by_subset[mask][0])
    )
    return [
        TaskSequence(worker, tuple(reachable[i] for i in best_by_subset[mask][1]))
        for mask in ranked[:max_sequences]
    ]
