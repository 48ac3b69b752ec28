"""Reachable-task computation (Section IV-A.1).

A task ``s`` is *reachable* for worker ``w`` at time ``t_now`` iff

i.   the worker can arrive strictly before the task expires:
     ``c(w.l, s.l) < s.e - t_now``,
ii.  the trip fits in the worker's remaining availability window ``T_w``:
     ``c(w.l, s.l) < T_w``, and
iii. the task lies within the worker's reachable range:
     ``td(w.l, s.l) <= w.d``.

Constraints i and ii are strict to match Definition 4's validity checks
(``arrival >= expiration`` invalidates a sequence): a task whose arrival
would coincide exactly with its expiration is *not* reachable, so the
reachable set never contains tasks that no valid sequence could serve.

The product entry point is :func:`reachable_tasks_with_horizon`, which
selects between two equivalent kernels: the scalar oracle
(:func:`reachable_tasks`) and the vector kernel over a
:class:`~repro.spatial.travel_matrix.TravelMatrix`
(:func:`reachable_tasks_matrix`).  They apply identical predicates to
identical floats and therefore return identical task lists;
:func:`vector_kernel_pays` is the one place that decides between them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, TravelModel
from repro.spatial.travel_matrix import TravelMatrix

#: Tolerance on the reachable-distance constraint (matches sequence checks).
_REACH_EPS = 1e-9

#: Below this many candidate tasks the scalar loop beats NumPy's per-call
#: overhead; the paths return bit-identical results, so switching is free.
VECTOR_MIN_TASKS = 32


def vector_kernel_pays(num_tasks: int) -> bool:
    """Whether ``num_tasks`` candidates amortise a travel-matrix row.

    The single reader of :data:`VECTOR_MIN_TASKS`: the plan pipeline asks
    before building an epoch's :class:`TravelMatrix`, and
    :func:`reachable_tasks_with_horizon` before using one it was handed.
    """
    return num_tasks >= VECTOR_MIN_TASKS


def is_reachable(
    worker: Worker,
    task: Task,
    now: float,
    travel: Optional[TravelModel] = None,
) -> bool:
    """Whether ``task`` satisfies the three reachability constraints for ``worker``."""
    travel = travel or EuclideanTravelModel(speed=worker.speed)
    if task.is_expired(now):
        return False
    distance = travel.distance(worker.location, task.location)
    if distance > worker.reachable_distance + _REACH_EPS:
        return False
    travel_time = travel.time(worker.location, task.location)
    if travel_time >= task.expiration_time - now:
        return False
    if travel_time >= worker.availability_remaining(now):
        return False
    return True


def reachable_tasks(
    worker: Worker,
    tasks: Iterable[Task],
    now: float,
    travel: Optional[TravelModel] = None,
    max_tasks: Optional[int] = None,
    hops: int = 1,
) -> List[Task]:
    """Return the reachable task subset ``RS_w`` for a worker.

    Parameters
    ----------
    max_tasks:
        Optional cap on the result size.  When set, the nearest reachable
        tasks are kept — this bounds the downstream sequence-enumeration
        cost for very dense instances without changing which workers
        compete for which regions.
    hops:
        Number of transitive-expansion rounds.  The paper's running example
        has worker ``w1`` perform ``(s1, s3)`` although ``s3`` is farther
        than ``w.d`` from ``w1``'s start — ``s3`` becomes reachable *via*
        ``s1``.  Each round adds the unexpired tasks within ``w.d`` of a
        task discovered in the *previous* round (breadth-first levels, so
        no anchor is ever rescanned); the per-leg time/distance feasibility
        is enforced later during sequence generation.
    """
    travel = travel or EuclideanTravelModel(speed=worker.speed)
    tasks = list(tasks)
    found = [task for task in tasks if is_reachable(worker, task, now, travel)]
    reach = worker.reachable_distance + _REACH_EPS
    frontier = found
    found_ids = {task.task_id for task in found}
    remaining = [
        task
        for task in tasks
        if not task.is_expired(now) and task.task_id not in found_ids
    ]
    for _ in range(max(hops, 0)):
        if not frontier or not remaining:
            break
        added: List[Task] = []
        still_remaining: List[Task] = []
        for task in remaining:
            if any(travel.distance(anchor.location, task.location) <= reach for anchor in frontier):
                added.append(task)
            else:
                still_remaining.append(task)
        if not added:
            break
        found.extend(added)
        frontier = added
        remaining = still_remaining
    if max_tasks is not None and len(found) > max_tasks:
        found.sort(key=lambda task: travel.distance(worker.location, task.location))
        found = found[:max_tasks]
    return found


def reachable_tasks_matrix(
    worker: Worker,
    tasks: Sequence[Task],
    now: float,
    matrix: TravelMatrix,
    max_tasks: Optional[int] = None,
    hops: int = 1,
    cols: Optional[np.ndarray] = None,
) -> List[Task]:
    """Vectorized :func:`reachable_tasks` over a cached :class:`TravelMatrix`.

    Every feasibility check is an array lookup; the transitive expansion is
    a boolean-mask sweep over the task→task distance matrix.  Produces the
    exact same task list (same order, same cap tie-breaking) as the scalar
    reference.  ``cols`` may carry precomputed matrix columns for ``tasks``
    (callers iterating many workers over one task list compute them once).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if cols is None:
        cols = matrix.task_cols(tasks)
    row = matrix.worker_row(worker.worker_id)
    mask = matrix.reachability_mask(worker, cols, now)

    alive = now < matrix.expirations[cols]
    reach = worker.reachable_distance + _REACH_EPS
    in_found = mask.copy()
    frontier = np.flatnonzero(mask)
    # Same output order as the scalar path: directly-reachable tasks first
    # (input order), then each breadth-first level in input order.
    found = [tasks[i] for i in frontier]
    for _ in range(max(hops, 0)):
        candidates = np.flatnonzero(alive & ~in_found)
        if frontier.size == 0 or candidates.size == 0:
            break
        near = (
            matrix.tt_dist_block(cols[frontier], cols[candidates]) <= reach
        ).any(axis=0)
        added = candidates[near]
        if added.size == 0:
            break
        found.extend(tasks[i] for i in added)
        in_found[added] = True
        frontier = added

    if max_tasks is not None and len(found) > max_tasks:
        dist = matrix.wt_dist[row, matrix.task_cols(found)]
        order = np.argsort(dist, kind="stable")
        found = [found[i] for i in order[:max_tasks]]
    return found


def reachable_tasks_with_horizon(
    worker: Worker,
    tasks: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
    max_tasks: Optional[int] = None,
    hops: int = 1,
    matrix: Optional[TravelMatrix] = None,
    cols: Optional[np.ndarray] = None,
):
    """Reachable set plus a conservative validity horizon.

    Returns ``(capped, uncapped_ids, horizon)`` where ``capped`` is exactly
    what :func:`reachable_tasks` returns for the same arguments,
    ``uncapped_ids`` is the id set of the *uncapped* reachable set (every
    task whose presence influences the output, including hop anchors the
    distance cap later drops), and ``horizon`` is a time ``h > now`` such
    that for any ``now' in [now, h)`` — with the worker and the task set
    unchanged — :func:`reachable_tasks` returns the identical list.

    The horizon exploits the monotonicity of the reachability predicates
    for a windowless worker: as ``now`` grows, ``s.e - now`` and
    ``off - now`` only shrink, so tasks can only *leave* the reachable set,
    and they do so exactly when one of the finitely many boundaries
    ``s.e - c(w, s)``, ``off - c(w, s)`` (direct members) or ``s.e`` (hop
    members) is crossed.  Workers with extra availability windows have a
    non-monotone ``availability_remaining`` and get ``horizon = now``
    (never cacheable).

    Under a time-dependent travel model the monotone-shrink argument only
    holds *inside* one speed-profile window (a faster next window can make
    tasks re-enter the set), so the horizon is additionally clamped to the
    model's ``next_profile_boundary(now)`` — infinite for static models,
    leaving their horizons untouched.

    ``cols`` may carry the precomputed ``matrix`` columns of ``tasks``
    (see :func:`reachable_tasks_matrix`).
    """
    travel = travel or EuclideanTravelModel(speed=worker.speed)
    tasks = list(tasks)
    if matrix is not None and vector_kernel_pays(len(tasks)):
        uncapped = reachable_tasks_matrix(
            worker, tasks, now, matrix, max_tasks=None, hops=hops, cols=cols
        )
    else:
        uncapped = reachable_tasks(worker, tasks, now, travel, max_tasks=None, hops=hops)

    capped = uncapped
    if max_tasks is not None and len(uncapped) > max_tasks:
        capped = sorted(
            uncapped, key=lambda task: travel.distance(worker.location, task.location)
        )[:max_tasks]

    if worker.windows or not (worker.on_time <= now < worker.off_time):
        # Multi-window availability is not monotone in ``now`` (remaining
        # availability can jump up when a later window opens), so no
        # time-based reuse is safe; same for workers outside [on, off).
        horizon = now
    else:
        horizon = float("inf")
        for task in uncapped:
            if is_reachable(worker, task, now, travel):
                leg = travel.time(worker.location, task.location)
                horizon = min(
                    horizon, task.expiration_time - leg, worker.off_time - leg
                )
            else:
                # Present only through transitive expansion: it leaves the
                # set when it expires (its anchors' departures are covered
                # by the direct boundaries above).
                horizon = min(horizon, task.expiration_time)
        # Travel costs themselves may flip at the next speed-profile
        # boundary (an empty set can become non-empty there, which no
        # per-task boundary above covers).  A matrix built over another
        # model instance than ``travel`` is clamped to its boundary too:
        # over-clamping is sound, and for the one model the pipeline
        # shares the minimum is that model's boundary.
        horizon = min(horizon, travel.next_profile_boundary(now))
        if matrix is not None:
            horizon = min(horizon, matrix.travel.next_profile_boundary(now))
    return capped, frozenset(task.task_id for task in uncapped), horizon
