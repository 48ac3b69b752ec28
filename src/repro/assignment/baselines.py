"""The Greedy baseline assignment procedure.

:func:`greedy_assignment` is the Greedy evaluation method: each worker, in
turn, takes the maximal valid task set it can greedily build from the
still-unassigned tasks (nearest-feasible-next), until tasks or workers
are exhausted.  No dependency separation, no search.  (The FTA method
needs no procedure of its own: :class:`~repro.assignment.strategies.
FTAStrategy` plans through :class:`~repro.assignment.planner.TaskPlanner`
and freezes the result.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.assignment import Assignment, WorkerPlan
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, TravelModel


def greedy_assignment(
    workers: Sequence[Worker],
    tasks: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
    max_sequence_length: int = 3,
) -> Assignment:
    """Greedy baseline: maximal valid task set per worker, first come first served."""
    travel = travel or EuclideanTravelModel(speed=1.0)
    unassigned: List[Task] = [task for task in tasks if not task.is_expired(now)]
    assignment = Assignment()
    for worker in workers:
        if not unassigned:
            break
        sequence: List[Task] = []
        location = worker.location
        time = now
        while len(sequence) < max_sequence_length:
            best = None
            best_arrival = None
            for task in unassigned:
                if travel.distance(location, task.location) > worker.reachable_distance + 1e-9:
                    continue
                arrival = time + travel.time(location, task.location)
                if arrival >= task.expiration_time or arrival >= worker.off_time:
                    continue
                if best_arrival is None or arrival < best_arrival:
                    best = task
                    best_arrival = arrival
            if best is None:
                break
            sequence.append(best)
            unassigned.remove(best)
            location = best.location
            time = best_arrival
        if sequence:
            assignment.add(WorkerPlan(worker, TaskSequence(worker, tuple(sequence))))
    return assignment
