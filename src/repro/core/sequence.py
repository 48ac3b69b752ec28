"""Task sequences, arrival times (Eq. 1) and validity checks (Definition 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, TravelModel

_DEFAULT_TRAVEL = EuclideanTravelModel(speed=1.0)

#: Floating-point tolerance on the reachable-distance constraint.
_REACH_EPS = 1e-9


def arrival_times(
    worker: Worker,
    tasks: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
) -> List[float]:
    """Arrival time of ``worker`` at every task location along a sequence.

    Implements Eq. 1: the worker starts from its current location at
    ``now`` and visits the task locations in order, so the arrival time at
    task ``i`` is the arrival at task ``i-1`` plus the travel time between
    them.
    """
    travel = travel or EuclideanTravelModel(speed=worker.speed)
    times: List[float] = []
    current_location = worker.location
    current_time = now
    for task in tasks:
        current_time = current_time + travel.time(current_location, task.location)
        times.append(current_time)
        current_location = task.location
    return times


def is_valid_sequence(
    worker: Worker,
    tasks: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
) -> bool:
    """Check the three constraints of Definition 4 for a task sequence.

    i.   every task is completed (reached) before its expiration time;
    ii.  every task is completed before the worker goes offline;
    iii. every leg of the trip stays within the worker's reachable
         distance.  (The paper states the constraint as ``td(w.l, s_i.l) <
         w.d``, but its own running example — worker ``w1`` performing
         ``(s1, s3)`` with ``d = 1.2`` — only satisfies it if ``w.l`` is the
         worker's *current* location as it moves along the sequence, so the
         constraint is checked per leg.)
    """
    if not tasks:
        return True
    travel = travel or EuclideanTravelModel(speed=worker.speed)
    times = arrival_times(worker, tasks, now, travel)
    previous_location = worker.location
    for task, arrival in zip(tasks, times):
        if arrival >= task.expiration_time:
            return False
        if arrival >= worker.off_time:
            return False
        if travel.distance(previous_location, task.location) > worker.reachable_distance + _REACH_EPS:
            return False
        previous_location = task.location
    return True


def sequence_completion_time(
    worker: Worker,
    tasks: Sequence[Task],
    now: float,
    travel: Optional[TravelModel] = None,
) -> float:
    """Arrival time at the last task of the sequence (``now`` if empty)."""
    if not tasks:
        return now
    return arrival_times(worker, tasks, now, travel)[-1]


@dataclass
class TaskSequence:
    """An ordered task sequence ``R(S_w)`` attached to a worker.

    Instances are lightweight containers; validity with respect to a worker
    and current time is checked through :meth:`is_valid`.
    """

    worker: Worker
    tasks: Tuple[Task, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.tasks = tuple(self.tasks)
        ids = tuple([task.task_id for task in self.tasks])
        id_set = frozenset(ids)
        if len(ids) != len(id_set):
            raise ValueError("a task sequence must not contain duplicate tasks")
        # Both are read on every search-node expansion; cache them once.
        self._task_ids = ids
        self._task_id_set = id_set

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]

    def __bool__(self) -> bool:
        return bool(self.tasks)

    @property
    def task_ids(self) -> Tuple[int, ...]:
        return self._task_ids

    @property
    def task_id_set(self) -> frozenset:
        """The task ids as a frozenset (cached; used by the tree search)."""
        return self._task_id_set

    @property
    def task_set(self) -> frozenset:
        return frozenset(self.tasks)

    # ------------------------------------------------------------------ #
    def arrival_times(self, now: float, travel: Optional[TravelModel] = None) -> List[float]:
        """Eq. 1 arrival times along this sequence."""
        return arrival_times(self.worker, self.tasks, now, travel)

    def is_valid(self, now: float, travel: Optional[TravelModel] = None) -> bool:
        """Whether this is a valid task sequence (Definition 4) at ``now``."""
        return is_valid_sequence(self.worker, self.tasks, now, travel)

    def completion_time(self, now: float, travel: Optional[TravelModel] = None) -> float:
        """Arrival time at the last task (minimal-cost criterion, Eq. 10)."""
        return sequence_completion_time(self.worker, self.tasks, now, travel)

    # ------------------------------------------------------------------ #
    def appended(self, task: Task) -> "TaskSequence":
        """Return a new sequence with ``task`` appended."""
        return TaskSequence(self.worker, self.tasks + (task,))

    def without_first(self) -> "TaskSequence":
        """Return a new sequence with the first task removed."""
        return TaskSequence(self.worker, self.tasks[1:])

    def restricted_to(self, tasks: Iterable[Task]) -> "TaskSequence":
        """Return a new sequence keeping only tasks in ``tasks`` (order kept)."""
        allowed = set(tasks)
        return TaskSequence(self.worker, tuple(t for t in self.tasks if t in allowed))
