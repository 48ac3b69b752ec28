"""Per-epoch travel matrices: the numeric core of the vectorized planner.

The adaptive algorithm replans at every arrival event, and each replan used
to recompute ``travel.distance`` / ``travel.time`` for the same
(worker, task) and (task, task) pairs over and over in pure Python.  A
:class:`TravelMatrix` computes the worker→task distance and time matrices
**once** per replan epoch as NumPy arrays, and serves task→task legs as
vectorized on-demand blocks (the full T×T matrix is never materialised —
a replan only ever touches the legs among each worker's small reachable
set and the transitive-expansion frontiers).  Every downstream feasibility
check (reachability, sequence validity, TVF geometry features) becomes an
array lookup or an O(n) vectorized mask.

All travel numbers come from the :class:`~repro.spatial.travel.TravelModel`
protocol: the model's ``distance_matrix`` / ``time_matrix`` kernel when it
provides one (the built-in Euclidean/Manhattan kernels and the road-network
backend perform the same IEEE-754 operations as their scalar primitives, so
scalar and vectorized planning paths produce bit-for-bit identical floats
and therefore identical assignments), and an exact cached per-pair scalar
evaluation otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.spatial.travel import TravelModel

if TYPE_CHECKING:  # break the spatial <-> core import cycle (hints only)
    from repro.core.task import Task
    from repro.core.worker import Worker

__all__ = ["TravelMatrix", "LegTimes"]


class TravelMatrix:
    """Cached worker→task travel costs + on-demand task→task blocks.

    Parameters
    ----------
    workers:
        Snapshot of the workers being planned (their *current* locations).
    tasks:
        The open (and predicted) tasks of the epoch.
    travel:
        The travel model shared by the planning pipeline.
    now:
        Optional epoch time.  When given, the travel model's profile
        window is latched (:meth:`~repro.spatial.travel.TravelModel.
        begin_epoch`) before any cost is computed, so the matrix is
        self-consistently stamped with the decision point it serves; a
        no-op for static models.
    """

    def __init__(
        self,
        workers: Sequence["Worker"],
        tasks: Sequence["Task"],
        travel: TravelModel,
        now: Optional[float] = None,
    ) -> None:
        if now is not None:
            travel.begin_epoch(now)
        self.travel = travel
        self.workers: List["Worker"] = list(workers)
        self.tasks: List["Task"] = list(tasks)
        self._worker_row: Dict[int, int] = {
            worker.worker_id: row for row, worker in enumerate(self.workers)
        }
        self._task_col: Dict[int, int] = {
            task.task_id: col for col, task in enumerate(self.tasks)
        }

        #: Task coordinates, shape (T,) each — the base data for task→task
        #: blocks.
        self.tx = np.array([t.location.x for t in self.tasks], dtype=np.float64)
        self.ty = np.array([t.location.y for t in self.tasks], dtype=np.float64)

        #: Worker→task distances ``td(w.l, s.l)`` (W, T) and travel times
        #: ``c(w.l, s.l)`` (W, T), via the model's ``pairwise`` protocol.
        #: The already-extracted task coordinates ride along so the model
        #: skips its own destination-coordinate rebuild.
        self.wt_dist, self.wt_time = travel.pairwise(
            self.workers, self.tasks, dest_coords=(self.tx, self.ty)
        )
        #: Per-task expiration times ``s.e``, shape (T,).
        self.expirations: np.ndarray = np.array(
            [t.expiration_time for t in self.tasks], dtype=np.float64
        )

    # ------------------------------------------------------------------ #
    def __contains__(self, task_id: int) -> bool:
        return task_id in self._task_col

    def has_worker(self, worker_id: int) -> bool:
        return worker_id in self._worker_row

    def worker_row(self, worker_id: int) -> int:
        """Row index of ``worker_id`` in the worker→task matrices."""
        return self._worker_row[worker_id]

    def task_col(self, task_id: int) -> int:
        """Column index of ``task_id`` in the matrices."""
        return self._task_col[task_id]

    def task_cols(self, tasks: Sequence["Task"]) -> np.ndarray:
        """Column indices for a task subset (for fancy-indexed lookups)."""
        return np.array([self._task_col[t.task_id] for t in tasks], dtype=np.intp)

    # ------------------------------------------------------------------ #
    def worker_task_distance(self, worker_id: int, task_id: int) -> float:
        return float(self.wt_dist[self._worker_row[worker_id], self._task_col[task_id]])

    def worker_task_time(self, worker_id: int, task_id: int) -> float:
        return float(self.wt_time[self._worker_row[worker_id], self._task_col[task_id]])

    def tt_dist_block(self, from_cols: np.ndarray, to_cols: np.ndarray) -> np.ndarray:
        """Task→task distance block (|from| × |to|), computed vectorized."""
        block = self.travel.distance_matrix(
            self.tx[from_cols], self.ty[from_cols], self.tx[to_cols], self.ty[to_cols]
        )
        if block is None:
            block = np.empty((len(from_cols), len(to_cols)), dtype=np.float64)
            for i, a in enumerate(from_cols):
                for j, b in enumerate(to_cols):
                    block[i, j] = self.travel.distance(
                        self.tasks[a].location, self.tasks[b].location
                    )
        return block

    def tt_time_block(
        self,
        from_cols: np.ndarray,
        to_cols: np.ndarray,
        dist: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Task→task travel-time block (|from| × |to|).

        ``dist`` may carry the matching distance block to let default-time
        models reuse it instead of recomputing distances.
        """
        block = self.travel.time_matrix(
            self.tx[from_cols], self.ty[from_cols], self.tx[to_cols], self.ty[to_cols],
            dist=dist,
        )
        if block is None:
            block = np.empty((len(from_cols), len(to_cols)), dtype=np.float64)
            for i, a in enumerate(from_cols):
                for j, b in enumerate(to_cols):
                    block[i, j] = self.travel.time(
                        self.tasks[a].location, self.tasks[b].location
                    )
        return block

    def task_task_distance(self, from_id: int, to_id: int) -> float:
        cols_a = np.array([self._task_col[from_id]], dtype=np.intp)
        cols_b = np.array([self._task_col[to_id]], dtype=np.intp)
        return float(self.tt_dist_block(cols_a, cols_b)[0, 0])

    def task_task_time(self, from_id: int, to_id: int) -> float:
        cols_a = np.array([self._task_col[from_id]], dtype=np.intp)
        cols_b = np.array([self._task_col[to_id]], dtype=np.intp)
        return float(self.tt_time_block(cols_a, cols_b)[0, 0])

    # ------------------------------------------------------------------ #
    def reachability_mask(
        self, worker: "Worker", cols: np.ndarray, now: float
    ) -> np.ndarray:
        """Vectorized Section IV-A.1 reachability over task columns ``cols``.

        Applies the same predicates as :func:`repro.assignment.reachability.
        is_reachable` — not expired, within reach, arrival strictly before
        expiry and before the availability horizon — as one boolean mask.
        """
        row = self._worker_row[worker.worker_id]
        dist = self.wt_dist[row, cols]
        time = self.wt_time[row, cols]
        expire = self.expirations[cols]
        return (
            (now < expire)
            & (dist <= worker.reachable_distance + 1e-9)
            & (time < expire - now)
            & (time < worker.availability_remaining(now))
        )

    def leg_times(self, worker: "Worker", tasks: Sequence["Task"]) -> "LegTimes":
        """Cached leg times/distances among ``tasks`` for one worker.

        Used by the sequence enumerator: ``worker_time[i]`` is the
        worker→task leg and ``task_time[i][j]`` the task→task leg, so the
        depth-first search never calls back into the travel model.
        """
        cols = self.task_cols(tasks)
        row = self._worker_row[worker.worker_id]
        dist_block = self.tt_dist_block(cols, cols)
        time_block = self.tt_time_block(cols, cols, dist=dist_block)
        return LegTimes(
            worker_time=self.wt_time[row, cols],
            worker_dist=self.wt_dist[row, cols],
            task_time=time_block,
            task_dist=dist_block,
        )


class LegTimes:
    """Dense leg-time/-distance arrays for one (worker, reachable set) pair.

    The arrays are exposed as plain Python lists (``ndarray.tolist`` keeps
    the exact float values): the sequence enumerator indexes single legs in
    a tight loop, where list indexing is several times faster than NumPy
    scalar extraction.
    """

    __slots__ = ("worker_time", "worker_dist", "task_time", "task_dist")

    def __init__(
        self,
        worker_time: np.ndarray,
        worker_dist: np.ndarray,
        task_time: np.ndarray,
        task_dist: np.ndarray,
    ) -> None:
        self.worker_time: List[float] = np.asarray(worker_time).tolist()
        self.worker_dist: List[float] = np.asarray(worker_dist).tolist()
        self.task_time: List[List[float]] = np.asarray(task_time).tolist()
        self.task_dist: List[List[float]] = np.asarray(task_dist).tolist()

    @classmethod
    def from_scalar(
        cls, worker: "Worker", tasks: Sequence["Task"], travel: TravelModel
    ) -> "LegTimes":
        """Precompute leg arrays with per-pair scalar travel-model calls.

        The scalar reference path for instances planned without a
        :class:`TravelMatrix`; every pair is evaluated exactly once.
        """
        instance = cls.__new__(cls)
        instance.worker_dist = [
            travel.distance(worker.location, t.location) for t in tasks
        ]
        instance.worker_time = [travel.time(worker.location, t.location) for t in tasks]
        instance.task_dist = [
            [travel.distance(a.location, b.location) for b in tasks] for a in tasks
        ]
        instance.task_time = [
            [travel.time(a.location, b.location) for b in tasks] for a in tasks
        ]
        return instance
