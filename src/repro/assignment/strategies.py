"""The five evaluated assignment strategies behind one interface.

Section V-B.2 of the paper compares:

* **Greedy** — each worker grabs the maximal valid task set from the
  unassigned tasks, no search.
* **FTA** — Fixed Task Assignment: worker dependency separation + DFSearch
  run once per worker; the resulting sequence is frozen and executed in
  order.
* **DTA** — Dynamic Task Assignment: the same separation + DFSearch
  machinery, but the plan is recomputed at every decision point from the
  current spatio-temporal state (no prediction).
* **DTA+TP** — DTA with predicted tasks injected by the demand predictor.
* **DATA-WA** — DTA+TP with the Task Value Function replacing exact search.

Every strategy exposes ``plan(idle_workers, pending_tasks, now)`` returning
an :class:`~repro.core.assignment.Assignment`; the simulation platform
dispatches the first task of each idle worker's planned sequence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.assignment.baselines import greedy_assignment
from repro.assignment.planner import PlannerConfig, PlanningOutcome, TaskPlanner
from repro.assignment.tvf import TaskValueFunction
from repro.core.assignment import Assignment, WorkerPlan
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel import EuclideanTravelModel, TravelModel

#: Signature of the hook supplying predicted tasks for a given time.
PredictedTaskProvider = Callable[[float], List[Task]]


class AssignmentStrategy(ABC):
    """Common interface of the five evaluated assignment methods."""

    #: Human-readable name used in experiment tables.
    name: str = "strategy"

    def reset(self) -> None:
        """Clear any per-run state (called once before a simulation)."""

    @abstractmethod
    def plan(
        self, idle_workers: Sequence[Worker], pending_tasks: Sequence[Task], now: float
    ) -> Assignment:
        """Return the planned assignment for the current platform snapshot."""

    def notify_dispatch(self, worker_id: int, task_id: int) -> None:
        """Inform the strategy that a planned task has been executed."""

    def notify_dirty(self, dirty) -> None:
        """Receive the platform's dirty set for the upcoming decision point.

        ``dirty`` is a :class:`~repro.assignment.incremental.DirtySet`
        naming the workers / tasks mutated since the previous planning
        call.  Planner-backed strategies forward it to the incremental
        replan engine, which treats the hints as forced-dirty (hints can
        only widen the recompute region, never narrow it).  The default is
        a no-op so dirty-unaware strategies keep working unchanged.
        """

    def attach_observability(self, obs) -> None:
        """Receive the platform run's :class:`repro.obs.Observability` handle.

        Planner-backed strategies forward it to their planner so pipeline
        spans and metrics from every layer land in the one per-run tracer
        and registry.  The default is a no-op: obs-unaware strategies keep
        working unchanged and simply contribute no spans.
        """

    def consume_last_outcome(self):
        """Return and clear the :class:`PlanningOutcome` of the last plan.

        The platform uses this to learn *how* the plan it just received was
        produced — which degradation rung served it, whether the planner's
        deadline fired, whether the incremental engine had to self-repair —
        without widening the ``plan()`` return type.  Strategies that do
        not plan through the planner return ``None`` (treated as a normal
        full-quality plan).
        """
        return None

    def snapshot_state(self):
        """Picklable snapshot of strategy state for checkpointing.

        Only state that shapes *future* decisions and cannot be rebuilt
        from the platform's own runtime belongs here (FTA's frozen
        sequences, DATA-WA's trained value function).  Derived caches —
        the incremental engine's component cache, travel rows — must NOT
        be snapshotted: they are rebuilt on demand and pinning them would
        bloat checkpoints for no behavioural gain.  ``None`` means the
        strategy is stateless across decision points.
        """
        return None

    def restore_state(self, state) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""

    def close(self) -> None:
        """Release planner/executor resources held by the strategy.

        Called by the platform when a run finishes.  The default is a
        no-op; planner-backed strategies detach their search executor
        (shared worker pools stay warm for the next run by design) and
        drop the planner's incremental cache, so a strategy kept after the
        run does not keep the run's per-worker state alive.
        """


class GreedyStrategy(AssignmentStrategy):
    """The Greedy baseline."""

    name = "Greedy"

    def __init__(self, travel: Optional[TravelModel] = None, max_sequence_length: int = 3) -> None:
        self.travel = travel or EuclideanTravelModel(speed=1.0)
        self.max_sequence_length = max_sequence_length

    def plan(self, idle_workers, pending_tasks, now):
        self.travel.begin_epoch(now)
        return greedy_assignment(
            idle_workers, pending_tasks, now, self.travel, self.max_sequence_length
        )


class _PlannerBackedStrategy(AssignmentStrategy):
    """Shared machinery for the strategies built on the TPA planner."""

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        travel: Optional[TravelModel] = None,
        tvf: Optional[TaskValueFunction] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        # Resolution order mirrors TaskPlanner: explicit argument, then the
        # config's pluggable travel_model, then the Euclidean default.
        self.travel = travel or self.config.travel_model or EuclideanTravelModel(speed=1.0)
        self.planner = TaskPlanner(self.config, travel=self.travel, tvf=tvf)
        self._last_outcome: Optional[PlanningOutcome] = None

    def reset(self) -> None:
        # A new run restarts simulated time; the incremental engine's
        # horizons assume non-decreasing ``now`` and must not leak between
        # runs (part of the platform re-entrancy contract).
        self.planner.reset_cache()
        self._last_outcome = None

    def notify_dirty(self, dirty) -> None:
        self.planner.note_dirty(dirty)

    def attach_observability(self, obs) -> None:
        self.planner.attach_observability(obs)

    def consume_last_outcome(self) -> Optional[PlanningOutcome]:
        outcome, self._last_outcome = self._last_outcome, None
        return outcome

    def _plan_with_planner(self, idle_workers, pending_tasks, now) -> PlanningOutcome:
        outcome = self.planner.plan(idle_workers, pending_tasks, now)
        self._last_outcome = outcome
        return outcome

    def close(self) -> None:
        self.planner.close()


class FTAStrategy(_PlannerBackedStrategy):
    """Fixed Task Assignment: sequences are computed once and frozen."""

    name = "FTA"

    def __init__(self, config=None, travel=None) -> None:
        super().__init__(config=config, travel=travel)
        self._fixed: Dict[int, List[Task]] = {}
        self._committed_task_ids: set = set()

    def reset(self) -> None:
        super().reset()
        self._fixed.clear()
        self._committed_task_ids.clear()

    def plan(self, idle_workers, pending_tasks, now):
        # Workers without a frozen sequence — or whose previous fixed sequence
        # has been fully executed or expired — get a new one from a one-shot
        # plan over the tasks not yet committed to any frozen sequence.  The
        # "fixed" aspect is that a sequence, once given, is never adjusted to
        # later demand changes (unlike DTA).
        pending_ids = {task.task_id for task in pending_tasks}
        new_workers = [
            w
            for w in idle_workers
            if not any(
                task.task_id in pending_ids and not task.is_expired(now)
                for task in self._fixed.get(w.worker_id, [])
            )
        ]
        if new_workers:
            available = [
                task for task in pending_tasks if task.task_id not in self._committed_task_ids
            ]
            outcome = self._plan_with_planner(new_workers, available, now)
            for worker_plan in outcome.assignment:
                tasks = list(worker_plan.sequence)
                self._fixed[worker_plan.worker.worker_id] = tasks
                self._committed_task_ids.update(t.task_id for t in tasks)
        # The returned plan is simply each worker's remaining frozen sequence.
        assignment = Assignment()
        for worker in idle_workers:
            remaining = [
                task
                for task in self._fixed.get(worker.worker_id, [])
                if task.task_id in pending_ids and not task.is_expired(now)
            ]
            if remaining:
                assignment.add(WorkerPlan(worker, TaskSequence(worker, tuple(remaining))))
        return assignment

    def notify_dispatch(self, worker_id: int, task_id: int) -> None:
        sequence = self._fixed.get(worker_id)
        if sequence:
            self._fixed[worker_id] = [task for task in sequence if task.task_id != task_id]

    def snapshot_state(self):
        # The frozen sequences ARE the strategy: a resumed run that lost
        # them would re-plan workers FTA promised never to re-plan.
        return {
            "fixed": {wid: list(tasks) for wid, tasks in self._fixed.items()},
            "committed": set(self._committed_task_ids),
        }

    def restore_state(self, state) -> None:
        if state is None:
            return
        self._fixed = {wid: list(tasks) for wid, tasks in state["fixed"].items()}
        self._committed_task_ids = set(state["committed"])


class DTAStrategy(_PlannerBackedStrategy):
    """Dynamic Task Assignment: full replanning, no prediction."""

    name = "DTA"

    def plan(self, idle_workers, pending_tasks, now):
        return self._plan_with_planner(idle_workers, pending_tasks, now).assignment


class DTAPlusTPStrategy(_PlannerBackedStrategy):
    """DTA augmented with predicted tasks from the demand predictor."""

    name = "DTA+TP"

    def __init__(
        self,
        config=None,
        travel=None,
        predicted_task_provider: Optional[PredictedTaskProvider] = None,
    ) -> None:
        super().__init__(config=config, travel=travel)
        self.predicted_task_provider = predicted_task_provider

    def _augmented_tasks(self, pending_tasks, now) -> List[Task]:
        tasks = list(pending_tasks)
        if self.predicted_task_provider is not None:
            predicted = [
                task for task in self.predicted_task_provider(now) if not task.is_expired(now)
            ]
            existing = {task.task_id for task in tasks}
            tasks.extend(task for task in predicted if task.task_id not in existing)
        return tasks

    def plan(self, idle_workers, pending_tasks, now):
        tasks = self._augmented_tasks(pending_tasks, now)
        return self._plan_with_planner(idle_workers, tasks, now).assignment


class DataWAStrategy(DTAPlusTPStrategy):
    """DTA+TP with the Task Value Function guiding the search (DATA-WA)."""

    name = "DATA-WA"

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        travel=None,
        predicted_task_provider: Optional[PredictedTaskProvider] = None,
        tvf: Optional[TaskValueFunction] = None,
        train_on_first_plan: bool = True,
        tvf_training_epochs: int = 10,
    ) -> None:
        # On a copy: the caller may hand the same config to other strategies.
        config = replace(config or PlannerConfig(), use_tvf=True)
        super().__init__(config=config, travel=travel, predicted_task_provider=predicted_task_provider)
        if tvf is not None:
            self.planner.tvf = tvf
        self.train_on_first_plan = train_on_first_plan
        self.tvf_training_epochs = tvf_training_epochs

    def reset(self) -> None:
        # The trained TVF is intentionally kept across runs: the paper trains
        # it offline from DFSearch traces and reuses it online.  The replan
        # caches, however, must not survive a time restart.
        self.planner.reset_cache()
        self._last_outcome = None

    def snapshot_state(self):
        # The fitted TVF shapes every guided search after the bootstrap
        # plan; a resume must see the same function the crashed run used.
        return {"tvf": self.planner.tvf}

    def restore_state(self, state) -> None:
        if state is None:
            return
        self.planner.tvf = state["tvf"]

    def plan(self, idle_workers, pending_tasks, now):
        tasks = self._augmented_tasks(pending_tasks, now)
        tvf = self.planner.tvf
        if self.train_on_first_plan and tvf is not None and not tvf.is_fitted and idle_workers and tasks:
            # Bootstrap: run the exact search once on this snapshot, collect
            # (state, action, opt) experience and fit the TVF on it.
            self.planner.train_tvf(idle_workers, tasks, now, epochs=self.tvf_training_epochs)
        return self._plan_with_planner(idle_workers, tasks, now).assignment


def make_strategy(
    name: str,
    config: Optional[PlannerConfig] = None,
    travel: Optional[TravelModel] = None,
    predicted_task_provider: Optional[PredictedTaskProvider] = None,
    tvf: Optional[TaskValueFunction] = None,
) -> AssignmentStrategy:
    """Factory mapping the paper's method names to strategy objects."""
    key = name.strip().lower().replace("_", "").replace("-", "").replace("+", "")
    if key == "greedy":
        return GreedyStrategy(travel=travel)
    if key == "fta":
        return FTAStrategy(config=config, travel=travel)
    if key == "dta":
        return DTAStrategy(config=config, travel=travel)
    if key in ("dtatp", "dtaplustp"):
        return DTAPlusTPStrategy(
            config=config, travel=travel, predicted_task_provider=predicted_task_provider
        )
    if key in ("datawa", "dataw"):
        return DataWAStrategy(
            config=config,
            travel=travel,
            predicted_task_provider=predicted_task_provider,
            tvf=tvf,
        )
    raise ValueError(f"unknown assignment strategy: {name!r}")
