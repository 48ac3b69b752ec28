"""Task Planning Assignment — the TPA procedure of Algorithm 4.

Given the current workers and (current + predicted) tasks, the planner

1. computes every worker's reachable task set and maximal valid task
   sequences ``Q_w``,
2. builds the worker dependency graph,
3. partitions each connected component with MCS cliques and organises the
   clusters into a tree (RTC),
4. searches each tree for the best combination of sequences — exactly
   (the optimum of DFSearch, Alg. 1, found by branch-and-bound) or
   guided by the Task Value Function (DFSearch_TVF, Alg. 2).

This module holds the configuration and the :class:`TaskPlanner` facade;
the pipeline itself has one implementation,
:meth:`repro.assignment.incremental.IncrementalPlanEngine.plan`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.assignment.incremental import (  # noqa: F401 - re-exported API
    DEGRADATION_RUNGS,
    DirtySet,
    IncrementalPlanEngine,
    PlanningOutcome,
    greedy_component_fill,
)
from repro.assignment.tvf import TaskValueFunction
from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs.runtime import OBS_DISABLED
from repro.spatial.travel import EuclideanTravelModel, TravelModel


@dataclass
class PlannerConfig:
    """Knobs controlling the TPA pipeline.

    Attributes
    ----------
    max_reachable:
        Cap on the reachable-task set per worker (nearest tasks kept).
    max_sequence_length:
        Maximum length of a maximal valid task sequence.
    max_sequences:
        Cap on ``|Q_w|`` per worker.
    node_budget:
        Base search expansion budget per partition-tree root.  Raised
        from the original 20k now that the branch-and-bound engine proves
        optimality on dense components in a few thousand expansions — the
        budget only matters on pathological instances, where more room
        means feasible answers closer to the optimum.  It is a floor: the
        per-component budget scales with the component size
        (:func:`repro.assignment.dfsearch.adaptive_node_budget`), so huge
        components finish instead of degrading at a cap sized for small
        ones.
    travel_model:
        Travel model for the whole pipeline (reachability, sequences,
        travel matrices, dirty-region bounds).  ``None`` keeps the
        Euclidean default; pass e.g. a
        :class:`repro.roadnet.RoadNetworkTravelModel` to plan over a road
        network.  An explicit ``travel=`` argument to :class:`TaskPlanner`
        or a strategy takes precedence.
    search_mode:
        Accepts only ``"bnb"``: non-TVF components are always searched by
        the branch-and-bound engine
        (:func:`repro.assignment.dfsearch.dfsearch_bnb`).  Kept because
        ``benchmarks/e2e/traced.py`` reads it; it goes in the next
        benchmark-change PR (ROADMAP item 4), alongside ``executor``.
    bound_mode:
        Accepts only ``"additive"``, the one bound of the branch-and-bound
        engine (per-worker capped sum).  Kept, and going, for the same
        reason as ``search_mode``.
    use_tvf:
        Use the TVF-guided search (Alg. 2) instead of the exact search.
    tvf_min_workers:
        With ``use_tvf``, components smaller than this are still solved
        exactly — the TVF exists to prune *large* search spaces, and the
        exact search on a handful of workers is already cheap.
    use_partition:
        Apply worker dependency separation; disabling it (ablation) puts
        every worker of a connected component into one flat cluster.
    per_leg_pricing:
        Price every task→task leg of a candidate sequence in the speed
        window in force at that leg's *departure* (a simulated clock
        advances through the legs), instead of freezing the whole
        sequence in the window latched at the decision point.  Matches
        how the platform actually executes plans (it re-latches the
        window at every dispatch), fixing the systematic mispricing of
        legs that cross a rush-hour boundary; sequence-validity horizons
        are tightened to every evaluated leg's window slack, so cached
        results are never replayed across a mid-sequence boundary shift.
        For uniform profiles and static travel models the flag is a
        no-op — the code path is literally the frozen-at-departure one,
        bit-for-bit.
    deadline_s:
        Wall-clock budget (seconds) for one ``plan()`` call.  The clock
        starts when ``plan`` is entered; component searches stop expanding
        at the deadline and return their best anytime answer, components
        whose search has not started by then fall to the deterministic
        greedy fill, and the outcome reports which degradation rung served
        the epoch (see :data:`DEGRADATION_RUNGS`).  ``None`` (default)
        disables the deadline entirely — planning is then bit-for-bit
        identical to a deadline-free build.
    executor:
        Accepts only ``"serial"``: component searches always run in
        process, in submission order.  Kept because
        ``benchmarks/e2e/workloads.py`` and ``benchmarks/e2e/measure.py``
        pass it; it goes in the next benchmark-change PR (ROADMAP
        item 4), alongside ``search_mode`` and ``bound_mode``.
    self_check:
        Run the engine's post-replan invariant check (no double-booked
        task or worker, selections drawn from the cached ``Q_w``, horizons
        finite and non-negative).  On violation the engine logs, drops its
        caches and transparently redoes the epoch on an empty cache
        instead of crashing or corrupting state.
    """

    max_reachable: int = 10
    max_sequence_length: int = 3
    max_sequences: int = 32
    node_budget: int = 50000
    travel_model: Optional[TravelModel] = None
    search_mode: str = "bnb"
    bound_mode: str = "additive"
    use_tvf: bool = False
    tvf_min_workers: int = 4
    use_partition: bool = True
    per_leg_pricing: bool = True
    deadline_s: Optional[float] = None
    self_check: bool = True
    executor: str = "serial"

    def __post_init__(self) -> None:
        if self.executor != "serial":
            raise ValueError(
                f"unknown executor: {self.executor!r} (expected 'serial')"
            )
        if self.search_mode != "bnb":
            raise ValueError(
                f"unknown search_mode: {self.search_mode!r} (expected 'bnb')"
            )
        if self.bound_mode != "additive":
            raise ValueError(
                f"unknown bound_mode: {self.bound_mode!r} (expected 'additive')"
            )


class TaskPlanner:
    """Algorithm 4: compute the optimal planned assignment ``PA``."""

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        travel: Optional[TravelModel] = None,
        tvf: Optional[TaskValueFunction] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.travel = travel or self.config.travel_model or EuclideanTravelModel(speed=1.0)
        self.tvf = tvf
        if self.config.use_tvf and self.tvf is None:
            self.tvf = TaskValueFunction()
        #: The plan pipeline and its cross-epoch caches.
        self._engine = IncrementalPlanEngine(self)
        #: Per-run observability handle (spans + metrics).  The disabled
        #: singleton by default; the platform attaches a live one per run.
        self.obs = OBS_DISABLED

    # ------------------------------------------------------------------ #
    def attach_observability(self, obs) -> None:
        """Route this planner's spans and metrics through ``obs``.

        Observability is read-only with respect to planning output: the
        handle never feeds back into any decision, so attaching or
        detaching it cannot change an assignment (the disabled-path
        equivalence test pins this down end to end).
        """
        self.obs = obs if obs is not None else OBS_DISABLED

    def note_dirty(self, dirty: DirtySet) -> None:
        """Forward a platform dirty set to the incremental engine.

        Hinted entities are recomputed unconditionally at the next plan;
        hints only ever widen the recompute region, so callers may pass
        conservative over-approximations freely.
        """
        self._engine.note_dirty(dirty)

    def reset_cache(self) -> None:
        """Drop all incremental state (call between independent runs).

        Required whenever simulated time restarts: the engine's horizons
        assume non-decreasing ``now`` (it also self-invalidates on a time
        regression, but an explicit reset keeps runs fully isolated).  A
        plan right after a reset is a full replan — the cold reference the
        equivalence suites and replan-latency benchmarks compare against.
        """
        self._engine.invalidate()

    def close(self) -> None:
        """Drop the incremental cache.

        The engine's per-worker and per-component cache is dropped so that
        whoever still holds a closed planner does not keep its last run's
        state alive; a later ``plan()`` starts cold, as after
        :meth:`reset_cache`.  Safe to call repeatedly.
        """
        self._engine.invalidate()

    # ------------------------------------------------------------------ #
    def plan(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        collect_experience: bool = False,
    ) -> PlanningOutcome:
        """Compute the planned assignment for the given snapshot.

        Parameters
        ----------
        workers:
            Workers currently able to accept a plan (idle and online).
        tasks:
            Unassigned tasks, possibly including predicted tasks.
        now:
            Current platform time.
        collect_experience:
            When True the branch-and-bound engine records ``(state,
            action, opt)`` tuples for TVF training — one per explored
            sub-problem (TVF-guided search is bypassed).
        """
        config = self.config
        # The wall-clock budget of this decision point starts now and is
        # shared by every stage (including an invariant-repair replan,
        # which inherits whatever time is left).
        deadline = (
            _time.perf_counter() + config.deadline_s
            if config.deadline_s is not None
            else None
        )
        engine = self._engine
        if collect_experience:
            # Experience runs the same pipeline on an empty, throw-away
            # cache: nothing is reused, and nothing (TVF-bypassed search
            # results in particular) is left behind in the live one.
            engine = IncrementalPlanEngine(self)
        return engine.plan(
            workers,
            tasks,
            now,
            deadline=deadline,
            collect_experience=collect_experience,
        )

    # ------------------------------------------------------------------ #
    def train_tvf(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        epochs: int = 20,
    ) -> List[float]:
        """Collect search experience on a snapshot and fit the TVF on it."""
        outcome = self.plan(workers, tasks, now, collect_experience=True)
        if not outcome.experience:
            return []
        if self.tvf is None:
            self.tvf = TaskValueFunction()
        workers_by_id = {worker.worker_id: worker for worker in workers}
        tasks_by_id = {task.task_id: task for task in tasks}
        return self.tvf.fit(outcome.experience, workers_by_id, tasks_by_id, epochs=epochs)
