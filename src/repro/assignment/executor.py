"""Pluggable dispatch stage of the decompose→dispatch→merge plan pipeline.

The TPA planner (Alg. 4) and the incremental replan engine both end in the
same shape of work: after partitioning, each connected component is an
independent sub-problem whose search result depends only on the component's
tree, its workers' candidate sequences and the available task ids — never
on ``now`` or on other components.  This module turns that observation into
an explicit architecture:

* **decompose** — the planner extracts each component into a self-contained
  :class:`ComponentJob`: a picklable value object carrying everything
  :func:`run_component_job` needs to reproduce the exact in-process search
  call (engine mode, subtree, candidate sequences, available ids, budget).
* **dispatch** — a :class:`SearchExecutor` runs the jobs.
  :class:`SerialExecutor` executes them inline (the reference behaviour,
  zero overhead); :class:`ParallelExecutor` fans them out over a warm
  ``ProcessPoolExecutor`` shared across epochs and planner instances, and
  falls back to serial execution transparently if the pool dies.
* **merge** — the planner reassembles results **in submission order**, so
  assignments, metrics and TVF experience are bit-for-bit identical
  regardless of backend or worker count (pool scheduling can reorder
  completion, never the merge).

Determinism contract: ``run_component_job`` is a pure function of its job
(given a fixed wall-clock deadline state), both executors preserve
submission order, and cross-component coupling (the greedy deadline fill,
incremental cache writes) stays in the parent at merge time.  The only
wall-clock-dependent behaviour is the deadline ladder, which degrades each
job independently: a deadline expiring mid-dispatch skips only the jobs
that have not started yet.

The deadline is an absolute ``time.perf_counter()`` instant.  On Linux
``perf_counter`` is ``CLOCK_MONOTONIC``, which is shared across processes,
so forked pool workers can honour the parent's deadline directly; the
parent additionally pre-checks expiry at submission time so fully expired
epochs never touch the pool at all.
"""

from __future__ import annotations

import logging
import os
import pickle
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.assignment.dfsearch import DEFAULT_BOUND_MODE, dfsearch, dfsearch_bnb
from repro.assignment.dfsearch_tvf import dfsearch_tvf
from repro.assignment.tree import PartitionNode
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs.runtime import OBS_DISABLED
from repro.obs.trace import span_event

_LOG = logging.getLogger("repro.assignment.executor")

#: Components whose total candidate-sequence count is below this run inline
#: in the parent even under the parallel backend: the search finishes in
#: microseconds, far below the pickle + IPC cost of a pool round-trip.
#: Results are identical either way (the job function is pure), so this is
#: purely a latency knob.
INLINE_MIN_SEQUENCES = 24

#: Environment overrides consulted by :meth:`PlannerConfig.__post_init__`
#: (see planner.py) — used by CI to rerun entire suites under the parallel
#: backend without touching call sites.
EXECUTOR_ENV = "REPRO_EXECUTOR"
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_max_workers() -> int:
    """Worker-count default: the CPUs this process may actually use."""
    env = os.environ.get(MAX_WORKERS_ENV)
    if env:
        try:
            value = int(env)
            if value > 0:
                return value
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ComponentJob:
    """One component's search, extracted into a picklable value object.

    ``mode`` selects the engine: ``"exact"`` (plain DFSearch), ``"bnb"``
    (branch-and-bound) or ``"tvf"`` (guided search).  Exact/B&B jobs carry
    only task *ids* — the searches never read task attributes — while TVF
    jobs carry the active task list, whose attributes feed the value
    function's state features.
    """

    index: int
    mode: str
    root: PartitionNode
    worker_ids: Tuple[int, ...]
    sequences_by_worker: Dict[int, List[TaskSequence]]
    workers_by_id: Dict[int, Worker]
    task_ids: FrozenSet[int]
    node_budget: int = 0
    collect_experience: bool = False
    #: Admissible bound kind for B&B jobs (see
    #: :data:`repro.assignment.dfsearch.BOUND_MODES`); exact/TVF jobs
    #: ignore it.  Part of the job payload so pool workers prune exactly
    #: like the serial path would.
    bound_mode: str = DEFAULT_BOUND_MODE
    #: Active tasks (TVF mode only: global snapshot statistics).
    tasks: Optional[Sequence[Task]] = None
    #: The trained value function (TVF mode only; numpy state, picklable).
    tvf: Optional[object] = None
    #: Total candidate sequences across the component's workers — the
    #: dispatch-cost hint behind :data:`INLINE_MIN_SEQUENCES`.
    num_sequences: int = 0
    #: Span id of the dispatch span that submitted this job (observability
    #: only; ``None`` keeps the worker-side tracing entirely off).  The
    #: worker stamps its search span with this id so pool-side time lands
    #: under the right parent in the merged trace.
    trace_ctx: Optional[int] = None

    def restricted(self) -> "ComponentJob":
        """Copy with the shared lookup dicts narrowed to this component.

        The planner builds each job's candidate sets for its own workers
        but shares the snapshot's worker dictionary, so the serial path
        copies nothing more; before a job crosses a process boundary both
        are cut down to the component's workers, which is what keeps
        pickles small on dense snapshots.
        """
        return replace(
            self,
            sequences_by_worker={
                wid: self.sequences_by_worker.get(wid, []) for wid in self.worker_ids
            },
            workers_by_id={wid: self.workers_by_id[wid] for wid in self.worker_ids},
        )


@dataclass
class ComponentResult:
    """What one component's search produced (or why it did not run)."""

    index: int
    selections: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    nodes_expanded: int = 0
    deadline_hit: bool = False
    #: The deadline had already expired when the job would have started:
    #: no search ran and the merge stage must apply the greedy fill (a
    #: cross-component sequential step that cannot run in a pool worker).
    skipped: bool = False
    experience: List = field(default_factory=list)
    #: In-job wall-clock seconds (measured where the job ran).
    search_s: float = 0.0
    #: Absolute ``perf_counter`` instant the job started executing — on
    #: Linux the clock is shared across forked workers, so the parent can
    #: subtract its submit instant to get the pool queue wait.
    start_s: float = 0.0
    #: Trace events emitted where the job ran (only when the job carried a
    #: ``trace_ctx``); the parent adopts them into its tracer at merge.
    spans: Tuple[Dict[str, object], ...] = ()


def run_component_job(
    job: ComponentJob, deadline: Optional[float] = None
) -> ComponentResult:
    """Execute one component search; the pool entry point.

    Pure in ``job`` apart from the deadline ladder: an expired deadline at
    start yields a ``skipped`` marker, a mid-search expiry yields the
    engine's anytime partial with ``deadline_hit`` set.
    """
    start = _time.perf_counter()
    if deadline is not None and start >= deadline:
        return ComponentResult(index=job.index, skipped=True, start_s=start)
    if job.mode == "tvf":
        result = dfsearch_tvf(
            job.root, job.tasks, job.sequences_by_worker, job.workers_by_id, job.tvf
        )
    elif job.mode == "exact":
        result = dfsearch(
            job.root,
            None,
            job.sequences_by_worker,
            job.workers_by_id,
            node_budget=job.node_budget,
            collect_experience=job.collect_experience,
            deadline=deadline,
            available_ids=job.task_ids,
        )
    else:
        result = dfsearch_bnb(
            job.root,
            None,
            job.sequences_by_worker,
            job.workers_by_id,
            node_budget=job.node_budget,
            collect_experience=job.collect_experience,
            deadline=deadline,
            available_ids=job.task_ids,
            bound_mode=job.bound_mode,
        )
    end = _time.perf_counter()
    spans: Tuple[Dict[str, object], ...] = ()
    if job.trace_ctx is not None:
        pid = os.getpid()
        spans = (
            span_event(
                "component.search",
                int(start * 1_000_000),
                int(end * 1_000_000),
                pid,
                pid,
                # Negative ids keep worker spans out of the parent
                # tracer's id space; folding in the dispatch span id keeps
                # them unique across epochs on the same worker track.
                -((job.trace_ctx << 12) + job.index + 1),
                job.trace_ctx,
                cat="worker",
                index=job.index,
                mode=job.mode,
                sequences=job.num_sequences,
                nodes=result.nodes_expanded,
            ),
        )
    return ComponentResult(
        index=job.index,
        selections=tuple(result.selections),
        nodes_expanded=result.nodes_expanded,
        deadline_hit=result.deadline_hit,
        experience=result.experience,
        search_s=end - start,
        start_s=start,
        spans=spans,
    )


@dataclass
class ExecutorStats:
    """Per-dispatch accounting surfaced as planner/platform metrics."""

    jobs: int = 0
    #: Jobs that actually crossed a process boundary this dispatch.
    parallel_jobs: int = 0
    #: Sum of in-job search seconds (where each job ran).
    search_s: float = 0.0
    #: Wall-clock of the whole dispatch stage.
    wall_s: float = 0.0
    #: ``wall_s`` minus the backend's ideal critical path — an *estimate*
    #: of pickling + IPC + scheduling cost (0 for a perfect dispatch).
    overhead_s: float = 0.0
    #: 1 when *this* dispatch fell back to serial after a pool failure,
    #: else 0 — per-dispatch like every other field here, so consumers
    #: that sum stats across epochs count each failure once.  The
    #: executor's lifetime total is ``ParallelExecutor._fallbacks``.
    fallbacks: int = 0


class SearchExecutor:
    """Protocol of the dispatch stage.

    ``run`` takes the decomposed jobs plus the epoch deadline and returns
    ``(results, stats)`` with ``results[i]`` answering ``jobs[i]`` —
    submission order, always.  ``close`` releases backend resources (a
    no-op for shared pools, which outlive individual planners by design).
    """

    kind: str = "serial"

    def run(
        self,
        jobs: Sequence[ComponentJob],
        deadline: Optional[float] = None,
        obs=OBS_DISABLED,
    ) -> Tuple[List[ComponentResult], ExecutorStats]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


def _run_inline_job(job: ComponentJob, deadline: Optional[float], obs) -> ComponentResult:
    """One in-parent job, wrapped in a search span when tracing is on."""
    if not obs.enabled:
        return run_component_job(job, deadline)
    with obs.span(
        "component.search", index=job.index, mode=job.mode, sequences=job.num_sequences
    ) as span:
        result = run_component_job(job, deadline)
        span.set(nodes=result.nodes_expanded, skipped=result.skipped)
    return result


class SerialExecutor(SearchExecutor):
    """Reference backend: run every job inline, in order."""

    kind = "serial"

    def run(self, jobs, deadline=None, obs=OBS_DISABLED):
        start = _time.perf_counter()
        results = [_run_inline_job(job, deadline, obs) for job in jobs]
        wall = _time.perf_counter() - start
        search = sum(result.search_s for result in results)
        return results, ExecutorStats(
            jobs=len(jobs),
            search_s=search,
            wall_s=wall,
            overhead_s=max(0.0, wall - search),
        )


# Warm pools shared process-wide, keyed by worker count: every planner with
# the same ``max_workers`` reuses the same forked workers across epochs,
# runs and strategy instances, so the fork cost is paid once per process.
_SHARED_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _shared_pool(max_workers: int) -> ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        _SHARED_POOLS[max_workers] = pool
    return pool


def _discard_pool(max_workers: int) -> None:
    pool = _SHARED_POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Tear down every shared pool (test isolation, interpreter exit)."""
    for max_workers in list(_SHARED_POOLS):
        _discard_pool(max_workers)


class ParallelExecutor(SearchExecutor):
    """Process-pool backend with submission-order merge and serial fallback.

    Jobs below :data:`INLINE_MIN_SEQUENCES` candidate sequences run inline
    (the pool round-trip would dominate); the rest are submitted to the
    shared pool and collected strictly in submission order.  Any pool
    failure — a broken pool, an unpicklable payload, a dying worker —
    degrades the dispatch to a full serial re-run: jobs are pure, so
    re-running ones that may already have completed remotely is safe.
    """

    kind = "parallel"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers or default_max_workers()
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        self._fallbacks = 0

    def run(self, jobs, deadline=None, obs=OBS_DISABLED):
        start = _time.perf_counter()
        if self.max_workers == 1 or len(jobs) <= 1:
            results, stats = SerialExecutor().run(jobs, deadline, obs=obs)
            return results, stats

        results: List[Optional[ComponentResult]] = [None] * len(jobs)
        pooled: List[Tuple[int, ComponentJob]] = []
        inline_s = 0.0
        for i, job in enumerate(jobs):
            if deadline is not None and _time.perf_counter() >= deadline:
                # Deadline expired mid-dispatch: only the jobs not yet
                # started degrade (to skipped → merge-time greedy fill);
                # everything already submitted runs to completion.
                results[i] = ComponentResult(index=job.index, skipped=True)
            elif job.num_sequences < INLINE_MIN_SEQUENCES:
                inline_result = _run_inline_job(job, deadline, obs)
                results[i] = inline_result
                inline_s += inline_result.search_s
            else:
                pooled.append((i, job))

        pooled_max = 0.0
        pooled_sum = 0.0
        if pooled:
            try:
                pool = _shared_pool(self.max_workers)
                trace_ctx = obs.current_span_id() if obs.enabled else None
                futures = []
                for i, job in pooled:
                    payload = job.restricted()
                    if trace_ctx is not None:
                        payload = replace(payload, trace_ctx=trace_ctx)
                    if obs.enabled and obs.profile_ipc:
                        # What actually crosses the boundary: the job the
                        # pool pickles.  One extra dumps() per pooled job,
                        # gated behind its own knob for that reason.
                        obs.observe(
                            "executor.pickle_bytes",
                            len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)),
                        )
                    futures.append(
                        (
                            i,
                            _time.perf_counter(),
                            pool.submit(run_component_job, payload, deadline),
                        )
                    )
                for i, submit_s, future in futures:
                    result = future.result()
                    results[i] = result
                    pooled_sum += result.search_s
                    pooled_max = max(pooled_max, result.search_s)
                    if obs.enabled:
                        obs.adopt(result.spans)
                        if result.start_s:
                            obs.observe(
                                "executor.queue_wait_s",
                                max(result.start_s - submit_s, 0.0),
                            )
            except Exception as exc:
                # Graceful degradation: drop the (possibly broken) pool so
                # the next epoch gets a fresh one, and serve this epoch
                # serially — same results, just slower.
                _LOG.warning(
                    "parallel dispatch failed (%s: %s); falling back to serial",
                    type(exc).__name__,
                    exc,
                )
                _discard_pool(self.max_workers)
                self._fallbacks += 1
                obs.count("executor.fallbacks")
                serial_results, stats = SerialExecutor().run(jobs, deadline, obs=obs)
                # Per-dispatch stats: THIS dispatch fell back exactly once.
                # The executor's lifetime total lives in ``_fallbacks``;
                # reporting it here would re-bill every historic fallback
                # on each later epoch when the consumer sums dispatches.
                stats.fallbacks = 1
                return serial_results, stats

        wall = _time.perf_counter() - start
        search = inline_s + pooled_sum
        if obs.enabled:
            obs.count("executor.pooled_jobs", len(pooled))
            obs.count("executor.inline_jobs", len(jobs) - len(pooled))
        # Ideal critical path of this dispatch: inline work is sequential
        # in the parent, pooled work is bounded below by its longest job
        # and by perfect division across the workers.
        ideal = inline_s + max(pooled_max, pooled_sum / self.max_workers)
        return results, ExecutorStats(
            jobs=len(jobs),
            parallel_jobs=len(pooled),
            search_s=search,
            wall_s=wall,
            overhead_s=max(0.0, wall - ideal),
        )


def make_executor(kind: str, max_workers: Optional[int] = None) -> SearchExecutor:
    """Factory behind ``PlannerConfig.executor``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "parallel":
        return ParallelExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor: {kind!r} (expected 'serial' or 'parallel')")
