"""The spatial-crowdsourcing platform: streaming execution engine.

The platform replays arrival events (workers going online, tasks being
published), wakes up whenever a worker finishes a task, asks the configured
assignment strategy for a plan at every decision point, and executes the
first planned task of every idle worker with travel-time semantics.  The
``replan_interval`` knob batches decision points to trade plan freshness
for CPU time, mirroring how a production dispatcher would amortise
planning cost; the default (0) replans at every event, exactly like
Algorithm 3.

Each epoch (one arrival or wake-up plus the decision point it triggers)
builds one :class:`~repro.simulation.record.EpochRecord`: the journal
appends it, :meth:`SimulationMetrics.fold` counts it, and a resumed run
replays journaled records through the same epoch body.

Fault-tolerant runtime
----------------------
The platform is built to keep serving under degraded conditions:

* **Event validation** — malformed arrivals (NaN coordinates, inverted
  lifetimes, arrivals after expiry) are counted and dropped at ingestion;
  duplicate deliveries of an already-known worker or task are ignored.
  Both are no-ops on well-formed streams.
* **Degradation ladder** — when the strategy's planner runs with a
  wall-clock deadline (``PlannerConfig.deadline_s``), each decision point
  records the rung that served it: ``full`` (exact plan), ``partial``
  (anytime best under a mid-search cutoff), ``greedy`` (first-fit fill of
  components the deadline skipped), or ``carryover`` (idle workers the
  degraded plan left empty keep their previous still-valid sequences).
* **Write-ahead journal + checkpoints** — with ``PlatformConfig.journal``
  set, every epoch appends its record (dispatches, repositionings,
  recorded CPU cost, rung, latency class) to the journal; with
  ``checkpoint_store`` set, the full runtime state is snapshotted every
  ``checkpoint_interval`` epochs.  :meth:`SCPlatform.resume` restores the
  newest snapshot, replays the journal tail through the live epoch body
  (journaled decisions instead of planning), and continues the run live —
  reproducing the metrics of an uninterrupted run bit-for-bit for
  deterministic configurations (no planner deadline; deadline runs are
  inherently wall-clock-dependent, so replay reproduces their *journaled*
  decisions but later live epochs may legitimately differ).
* **Chaos hooks** — ``PlatformConfig.fault_injector`` perturbs the event
  stream (dropout, duplicates, reordering, malformed payloads) and raises
  :class:`~repro.resilience.chaos.InjectedCrash` at a scheduled epoch,
  before or after the journal write, to exercise recovery for real.
"""

from __future__ import annotations

import heapq
import logging
import math
import pickle
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assignment.incremental import DirtySet
from repro.assignment.strategies import AssignmentStrategy
from repro.core.assignment import Assignment, WorkerPlan
from repro.core.events import ArrivalEvent, InvalidEventError, validate_event
from repro.core.problem import ATAInstance
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.obs.runtime import OBS_DISABLED, Observability, ObservabilityConfig
from repro.resilience.chaos import FaultInjector, InjectedCrash
from repro.resilience.checkpoint import PlatformCheckpoint
from repro.simulation.clock import SimulationClock
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.record import EpochRecord
from repro.spatial.geometry import Point

#: Child of ``repro.resilience`` so resilience-wide log configuration
#: (and test captures pinned to that name) still applies.
_LOG = logging.getLogger("repro.resilience.platform")


@dataclass
class PlatformConfig:
    """Execution knobs of the platform."""

    #: Minimum simulated time between consecutive planning calls.  0 means
    #: replanning at every arrival / wake-up event (Algorithm 3 semantics).
    replan_interval: float = 0.0
    #: Safety valve on the number of planning calls (None = unlimited).
    max_replans: Optional[int] = None
    #: Validate arrival events at ingestion and count-and-drop malformed
    #: ones instead of letting them poison the planning stack.
    validate_events: bool = True
    #: Write-ahead journal receiving one entry per completed epoch
    #: (see :mod:`repro.resilience.journal`); None disables journaling.
    journal: Optional[object] = None
    #: Checkpoint store receiving periodic state snapshots
    #: (see :mod:`repro.resilience.checkpoint`); None disables them.
    checkpoint_store: Optional[object] = None
    #: Snapshot the runtime state every this many epochs.  Checkpoints only
    #: bound journal-replay length on resume — the WAL covers every epoch in
    #: between — so a sparse cadence keeps the healthy-path pickling cost
    #: negligible.
    checkpoint_interval: int = 64
    #: Chaos harness perturbing the event stream and scheduling crashes
    #: (see :mod:`repro.resilience.chaos`); None runs the clean stream.
    fault_injector: Optional[FaultInjector] = None
    #: Observability: tracing spans, streaming metrics and profiling hooks
    #: across the whole plan pipeline (see :mod:`repro.obs`).  None — the
    #: default — keeps every hot path on the no-op singleton; the overhead
    #: of the disabled path is a guarded attribute read per call site.
    observability: Optional[ObservabilityConfig] = None


@dataclass
class _WorkerRuntime:
    """Mutable runtime state of one worker."""

    worker: Worker
    busy_until: float
    completed: int = 0
    #: Interruptible movement towards predicted demand:
    #: (start_time, origin, target, arrival_time) or None.
    reposition: Optional[tuple] = None

    def is_idle(self, now: float) -> bool:
        return now >= self.busy_until and self.worker.is_available(now)

    def advance_reposition(self, now: float) -> None:
        """Move the worker along its repositioning leg up to ``now``."""
        if self.reposition is None:
            return
        start_time, origin, target, arrival = self.reposition
        if now >= arrival:
            self.worker = self.worker.moved_to(target)
            self.reposition = None
            return
        if arrival <= start_time:
            return
        fraction = (now - start_time) / (arrival - start_time)
        location = Point(
            origin.x + fraction * (target.x - origin.x),
            origin.y + fraction * (target.y - origin.y),
        )
        self.worker = self.worker.moved_to(location)
        self.reposition = (now, location, target, arrival)


class SCPlatform:
    """Streaming execution of an ATA instance under one strategy."""

    def __init__(
        self,
        instance: ATAInstance,
        strategy: AssignmentStrategy,
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.instance = instance
        self.strategy = strategy
        self.config = config or PlatformConfig()
        #: Per-run observability handle (fresh per run; see
        #: :meth:`_reset_run_state`).  The disabled singleton until then.
        self.obs = OBS_DISABLED
        self.metrics = SimulationMetrics()
        self.clock = SimulationClock(instance.start_time)
        self._workers: Dict[int, _WorkerRuntime] = {}
        self._pending: Dict[int, Task] = {}
        self._assigned_ids: set = set()
        self._wakeups: List[float] = []
        self._last_plan_time: float = -float("inf")
        self._last_boundary_wakeup: float = -float("inf")
        #: Workers / tasks mutated since the last planning call; handed to
        #: the strategy at every decision point so incremental replanning
        #: knows exactly which region of the previous plan is stale.
        self._dirty = DirtySet()
        # Streaming position and epoch bookkeeping (rebuilt per run).
        self._events: List[ArrivalEvent] = []
        self._event_index: int = 0
        self._next_seq: int = 0
        # Carryover rung state: the last non-empty real plan per worker.
        self._last_plans: Dict[int, WorkerPlan] = {}
        self._carryover_enabled: bool = False
        self._replay_replans: bool = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Replay the whole instance and return the collected metrics.

        ``run()`` is re-entrant: every piece of mutable replay state —
        metrics, clock, worker runtimes, pending tasks, wakeups, the
        replan throttle and the dirty tracker — is rebuilt here, so a
        second call observes exactly what a freshly constructed platform
        would.  A fresh run also truncates the configured journal and
        checkpoint store: they describe *this* run only (use
        :meth:`resume` to continue a previous one instead).
        """
        self._reset_run_state(clear_durability=True)
        return self._run_loop()

    def close(self) -> None:
        """Release strategy-held resources (the planner's incremental plan
        cache).

        Idempotent.  ``run()`` / ``resume()`` reset the strategy on entry,
        so a closed platform can be run again and replays identically.
        """
        close = getattr(self.strategy, "close", None)
        if close is not None:
            close()

    def resume(
        self,
        checkpoint: Optional[PlatformCheckpoint] = None,
        journal: Optional[object] = None,
    ) -> SimulationMetrics:
        """Recover an interrupted run and carry it to completion.

        Restores ``checkpoint`` (default: the newest *loadable* snapshot
        in the configured store), replays every journal entry at or after
        the snapshot — re-applying the *recorded* decisions instead of
        re-planning, so wall-clock noise cannot change history — and then
        continues the run live from the first epoch the journal does not
        cover.  A torn trailing journal entry (crash mid-write) is simply
        redone live.  For deterministic configurations the returned
        metrics match an uninterrupted :meth:`run` bit-for-bit (see
        :meth:`SimulationMetrics.deterministic_state`).

        Recovery degrades instead of crashing on corrupted durability
        state: a checkpoint whose payload no longer unpickles (torn or
        truncated write) is skipped in favour of the next older snapshot
        — or a cold start when none survives — and a gap in the journal
        sequence (a lost segment, not just a torn tail) or a parseable but
        malformed entry stops replay at the last good entry, redoing the
        rest live.  Each fallback costs replay fidelity for the missing
        span but always yields a completed run.  A well-formed entry that
        contradicts the replayed state (another clock, a dispatch of a task
        that is not pending) raises :class:`RuntimeError`.
        """
        if journal is None:
            journal = self.config.journal
        store = self.config.checkpoint_store
        if checkpoint is not None:
            candidates = [checkpoint]
        elif store is not None:
            candidates = list(store.checkpoints())
        else:
            candidates = []
        self._reset_run_state(clear_durability=False)
        # Strategies carrying decision-shaping state across epochs (frozen
        # FTA sequences, a trained value function) advertise it through
        # snapshot_state(); replay must re-run their planning calls so that
        # state evolves exactly as in the crashed run.  Stateless strategies
        # replay from the journal alone, with no planning cost.
        self._replay_replans = self.strategy.snapshot_state() is not None
        start_seq = 0
        for candidate in candidates:
            try:
                start_seq = self._restore_checkpoint(candidate)
                break
            except Exception as exc:
                _LOG.warning(
                    "checkpoint seq=%s failed to restore (%r) — "
                    "falling back to an older snapshot",
                    getattr(candidate, "seq", "?"),
                    exc,
                )
                # A half-applied restore must not leak into the fallback
                # attempt: rebuild pristine run state before trying the
                # next (older) candidate or the cold start.
                self._reset_run_state(clear_durability=False)
                self._replay_replans = self.strategy.snapshot_state() is not None
                start_seq = 0
        return self._run_loop(self._journal_tail(journal, start_seq))

    @staticmethod
    def _journal_tail(journal: Optional[object], start_seq: int) -> List[EpochRecord]:
        """The journaled epochs to replay: well-formed and contiguous from
        ``start_seq``.  A malformed entry or a sequence gap ends the tail."""
        records: List[EpochRecord] = []
        if journal is None:
            return records
        for entry in journal.entries():
            record = EpochRecord.from_entry(entry)
            if record is not None and record.seq < start_seq:
                continue
            expected = start_seq + len(records)
            if record is None or record.seq != expected:
                _LOG.warning(
                    "%s at epoch %s — stopping replay and continuing live",
                    "malformed journal entry" if record is None else "journal gap",
                    expected,
                )
                break
            records.append(record)
        return records

    # ------------------------------------------------------------------ #
    # Run-state lifecycle
    # ------------------------------------------------------------------ #
    def _reset_run_state(self, clear_durability: bool) -> None:
        self.metrics = SimulationMetrics()
        self.clock = SimulationClock(self.instance.start_time)
        self._workers = {}
        self._pending = {}
        self._assigned_ids = set()
        self._wakeups = []
        self._last_plan_time = -float("inf")
        self._last_boundary_wakeup = -float("inf")
        self._dirty.clear()
        self.strategy.reset()
        # A fresh handle per run keeps spans and metrics scoped to one
        # replay (run() is re-entrant); the strategy forwards it to its
        # planner, which the incremental engine reads it from.
        self.obs = (
            Observability(self.config.observability)
            if self.config.observability is not None
            else OBS_DISABLED
        )
        self.strategy.attach_observability(self.obs)
        set_tracer = getattr(self.instance.travel, "set_tracer", None)
        if set_tracer is not None:
            set_tracer(self.obs.tracer if self.obs.enabled else None)
        events = self.instance.event_stream()
        injector = self.config.fault_injector
        if injector is not None:
            # perturb_events is pure in (events, seed): a resumed run
            # rebuilds the exact same faulty stream without journaling it.
            events = injector.perturb_events(events)
        self._events = events
        self._event_index = 0
        self._next_seq = 0
        self._last_plans = {}
        #: Last degradation rung served (drives rung-transition instants).
        self._last_rung = "full"
        # Platform-level carryover only makes sense (and only pays its
        # bookkeeping cost) when the planner can actually degrade.
        self._carryover_enabled = (
            getattr(getattr(self.strategy, "config", None), "deadline_s", None)
            is not None
        )
        if clear_durability:
            if self.config.journal is not None:
                self.config.journal.clear()
            if self.config.checkpoint_store is not None:
                self.config.checkpoint_store.clear()

    def _run_loop(self, journaled: Sequence[EpochRecord] = ()) -> SimulationMetrics:
        """Algorithm 3: one epoch per arrival or wake-up until both run out.

        ``journaled`` are the recorded epochs a resumed run replays first;
        a journal that outlasts the event stream raises.
        """
        replay = iter(journaled)
        while self._event_index < len(self._events) or self._wakeups:
            self._epoch(next(replay, None))
        leftover = next(replay, None)
        if leftover is not None:
            raise RuntimeError(
                f"journal epoch {leftover.seq} has no arrival or wake-up left to replay"
            )
        self._finish_observability()
        return self.metrics

    def _epoch(self, journaled: Optional[EpochRecord]) -> None:
        """One epoch: the next arrival or wake-up and its decision point.

        A live epoch plans, dispatches, journals and checkpoints.  A
        replayed one (``journaled`` given) must reach the journaled
        ``(src, now)``, takes its decisions from the journal, and skips
        the journal write, the checkpoint and the crash hooks.  Either way
        the epoch's :class:`EpochRecord` is folded into the metrics.
        """
        injector = self.config.fault_injector
        obs = self.obs
        seq = self._next_seq
        with obs.span("epoch", seq=seq) as epoch_span:
            next_arrival = (
                self._events[self._event_index].time
                if self._event_index < len(self._events)
                else float("inf")
            )
            next_wakeup = self._wakeups[0] if self._wakeups else float("inf")
            event = None
            if next_arrival <= next_wakeup:
                event = self._events[self._event_index]
                self._event_index += 1
                # Out-of-order deliveries (chaos, external feeds) carry a
                # timestamp in the past; the platform processes them at the
                # current instant instead of moving time backwards.
                now = self.clock.advance_to(max(event.time, self.clock.now))
                src = "a"
            else:
                now = self.clock.advance_to(heapq.heappop(self._wakeups))
                src = "w"
            if journaled is not None and (journaled.src, journaled.now) != (src, now):
                raise RuntimeError(
                    f"journal epoch {seq} diverged: replay reached "
                    f"({src!r}, t={now!r}), journal recorded "
                    f"({journaled.src!r}, t={journaled.now!r})"
                )
            record = EpochRecord(seq=seq, src=src, now=now)
            if event is not None:
                self._ingest(event, record)
            if obs.enabled:
                epoch_span.set(src=src, now=now)

            self._step(record, journaled)
            self.metrics.fold(record)

            if journaled is None:
                if injector is not None and injector.should_crash(seq, mid=True):
                    # Crash before the journal write: this epoch's entry is
                    # torn away and recovery must redo the epoch live.
                    raise InjectedCrash(f"injected crash mid-epoch {seq}")
                self._journal_epoch(record)
                self._maybe_checkpoint(seq)
                if injector is not None and injector.should_crash(seq, mid=False):
                    raise InjectedCrash(f"injected crash after epoch {seq}")
        self._next_seq = seq + 1

    def _finish_observability(self) -> None:
        """End-of-run exports: cache gauges and the configured trace file."""
        obs = self.obs
        if not obs.enabled:
            return
        stats_fn = getattr(self.instance.travel, "cache_stats", None)
        if stats_fn is not None:
            for name, value in sorted(stats_fn().items()):
                obs.gauge(f"roadnet.{name}", float(value))
        obs.write_trace()

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _ingest(self, event: ArrivalEvent, record: EpochRecord) -> None:
        if self.config.validate_events:
            try:
                validate_event(event)
            except InvalidEventError as exc:
                _LOG.warning("rejecting malformed event: %s", exc)
                record.rejected += 1
                return
        if event.is_worker:
            self._on_worker(event.payload, record)
        else:
            self._on_task(event.payload, record)

    def _on_worker(self, worker: Worker, record: EpochRecord) -> None:
        existing = self._workers.get(worker.worker_id)
        if existing is not None and record.now < existing.worker.off_time:
            # Duplicate delivery of a worker that is still online: honouring
            # it would teleport the worker back to its arrival location.  A
            # re-arrival after going offline (dropout/rejoin) is legitimate.
            record.duplicates += 1
            return
        self._workers[worker.worker_id] = _WorkerRuntime(worker=worker, busy_until=record.now)
        self._dirty.note_worker(worker.worker_id)

    def _on_task(self, task: Task, record: EpochRecord) -> None:
        if task.predicted:
            return
        if task.task_id in self._assigned_ids or task.task_id in self._pending:
            record.duplicates += 1
            return
        self._pending[task.task_id] = task
        self._dirty.note_task(task.task_id)

    # ------------------------------------------------------------------ #
    # Decision points
    # ------------------------------------------------------------------ #
    def _step(self, record: EpochRecord, journaled: Optional[EpochRecord]) -> None:
        """One decision point: clean up, (maybe) replan, dispatch.

        A replayed epoch re-applies the ``journaled`` decision instead of
        planning; only strategies that carry state across epochs re-plan,
        so that state evolves exactly as in the crashed run.
        """
        now = record.now
        # Latch the travel model's speed-profile window: the dispatch and
        # repositioning costs below (and any plan computed this step) all
        # use the multiplier active *now* (no-op for static models).
        self.instance.travel.begin_epoch(now)
        idle_workers, pending_tasks = self._advance_fleet(record)
        if journaled is None:
            cap = self.config.max_replans
            if cap is not None and self.metrics.replans >= cap:
                return
            if self._should_defer_replan(now) or not idle_workers:
                return
            plan = self._plan(idle_workers, pending_tasks, record)
        else:
            if not journaled.planned:
                return
            if self._replay_replans and idle_workers:
                self.strategy.notify_dirty(self._dirty)
                self.strategy.plan(idle_workers, pending_tasks, now)
                self.strategy.consume_last_outcome()
            # The crashed run's own measurement, not a re-measurement:
            # replay must not let recovery wall-clock into the metrics.
            record.counted, record.cpu = journaled.counted, journaled.cpu
            record.rung, record.cls = journaled.rung, journaled.cls
            record.repairs = journaled.repairs
        record.planned = True
        self._last_plan_time = now
        self._dirty.clear()
        self._schedule_boundary_wakeup(now)

        if journaled is not None:
            self._reapply(journaled, record)
        elif plan:
            # No span for empty plans: most epochs dispatch nothing, and a
            # zero-duration span per epoch is pure trace-budget noise.
            with self.obs.span("dispatch_plan", planned=len(plan)):
                self._dispatch(plan, record)

    def _plan(
        self, idle_workers: List[Worker], pending_tasks: List[Task], record: EpochRecord
    ) -> Assignment:
        """Ask the strategy for a plan; stamp its cost, rung and class."""
        # The strategy is consulted even when no real task is pending so that
        # prediction-aware methods can reposition idle workers towards future
        # demand; only instants with real pending tasks count towards the
        # CPU-time metric (the paper's "task assignment at each time instance").
        obs = self.obs
        now = record.now
        self.strategy.notify_dirty(self._dirty)
        start = _time.perf_counter()
        with obs.span(
            "plan", workers=len(idle_workers), tasks=len(pending_tasks)
        ) as plan_span:
            plan = self.strategy.plan(idle_workers, pending_tasks, now)
        record.cpu = _time.perf_counter() - start
        record.counted = bool(pending_tasks)
        outcome = self.strategy.consume_last_outcome()
        if outcome is not None:
            record.rung = outcome.rung
            record.repairs = outcome.repairs
        if self._carryover_enabled:
            if outcome is not None and outcome.deadline_hit:
                if self._carryover(plan, idle_workers, now):
                    record.rung = "carryover"
            self._remember_plans(plan, idle_workers)
        # The epoch's latency class: any rung below ``full`` is degraded;
        # otherwise an epoch that reused cached per-worker or per-component
        # state is incremental; everything else paid for a full replan.
        if record.rung != "full":
            record.cls = "degraded"
        elif outcome is not None and (
            outcome.reused_workers or outcome.reused_components
        ):
            record.cls = "incremental"
        if obs.enabled:
            # The span's args dict is shared with the emitted event, so
            # stamping after exit still lands in the trace.
            plan_span.set(cls=record.cls, rung=record.rung)
            if record.rung != self._last_rung:
                obs.instant("rung.transition", previous=self._last_rung, rung=record.rung)
                self._last_rung = record.rung
            self._emit_cache_counters()
        return plan

    def _emit_cache_counters(self) -> None:
        """Per-epoch travel-cache counter samples (roadnet models only)."""
        stats_fn = getattr(self.instance.travel, "cache_stats", None)
        if stats_fn is None:
            return
        stats = stats_fn()
        self.obs.counter_event(
            "roadnet.row_cache",
            hits=float(stats.get("row_hits", 0)),
            misses=float(stats.get("row_misses", 0)),
        )
        self.obs.counter_event(
            "roadnet.snap_cache",
            hits=float(stats.get("snap_hits", 0)),
            misses=float(stats.get("snap_misses", 0)),
        )

    def _should_defer_replan(self, now: float) -> bool:
        """The ``replan_interval`` throttle, made speed-profile-aware.

        A boundary of the travel model's speed profile invalidates every
        cost the previous plan was computed with, so once one has passed
        the throttle must not defer the decision point — otherwise a task
        that only becomes reachable under the new profile (e.g. after a
        rush hour ends) could silently expire inside the throttle window.
        """
        if now - self._last_plan_time >= self.config.replan_interval:
            return False
        return self.instance.travel.next_profile_boundary(self._last_plan_time) > now

    def _schedule_boundary_wakeup(self, now: float) -> None:
        """Wake up at the next speed-profile boundary of a throttled run.

        Without this, a ``replan_interval`` longer than the gap between
        arrivals and the boundary would sleep straight through the profile
        change (no event falls inside the new window to trigger a replan).
        Only scheduled when there is still work the boundary could affect,
        and deduplicated so consecutive planning epochs inside one window
        do not pile up identical wake-ups.
        """
        if self.config.replan_interval <= 0:
            return
        boundary = self.instance.travel.next_profile_boundary(now)
        if not math.isfinite(boundary) or boundary >= self.instance.end_time:
            return
        if boundary == self._last_boundary_wakeup:
            return
        if not self._pending and self._event_index >= len(self._events):
            return
        self._last_boundary_wakeup = boundary
        heapq.heappush(self._wakeups, boundary)

    # ------------------------------------------------------------------ #
    # Degradation carryover (the ladder's last rung)
    # ------------------------------------------------------------------ #
    def _carryover(self, plan: Assignment, idle_workers: List[Worker], now: float) -> bool:
        """Graft previous still-valid sequences onto a degraded plan.

        When the deadline cut planning short, idle workers the degraded
        plan left without work keep their most recent real sequences —
        filtered down to tasks that are still pending, unexpired and not
        claimed by this plan — instead of idling until the next epoch.
        """
        claimed = {task.task_id for worker_plan in plan for task in worker_plan.sequence}
        used = False
        for worker in idle_workers:
            if worker.worker_id in plan:
                continue
            previous = self._last_plans.get(worker.worker_id)
            if previous is None:
                continue
            remaining = tuple(
                task
                for task in previous.sequence
                if not task.predicted
                and not task.is_expired(now)
                and task.task_id in self._pending
                and task.task_id not in claimed
            )
            if not remaining:
                continue
            plan.add(WorkerPlan(worker, TaskSequence(worker, remaining)))
            claimed.update(task.task_id for task in remaining)
            used = True
        return used

    def _remember_plans(self, plan: Assignment, idle_workers: List[Worker]) -> None:
        for worker in idle_workers:
            worker_plan = plan.plan_for(worker.worker_id)
            if worker_plan is not None and any(
                not task.predicted for task in worker_plan.sequence
            ):
                self._last_plans[worker.worker_id] = worker_plan
            else:
                self._last_plans.pop(worker.worker_id, None)

    # ------------------------------------------------------------------ #
    # Dispatch semantics
    # ------------------------------------------------------------------ #
    def _dispatch(self, plan: Assignment, record: EpochRecord) -> None:
        now = record.now
        for worker_plan in plan:
            runtime = self._workers.get(worker_plan.worker.worker_id)
            if runtime is None or not runtime.is_idle(now):
                continue
            task = self._first_executable_task(worker_plan, runtime, now)
            if task is None:
                # No real task to execute right now: if the plan leads with a
                # predicted task, reposition the worker towards that future
                # demand (the paper's intended use of predictions) so it is
                # nearby when the real task materialises.  Repositioning does
                # not count as an assignment.
                self._reposition(worker_plan, runtime, record)
                continue
            self._execute_dispatch(runtime, task, record)

    def _reapply(self, journaled: EpochRecord, record: EpochRecord) -> None:
        """Re-execute a journaled epoch's dispatches and repositioning legs."""
        for worker_id, task_id in journaled.dispatches:
            runtime = self._workers.get(worker_id)
            task = self._pending.get(task_id)
            if runtime is None or task is None:
                raise RuntimeError(
                    f"journal epoch {journaled.seq} dispatches task {task_id} "
                    f"to worker {worker_id}, but replay state has no such "
                    f"pending task / online worker"
                )
            self._execute_dispatch(runtime, task, record)
        for worker_id, target_x, target_y, arrival in journaled.repositions:
            runtime = self._workers.get(worker_id)
            if runtime is not None and runtime.reposition is None:
                self._start_reposition(runtime, Point(target_x, target_y), arrival, record)

    def _execute_dispatch(self, runtime: _WorkerRuntime, task: Task, record: EpochRecord) -> None:
        """Commit one dispatch (cancelling any repositioning in progress)."""
        now = record.now
        travel_time = self.instance.travel.time(runtime.worker.location, task.location)
        completion = now + travel_time
        runtime.reposition = None
        self._assigned_ids.add(task.task_id)
        self._pending.pop(task.task_id, None)
        runtime.busy_until = completion
        runtime.completed += 1
        runtime.worker = runtime.worker.moved_to(task.location)
        self._dirty.note_worker(runtime.worker.worker_id)
        self._dirty.note_task(task.task_id)
        self.strategy.notify_dispatch(runtime.worker.worker_id, task.task_id)
        record.dispatches.append((runtime.worker.worker_id, task.task_id))
        if completion < runtime.worker.off_time:
            # max() only differs under corrupted (negative) travel costs,
            # where it keeps the wake-up from moving the clock backwards.
            heapq.heappush(self._wakeups, max(completion, now))

    def _reposition(
        self, worker_plan: WorkerPlan, runtime: _WorkerRuntime, record: EpochRecord
    ) -> None:
        """Start an interruptible move towards the first feasible predicted task.

        The worker keeps counting as idle — it can be dispatched on a real
        task at any later decision point from wherever it has got to — so
        predictions can only help positioning, never block real work.
        """
        if runtime.reposition is not None:
            return
        now = record.now
        travel = self.instance.travel
        worker = runtime.worker
        for task in worker_plan.sequence:
            if not task.predicted or task.is_expired(now):
                continue
            if travel.distance(worker.location, task.location) > worker.reachable_distance + 1e-9:
                continue
            arrival = now + travel.time(worker.location, task.location)
            if arrival >= worker.off_time:
                continue
            self._start_reposition(runtime, task.location, arrival, record)
            return

    @staticmethod
    def _start_reposition(
        runtime: _WorkerRuntime, target: Point, arrival: float, record: EpochRecord
    ) -> None:
        runtime.reposition = (record.now, runtime.worker.location, target, arrival)
        record.repositions.append((runtime.worker.worker_id, target.x, target.y, arrival))

    def _first_executable_task(
        self, worker_plan: WorkerPlan, runtime: _WorkerRuntime, now: float
    ) -> Optional[Task]:
        """First real, unexpired, still-unassigned, feasible task of the plan."""
        travel = self.instance.travel
        worker = runtime.worker
        for task in worker_plan.sequence:
            if task.predicted or task.is_expired(now):
                continue
            if task.task_id in self._assigned_ids or task.task_id not in self._pending:
                continue
            if travel.distance(worker.location, task.location) > worker.reachable_distance + 1e-9:
                continue
            arrival = now + travel.time(worker.location, task.location)
            # Written NaN-robustly: a corrupted (NaN) travel cost must fail
            # the feasibility check rather than slip through it.
            if not (arrival < task.expiration_time) or not (arrival < worker.off_time):
                continue
            return task
        return None

    # ------------------------------------------------------------------ #
    # Durability: journal, checkpoints, replay
    # ------------------------------------------------------------------ #
    def _journal_epoch(self, record: EpochRecord) -> None:
        journal = self.config.journal
        if journal is None:
            return
        if not self.obs.enabled:
            # Once per epoch: even a no-op span costs a measurable share
            # of the append itself.
            journal.append(record.to_entry())
            return
        with self.obs.span("journal.append", seq=record.seq):
            journal.append(record.to_entry())

    def _maybe_checkpoint(self, seq: int) -> None:
        store = self.config.checkpoint_store
        if store is None or self.config.checkpoint_interval <= 0:
            return
        if (seq + 1) % self.config.checkpoint_interval != 0:
            return
        with self.obs.span("checkpoint.save", seq=seq + 1) as ckpt_span:
            # Pickling at save time freezes the snapshot: later in-place
            # mutation of the live runtimes cannot corrupt it.
            payload = pickle.dumps(
                self._capture_state(seq + 1), protocol=pickle.HIGHEST_PROTOCOL
            )
            store.save(PlatformCheckpoint(seq=seq + 1, payload=payload))
            ckpt_span.set(payload_bytes=len(payload))

    def _capture_state(self, next_seq: int) -> Dict[str, object]:
        return {
            "seq": next_seq,
            "event_index": self._event_index,
            "now": self.clock.now,
            "workers": [
                (rt.worker, rt.busy_until, rt.completed, rt.reposition)
                for rt in self._workers.values()
            ],
            "pending": list(self._pending.values()),
            "assigned_ids": set(self._assigned_ids),
            "wakeups": list(self._wakeups),
            "last_plan_time": self._last_plan_time,
            "last_boundary_wakeup": self._last_boundary_wakeup,
            "dirty_workers": set(self._dirty.worker_ids),
            "dirty_tasks": set(self._dirty.task_ids),
            "metrics": self.metrics,
            "last_plans": dict(self._last_plans),
            "strategy": self.strategy.snapshot_state(),
        }

    def _restore_checkpoint(self, checkpoint: PlatformCheckpoint) -> int:
        state = pickle.loads(checkpoint.payload)
        self._event_index = state["event_index"]
        self.clock = SimulationClock(self.instance.start_time)
        self.clock.advance_to(max(state["now"], self.instance.start_time))
        self._workers = {
            worker.worker_id: _WorkerRuntime(
                worker=worker,
                busy_until=busy_until,
                completed=completed,
                reposition=reposition,
            )
            for worker, busy_until, completed, reposition in state["workers"]
        }
        self._pending = {task.task_id: task for task in state["pending"]}
        self._assigned_ids = set(state["assigned_ids"])
        self._wakeups = list(state["wakeups"])
        heapq.heapify(self._wakeups)
        self._last_plan_time = state["last_plan_time"]
        self._last_boundary_wakeup = state["last_boundary_wakeup"]
        self._dirty.clear()
        self._dirty.worker_ids.update(state["dirty_workers"])
        self._dirty.task_ids.update(state["dirty_tasks"])
        self.metrics = state["metrics"]
        self._last_plans = dict(state["last_plans"])
        self.strategy.restore_state(state["strategy"])
        self._next_seq = state["seq"]
        return state["seq"]

    # ------------------------------------------------------------------ #
    def _advance_fleet(self, record: EpochRecord) -> Tuple[List[Worker], List[Task]]:
        """Advance repositioning, drop offline workers, expire tasks (all
        noted dirty); return the idle workers and open tasks at ``now``."""
        now = record.now
        dirty = self._dirty
        idle_workers: List[Worker] = []
        offline: List[int] = []
        for wid, runtime in self._workers.items():
            if runtime.reposition is not None:
                # The worker moves along its repositioning leg, so its
                # location at this decision point differs from the one the
                # previous plan was computed with.
                dirty.note_worker(wid)
                runtime.advance_reposition(now)
            if now >= runtime.worker.off_time:
                offline.append(wid)
            elif now >= runtime.busy_until and runtime.worker.is_available(now):
                idle_workers.append(runtime.worker)  # ``is_idle``, one call
        for wid in offline:
            del self._workers[wid]
            dirty.note_worker(wid)
            if self._carryover_enabled:
                self._last_plans.pop(wid, None)
        pending_tasks: List[Task] = []
        expired: List[int] = []
        for tid, task in self._pending.items():
            if task.is_expired(now):
                expired.append(tid)
            elif task.is_available(now):
                pending_tasks.append(task)
        for tid in expired:
            del self._pending[tid]
            dirty.note_task(tid)
        record.expired = len(expired)
        return idle_workers, pending_tasks
