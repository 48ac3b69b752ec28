"""The TPA plan pipeline (Alg. 4) with dirty-region reuse across epochs.

One implementation of candidates → partition → decompose → dispatch →
merge serves every caller.  Algorithm 3 replans at every arrival event,
yet a single event usually changes exactly one worker or one task, so the
engine caches reachable sets, maximal sequences, the dependency structure
and the per-component search results between epochs and recomputes only
the dirty region.  A *full* replan is the same code on an empty cache:
``incremental_replan=False``, TVF experience collection and the
self-check repair all run a throw-away engine whose state is discarded
afterwards.  Reuse rests on three structural facts:

* **Monotone time predicates.**  For a fixed worker/task pair every
  reachability and sequence-validity predicate has the form
  ``now + legs < bound`` with ``legs`` and ``bound`` time-invariant, so a
  true predicate can only flip false, and does so at a computable boundary.
  A worker's reachable set and maximal-sequence set therefore stay
  *literally identical* until the minimum such boundary — the horizons
  reported by :func:`~repro.assignment.reachability.
  reachable_tasks_with_horizon` and :func:`~repro.assignment.sequences.
  maximal_valid_sequences`.  Time-dependent travel models hold ``legs``
  constant only inside one speed-profile window, so those horizons are
  additionally clamped to the model's ``next_profile_boundary`` and the
  engine re-latches the window via ``begin_epoch(now)`` at every call —
  inside a window the model is literally static, and at a boundary
  everything stale is recomputed.
* **Geometric locality.**  A task can enter a worker's reachable set only
  from inside the Euclidean ball covering ``(hops + 1)`` reach-length
  travel legs around the worker — the travel model's
  :meth:`~repro.spatial.travel.TravelModel.reach_bound` converts the
  travel-distance budget into that Euclidean radius (identity for the
  built-in models; a dilation-corrected radius for road networks; models
  without a usable bound return ``inf`` and fall back to testing every
  worker, which is always sound).  The ball only pre-filters: a worker
  whose entry is otherwise valid is refreshed only if an arrival is
  directly reachable or within reach (``<=``) of a cached uncapped
  member, since members alone feed the capped set, ``uncapped_ids`` and
  the horizon.  A task removal dirties only the workers whose uncapped
  reachable set contained it.
* **Time-free search.**  The branch-and-bound outcome of a partition
  component depends only on the component's tree, its workers' sequence
  id-sets and the availability of the referenced task ids — never on
  ``now`` or on tasks outside those sequences — so an untouched component
  replays its previous selections (and node counts) verbatim.  The
  TVF-guided search additionally reads global snapshot statistics, so
  guided components are reused only while the active task set is unchanged.
  A one-worker component needs no search at all: its branch-and-bound
  answer is the worker's longest fully-available candidate, first in
  ``Q_w`` order on ties, found in one expansion
  (:func:`~repro.assignment.dfsearch.dfsearch_one_worker`).  Decompose
  takes that closed form whenever the component's engine is ``"bnb"``, no
  experience is being collected and the deadline has not passed; the
  answer is counted, merged and cached exactly as the search's would be.

Dependency components are maintained, not rebuilt.  Workers depend on each
other iff their *capped* reachable sets share a task, so the engine keeps a
task → holders map over those sets (not the uncapped ``_task_owners``) and
a worker → component map, and each epoch re-derives (BFS over the holders)
only the components of workers whose capped set changed, or who joined or
left, absorbing whatever they now link to: the list plus one singleton per
worker with an empty capped set (kept apart, in ``_empty``) equals
``connected_components(build_adjacency(...))`` over the snapshot.  A kept
component keeps its cache *hit* until a member's ``version`` is bumped at
refresh, so an untouched one costs a lookup; one that re-forms or lost its
hit falls back to the cache keyed by member set and member versions.  An
``_empty`` worker is counted as its search would be (one component, its
engine's nodes for an empty one-worker tree): searched when its ``version``
moved since its last count, reused otherwise, skipped past the deadline.

Cost model.  Per call there is one identity pass over the snapshot (an
unchanged frozen ``Worker`` costs one ``is`` check; an equal-field
replacement one field compare, after which its entry holds the new object)
and one walk over the components with a candidate (a kept hit costs an
attribute read; an ``_empty`` worker, nothing).  The pass also runs the
arrival ball for workers not already due a refresh, and emits the ordered
work list.  Everything else — the k×T matrix, reachability and sequence
refreshes, component re-derivation and job extraction — is proportional to
the work list and the searched components; departures and absences come
from set differences.  A searched one-worker component costs one pass over
its ``Q_w`` and builds no subtree, job or span.  A component builds its
partition subtree on its first job and keeps it until it is retired: its
members' capped reachable sets, hence its dependency edges, cannot change
while it lives, so a component re-searched after a version bump pays only
for the job and the search.

Equivalence contract: for any sequence of ``plan()`` calls with
non-decreasing ``now``, a warm engine returns bit-for-bit the outcome an
empty-cache engine produces for each call in isolation — same selections
in the same order, same planned-task and component counts, same
nodes-expanded diagnostics.  ``tests/assignment/test_vectorized_equivalence.py``
asserts this on randomized snapshot streams and full platform replays, and
pins the empty-cache outcome to the scalar oracle in
``tests/assignment/reference_pipeline.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import sqrt
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.assignment.dfsearch import (
    DFSearchResult,
    adaptive_node_budget,
    dfsearch_one_worker,
)
from repro.assignment.executor import (
    ComponentJob,
    ComponentResult,
    deadline_expired,
    empty_worker_nodes,
    run_component_job,
)
from repro.assignment.fast_partition import build_adjacency, build_component_subtree
from repro.assignment.reachability import (
    _REACH_EPS,
    is_reachable,
    reachable_tasks_with_horizon,
    vector_kernel_pays,
)
from repro.assignment.sequences import maximal_valid_sequences
from repro.assignment.tree import PartitionNode
from repro.core.assignment import Assignment, WorkerPlan
from repro.core.sequence import TaskSequence
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.travel_matrix import TravelMatrix

#: Transitive-expansion rounds of the planner's reachability (its default).
_HOPS = 1

#: Component-cache housekeeping: once the cache outgrows the size bound,
#: entries not referenced for the TTL (in epochs) are dropped.
_COMPONENT_CACHE_MAX = 4096
_COMPONENT_CACHE_TTL = 64

#: Self-healing diagnostics (invariant violations and cache repairs).
#: Child of ``repro.resilience`` so resilience-wide log configuration
#: (and the chaos-test captures pinned to that name) still applies.
_LOG = logging.getLogger("repro.resilience.selfheal")


#: The degradation ladder, best rung first.  Each planning epoch is served
#: by exactly one rung: ``full`` — every component solved to its normal
#: (budgeted) answer; ``partial`` — at least one component search was cut
#: by the wall-clock deadline and returned its best anytime answer;
#: ``greedy`` — the deadline had already expired before some component's
#: search started, so that component was filled by the deterministic
#: first-fit fallback; ``carryover`` — the platform kept a worker's
#: previous still-valid plan because the degraded plan left it empty.
DEGRADATION_RUNGS: Tuple[str, ...] = ("full", "partial", "greedy", "carryover")


def greedy_component_fill(
    worker_ids: Sequence[int],
    sequences_by_worker: Dict[int, List[TaskSequence]],
    available_ids: Set[int],
) -> List[Tuple[int, Tuple[int, ...]]]:
    """Deadline fallback below any search: first-fit over ``Q_w``.

    Walks the component's workers in order and gives each its first
    candidate sequence that is fully available, removing the chosen tasks
    from ``available_ids`` (mutated in place).  O(sum |Q_w|) with no
    search at all — the "greedy strategy for still-unplanned components"
    rung of the degradation ladder.  Deterministic given its inputs, but
    *which* components land here depends on wall-clock, so results from
    this path are never cached.
    """
    selections: List[Tuple[int, Tuple[int, ...]]] = []
    for worker_id in worker_ids:
        chosen: Tuple[int, ...] = ()
        for sequence in sequences_by_worker.get(worker_id, []):
            ids = sequence.task_id_set
            if ids and ids <= available_ids:
                chosen = sequence.task_ids
                available_ids -= ids
                break
        selections.append((worker_id, chosen))
    return selections


@dataclass
class PlanningOutcome:
    """Planner output: the assignment plus search diagnostics.

    The ``reused_* / recomputed_* / searched_*`` counters describe how much
    of the epoch was served from cache; a plan on an empty cache reports
    everything as recomputed/searched.
    """

    assignment: Assignment
    planned_tasks: int
    nodes_expanded: int
    num_components: int
    experience: List = field(default_factory=list)
    reused_workers: int = 0
    recomputed_workers: int = 0
    reused_components: int = 0
    searched_components: int = 0
    #: Worst degradation rung that served this epoch (``"full"`` when no
    #: deadline interfered; the platform may still upgrade the ladder to
    #: ``"carryover"`` — see :data:`DEGRADATION_RUNGS`).
    rung: str = "full"
    #: True iff any component's answer was degraded by the wall-clock
    #: deadline (``rung`` is ``"partial"`` or ``"greedy"``).
    deadline_hit: bool = False
    #: Invariant-check repairs performed while producing this outcome
    #: (each one is a cache drop + a replan on an empty cache).
    repairs: int = 0


@dataclass
class DirtySet:
    """Ids of workers / tasks that changed since the last planning call.

    The platform tags every decision point with the entities mutated since
    the previous plan — arrivals, expiries, dispatches, repositioning moves,
    offline transitions — and hands the set to the strategy before asking
    for a plan.  The incremental engine treats hinted ids as *forced
    dirty*: hints can only widen the recompute region, never narrow it, so
    stale or over-complete hints are harmless; the engine's own snapshot
    diff remains the correctness backstop.
    """

    worker_ids: Set[int] = field(default_factory=set)
    task_ids: Set[int] = field(default_factory=set)

    def note_worker(self, worker_id: int) -> None:
        self.worker_ids.add(worker_id)

    def note_task(self, task_id: int) -> None:
        self.task_ids.add(task_id)

    def merge(self, other: "DirtySet") -> None:
        self.worker_ids.update(other.worker_ids)
        self.task_ids.update(other.task_ids)

    def clear(self) -> None:
        self.worker_ids.clear()
        self.task_ids.clear()

    def __bool__(self) -> bool:
        return bool(self.worker_ids or self.task_ids)


def _worker_fingerprint(worker: Worker) -> tuple:
    """Every worker attribute any pipeline stage reads."""
    return (
        worker.location.x,
        worker.location.y,
        worker.reachable_distance,
        worker.on_time,
        worker.off_time,
        worker.speed,
        worker.windows,
    )


def _worker_unchanged(fingerprint: tuple, worker: Worker) -> bool:
    """``fingerprint == _worker_fingerprint(worker)`` without building the
    tuple — the identity pass runs it on every new ``Worker`` object a
    snapshot hands over, and a 7-tuple per compare was pure
    garbage-collector load.  Field order must mirror
    :func:`_worker_fingerprint`."""
    location = worker.location
    return (
        fingerprint[0] == location.x
        and fingerprint[1] == location.y
        and fingerprint[2] == worker.reachable_distance
        and fingerprint[3] == worker.on_time
        and fingerprint[4] == worker.off_time
        and fingerprint[5] == worker.speed
        and fingerprint[6] == worker.windows
    )


def _task_fingerprint(task: Task) -> tuple:
    """Every task attribute any pipeline stage reads."""
    return (
        task.location.x,
        task.location.y,
        task.publication_time,
        task.expiration_time,
        task.predicted,
    )


def _task_unchanged(fingerprint: tuple, task: Task) -> bool:
    """Allocation-free twin of ``fingerprint == _task_fingerprint(task)``
    (same contract as :func:`_worker_unchanged`)."""
    location = task.location
    return (
        fingerprint[0] == location.x
        and fingerprint[1] == location.y
        and fingerprint[2] == task.publication_time
        and fingerprint[3] == task.expiration_time
        and fingerprint[4] == task.predicted
    )


@dataclass
class _WorkerEntry:
    """Cached per-worker pipeline state (reachability + sequences)."""

    fingerprint: tuple
    #: The (frozen) ``Worker`` the fingerprint was last checked against:
    #: ``entry.worker is worker`` means unchanged without a field compare.
    worker: Worker
    #: Capped reachable set — what feeds the sequence enumerator and the
    #: dependency graph.
    reachable: List[Task]
    reachable_ids: Tuple[int, ...]
    #: Uncapped reachable ids: every task whose *presence* influences the
    #: output (hop anchors included); a removal inside this set dirties the
    #: worker even when the removed task was cut by the distance cap.
    uncapped_ids: FrozenSet[int]
    reach_horizon: float
    sequences: List[TaskSequence]
    seq_tuples: Tuple[Tuple[int, ...], ...]
    #: ``seq_tuples`` as a frozenset, kept in lockstep: the self-check
    #: probes candidate membership once per planned worker per epoch, and
    #: the linear tuple scan was measurable at platform scale.
    seq_set: FrozenSet[Tuple[int, ...]]
    seq_horizon: float
    #: True when the reachable set came from the predicted-task fallback
    #: (empty real reachable set with predicted tasks in the snapshot).
    fallback: bool
    #: Bumped whenever the worker's plan-relevant state changes (location /
    #: window fingerprint, reachable ids, or sequence id-tuples).
    version: int
    #: Last epoch this worker appeared in a snapshot, stamped when it
    #: leaves one (drives eviction of permanently departed workers;
    #: returning workers are re-dirtied by the ``_last_present`` rule
    #: regardless).
    last_seen: int = 0
    #: ``(version, task epoch or 0)`` of its last count as an ``_empty`` worker.
    counted: tuple = ()


@dataclass
class _ComponentEntry:
    """Cached search result of one dependency component."""

    versions: Dict[int, int]
    selections: Tuple[Tuple[int, Tuple[int, ...]], ...]
    nodes_expanded: int
    #: Which engine produced the cached result — ``"tvf"`` or ``"bnb"``.
    #: The engines differ in selections and node counts, so a cached
    #: selection is replayed only for the engine that produced it.
    mode: str
    #: Guided (TVF) searches read global snapshot statistics, so their
    #: results are reusable only while the active task set is unchanged.
    task_epoch: int
    last_used: int


class _Component:
    """One dependency component, kept across epochs while it is untouched.

    A component lives from the epoch it forms to the epoch a member's
    capped reachable set changes (or a member leaves), when
    ``_update_components`` retires it.  Its members' adjacency is
    therefore fixed for its whole life, and so is its partition subtree:
    built on the first search that needs it and never rebuilt.
    """

    __slots__ = ("members", "hit", "root")

    def __init__(self, members: List[int]) -> None:
        #: Sorted worker ids.
        self.members = members
        #: The cached result this component last replayed or produced;
        #: dropped when a member's version is bumped.
        self.hit: Optional[_ComponentEntry] = None
        #: The component's partition subtree, once a search has built it.
        self.root: Optional[PartitionNode] = None


class _RefreshInputs(NamedTuple):
    """What every worker refresh of one plan call shares."""

    now: float
    real: List[Task]
    active: List[Task]
    #: The epoch's k×T matrix — the k workers due a reachability refresh
    #: over ``active`` — with the columns of ``real`` in it; ``None`` when
    #: the snapshot is too small to pay for NumPy (scalar kernel).
    matrix: Optional[TravelMatrix]
    real_cols: Optional[np.ndarray]


class IncrementalPlanEngine:
    """The plan pipeline and its cross-epoch caches, under :class:`TaskPlanner`.

    The engine owns no policy: caps and search configuration all come from
    the planner it serves.  A recomputed region goes through the same code
    an empty-cache plan runs, so it is bit-identical to a full replan by
    construction; a reused region is bit-identical by the
    monotonicity/locality/time-free arguments in the module docstring.
    """

    def __init__(self, planner) -> None:
        self.planner = planner
        self.invalidate()

    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cache (fresh run, config change, or time regression)."""
        self._worker_entries: Dict[int, _WorkerEntry] = {}
        self._task_refs: Dict[int, Task] = {}
        self._task_fps: Dict[int, tuple] = {}
        #: Inverted index: task id -> worker ids whose uncapped reachable
        #: set contains it (drives removal invalidation).
        self._task_owners: Dict[int, Set[int]] = {}
        self._components: Dict[FrozenSet[int], _ComponentEntry] = {}
        #: Maintained components (module docstring): the capped reachable
        #: ids each snapshot worker is registered with, and their inverse.
        self._registered: Dict[int, Tuple[int, ...]] = {}
        self._holders: Dict[int, Set[int]] = {}
        self._component_of: Dict[int, _Component] = {}
        self._component_list: List[_Component] = []
        #: Workers with an empty capped set (module docstring) and their state.
        self._empty: Set[int] = set()
        self._empty_recount = False
        self._empty_nodes: Optional[int] = None
        self._last_present: Set[int] = set()
        self._forced_workers: Set[int] = set()
        self._forced_tasks: Set[int] = set()
        self._task_epoch = 0
        #: Interned active-task id frozenset, valid for one ``_task_epoch``
        #: (membership can only change through the snapshot diff, which
        #: bumps the epoch): quiet epochs reuse one allocation instead of
        #: rebuilding an O(T) frozenset per plan call.
        self._available_ids: Optional[FrozenSet[int]] = None
        self._available_ids_epoch = -1
        #: Next speed-profile boundary of the travel model; crossing it is
        #: treated like a task-set change for the guided (TVF) search,
        #: whose snapshot statistics read travel costs (-inf so a fresh
        #: engine latches the first window unconditionally).
        self._next_travel_boundary = float("-inf")
        self._epoch = 0
        self._last_now = float("-inf")
        self._context_key: Optional[tuple] = None
        #: Strong references to the TVF / travel model the caches were built
        #: against — identity checks that (unlike ``id()``) cannot alias a
        #: new object allocated at a freed address.
        self._context_tvf: Optional[object] = None
        self._context_travel: Optional[object] = None

    def note_dirty(self, dirty: DirtySet) -> None:
        """Force the hinted entities dirty at the next planning call."""
        self._forced_workers.update(dirty.worker_ids)
        self._forced_tasks.update(dirty.task_ids)

    # ------------------------------------------------------------------ #
    def plan(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        deadline: Optional[float] = None,
        collect_experience: bool = False,
        self_check: bool = True,
    ) -> PlanningOutcome:
        """The pipeline behind ``TaskPlanner.plan`` (lines 2-10 of Alg. 4).

        ``deadline`` is an absolute ``perf_counter`` cutoff forwarded to
        every fresh component search; cache replays are effectively free
        and never consult it.  Deadline-degraded component answers are
        wall-clock-dependent, so they are *never* stored in the component
        cache — the next epoch retries the search at full quality.

        ``collect_experience`` makes every searched component record its
        ``(state, action, opt)`` trace (TVF guidance bypassed, results not
        cached); a replayed component carries none, so the planner runs
        it on an empty throw-away engine.  ``self_check=False`` skips the
        post-replan invariant check — the repair run's own guard against
        recursion.
        """
        planner = self.planner
        config = planner.config
        travel = planner.travel
        obs = planner.obs
        # Latch the travel model's speed-profile window for this decision
        # point (no-op for static models): every cost computed below — and
        # every cached cost being reused, whose horizons were clamped to
        # the previous window — now refers to one consistent multiplier.
        travel.begin_epoch(now)
        active = [task for task in tasks if not task.is_expired(now)]
        if not workers or not active:
            return PlanningOutcome(Assignment(), 0, 0, 0)
        workers_by_id = {worker.worker_id: worker for worker in workers}
        tasks_by_id = {task.task_id: task for task in active}

        tvf = planner.tvf
        context_key = (
            config.max_reachable,
            config.max_sequence_length,
            config.max_sequences,
            config.node_budget,
            config.per_leg_pricing,
            config.use_tvf,
            config.tvf_min_workers,
            config.use_partition,
            getattr(tvf, "fit_version", None),
        )
        if (
            now < self._last_now
            or context_key != self._context_key
            or tvf is not self._context_tvf
            or travel is not self._context_travel
        ):
            self.invalidate()
            self._context_key = context_key
            self._context_tvf = tvf
            self._context_travel = travel
        self._last_now = now
        self._epoch += 1
        if now >= self._next_travel_boundary:
            # Crossed into a new speed-profile window: worker entries are
            # already covered by their clamped horizons, but guided (TVF)
            # component results read travel-cost statistics and must not be
            # replayed across windows — bump the epoch their reuse is
            # keyed on.  Static models report inf and never take this path
            # after the first call.
            self._task_epoch += 1
            self._next_travel_boundary = travel.next_profile_boundary(now)

        real = [task for task in active if not task.predicted]
        entries = self._worker_entries

        with obs.span("diff") as diff_span:
            # ---- snapshot diff (object-identity fast path, field fallback) #
            added: List[Task] = []
            removed: Set[int] = set()
            for task in active:
                tid = task.task_id
                prev = self._task_refs.get(tid)
                if prev is None:
                    added.append(task)
                elif (
                    prev is not task
                    and not _task_unchanged(self._task_fps[tid], task)
                ):
                    removed.add(tid)
                    added.append(task)
            for tid in list(self._task_refs):
                if tid not in tasks_by_id:
                    removed.add(tid)
                    del self._task_refs[tid]
                    del self._task_fps[tid]
            for task in added:
                self._task_refs[task.task_id] = task
                self._task_fps[task.task_id] = _task_fingerprint(task)
            if added or removed:
                self._task_epoch += 1

            # ---- dirty-worker collection -------------------------------- #
            dirty: Set[int] = set(self._forced_workers)
            for tid in removed | self._forced_tasks:
                owners = self._task_owners.get(tid)
                if owners:
                    dirty.update(owners)
            # Workers absent from the previous snapshot may have missed
            # arrivals while away; their cache cannot be trusted.
            dirty |= workers_by_id.keys() - self._last_present
            self._forced_workers.clear()
            self._forced_tasks.clear()
            diff_span.set(added=len(added), removed=len(removed), dirty=len(dirty))

        # ---- per-worker refresh ------------------------------------------ #
        registered = self._registered
        # Workers whose capped reachable set is not the registered one.
        touched: List[int] = []
        with obs.span("refresh") as refresh_span:
            # The identity pass: the work list holds, in snapshot order,
            # every worker due a refresh and whether its own fingerprint
            # changed or it is new (``None``: sequences only).  ``stale``
            # are the workers due a reachability refresh.
            work: List[Tuple[Worker, Optional[bool]]] = []
            stale: List[Worker] = []
            # Ball hits the exact arrival test cleared (entry kept as is).
            skipped = 0
            any_predicted = any(task.predicted for task in added)
            arrivals = [(task, task.location.x, task.location.y) for task in added]
            reach_bound = travel.reach_bound
            for worker in workers:
                wid = worker.worker_id
                entry = entries.get(wid)
                if entry is None or (
                    entry.worker is not worker
                    and not _worker_unchanged(entry.fingerprint, worker)
                ):
                    stale.append(worker)
                    work.append((worker, True))
                    continue
                entry.worker = worker  # re-latch an equal-field replacement
                if wid in dirty or now >= entry.reach_horizon:
                    stale.append(worker)
                    work.append((worker, False))
                    continue
                if added:
                    # Predicted tasks only feed the empty-reachable
                    # fallback; a worker on the real pipeline with a
                    # non-empty set cannot be affected by one.
                    ignores_predicted = (
                        any_predicted and entry.reachable_ids and not entry.fallback
                    )
                    # Euclidean check against the model's reach bound: sound
                    # for any travel model honouring the reach_bound
                    # contract (identity for the Euclidean default).
                    radius = reach_bound((_HOPS + 1.0) * worker.reachable_distance) + 1e-6
                    wx, wy = worker.location.x, worker.location.y
                    near = []
                    for task, x, y in arrivals:  # ``euclidean_distance``, inline
                        dx, dy = wx - x, wy - y
                        if sqrt(dx * dx + dy * dy) <= radius and not (task.predicted and ignores_predicted):
                            near.append(task)
                    if near:
                        if self._arrival_enters(worker, entry, near, now, tasks_by_id):
                            stale.append(worker)
                            work.append((worker, False))
                            continue
                        skipped += 1
                if now >= entry.seq_horizon:
                    work.append((worker, None))
            matrix = real_cols = None
            if stale and vector_kernel_pays(len(active)):
                # One k×T matrix serves every refresh of the epoch (k = W on
                # an empty cache).  Rows are bit-identical to the scalar
                # kernel's floats, so the choice moves cost only.
                matrix = TravelMatrix(stale, active, travel, now=now)
                real_cols = matrix.task_cols(real)
            inputs = _RefreshInputs(now, real, active, matrix, real_cols)
            for worker, moved in work:
                if moved is None:
                    self._refresh_sequences(worker, now)
                    continue
                entry = self._refresh_worker(
                    worker, entries.get(worker.worker_id), inputs, force_bump=moved
                )
                if registered.get(worker.worker_id) != entry.reachable_ids:
                    touched.append(worker.worker_id)
            recomputed_workers = len(work)
            reused_workers = len(workers) - recomputed_workers
            refresh_span.set(
                reused=reused_workers,
                recomputed=recomputed_workers,
                skipped=skipped,
                rows=len(stale) if matrix is not None else 0,
                tasks=len(active),
            )
        if obs.enabled:
            obs.count("incremental.reused_workers", reused_workers)
            obs.count("incremental.recomputed_workers", recomputed_workers)

        # ---- components: reuse untouched, search the rest ---------------- #
        with obs.span("decompose") as decompose_span:
            rebuilt = self._update_components(touched, workers_by_id)
            components = self._component_list
            # ---- decompose: keep cache hits, extract jobs for the rest ---- #
            # A component that replays its hit gets no job; a one-worker
            # B&B component is solved here in closed form (``closed``);
            # ``job_of`` maps every other one to the index of its
            # ComponentJob.  Everything a job needs (subtree, budget,
            # candidate sets) is fixed here, before any search runs.
            use_guided = (
                config.use_tvf and tvf is not None and not collect_experience
            )
            if self._available_ids_epoch != self._task_epoch:
                self._available_ids = frozenset(tasks_by_id)
                self._available_ids_epoch = self._task_epoch
            available_ids = self._available_ids
            task_epoch = self._task_epoch
            # Past the deadline every component takes the job path, whose
            # runner skips it into the greedy rung.
            expired = deadline_expired(deadline)
            closed_form = not collect_experience and not expired
            jobs: List[ComponentJob] = []
            job_of: Dict[_Component, int] = {}
            closed: Dict[_Component, DFSearchResult] = {}
            for held in components:
                component = held.members
                guided = use_guided and len(component) >= config.tvf_min_workers
                cached = held.hit
                if cached is not None and not guided and cached.mode == "bnb":
                    continue  # a kept component with a still-valid hit
                mode = "tvf" if guided else "bnb"
                if cached is None:
                    # Re-formed, or a member's version moved: fall back to
                    # the member-set cache, valid for unchanged versions.
                    cached = self._components.get(frozenset(component))
                    if cached is not None and cached.versions != {
                        wid: entries[wid].version for wid in component
                    }:
                        cached = None
                if (
                    cached is not None
                    and cached.mode == mode
                    and (not guided or cached.task_epoch == task_epoch)
                ):
                    held.hit = cached
                    continue
                if closed_form and mode == "bnb" and len(component) == 1:
                    wid = component[0]
                    closed[held] = dfsearch_one_worker(
                        wid, entries[wid].sequences, available_ids
                    )
                    continue
                root = held.root
                if root is None:
                    if config.use_partition:
                        root = build_component_subtree(
                            build_adjacency(
                                {wid: entries[wid].reachable for wid in component}
                            ),
                            component,
                        )
                    else:
                        root = PartitionNode(workers=list(component))
                    held.root = root
                sequences_by_worker = {wid: entries[wid].sequences for wid in component}
                num_sequences = sum(map(len, sequences_by_worker.values()))
                # The per-component budget is a pure function of the
                # component's workers and their candidate sets, so replays
                # stay bit-for-bit; the guided search ignores it.
                budget = 0
                if not guided:
                    budget = adaptive_node_budget(
                        config.node_budget, len(component), num_sequences
                    )
                job = ComponentJob(
                    index=len(jobs),
                    mode=mode,
                    root=root,
                    worker_ids=tuple(component),
                    sequences_by_worker=sequences_by_worker,
                    workers_by_id=workers_by_id,
                    task_ids=available_ids,
                    node_budget=budget,
                    collect_experience=collect_experience,
                    tasks=active if guided else None,
                    tvf=tvf if guided else None,
                    num_sequences=num_sequences,
                )
                job_of[held] = len(jobs)
                jobs.append(job)
            # ``_empty`` workers due a count: the work list holds every moved
            # version, unless a deadline skip or (guided) a task change is due.
            empty = self._empty
            empty_guided = use_guided and config.tvf_min_workers <= 1
            stamp = task_epoch if empty_guided else 0
            full = self._empty_recount or empty_guided
            pending = empty if full else [w.worker_id for w, _ in work if w.worker_id in empty]
            due = [w for w in pending if entries[w].counted != (entries[w].version, stamp)]
            decompose_span.set(
                components=len(components) + len(empty),
                searched=len(jobs),
                closed=len(closed),
                empty=len(empty),
                empty_searched=len(due),
                rebuilt=rebuilt,
            )

        # ---- dispatch: in process, in submission order ------------------- #
        results: List[ComponentResult] = []
        with obs.span("dispatch", jobs=len(jobs)):
            for job in jobs:
                if not obs.enabled:
                    results.append(run_component_job(job, deadline))
                    continue
                with obs.span(
                    "component.search",
                    index=job.index,
                    mode=job.mode,
                    sequences=job.num_sequences,
                ) as search_span:
                    result = run_component_job(job, deadline)
                    search_span.set(nodes=result.nodes_expanded, skipped=result.skipped)
                results.append(result)

        # ---- merge: component order, cache writes applied here ------------ #
        nodes_expanded = 0
        reused_components = 0
        searched_components = 0
        rung_level = 0
        experience: List = []
        epoch_selections: List[Tuple[int, Tuple[int, ...]]] = []
        with obs.span("merge") as merge_span:
            for held in components:
                job_index = job_of.get(held)
                if job_index is None:
                    solved = closed.get(held)
                    if solved is None:
                        cached = held.hit
                        selections = cached.selections
                        nodes = cached.nodes_expanded
                        cached.last_used = self._epoch
                        reused_components += 1
                    else:
                        # A closed-form answer is a search result like any
                        # other: counted, and cached as a B&B search's.
                        selections = tuple(solved.selections)
                        nodes = solved.nodes_expanded
                        searched_components += 1
                        self._remember(held, selections, nodes, "bnb")
                else:
                    result = results[job_index]
                    job = jobs[job_index]
                    searched_components += 1
                    if result.skipped:
                        # Budget exhausted before this component's search
                        # started: greedy rung (first-fit over Q_w),
                        # uncached — the result depends on wall-clock, not
                        # just the component state.  Sequential across
                        # components (each fill consumes from what earlier
                        # components left), so it runs here at merge time,
                        # in component order.
                        used_ids = {tid for _, ids in epoch_selections for tid in ids}
                        selections = tuple(
                            greedy_component_fill(
                                list(job.worker_ids),
                                job.sequences_by_worker,
                                set(tasks_by_id) - used_ids,
                            )
                        )
                        nodes = 0
                        rung_level = max(rung_level, 2)
                    else:
                        selections = result.selections
                        nodes = result.nodes_expanded
                        experience.extend(result.experience)
                        if result.deadline_hit:
                            rung_level = max(rung_level, 1)
                        elif not collect_experience:
                            # Deadline-cut answers are anytime partials tied
                            # to this epoch's wall-clock; caching one would
                            # replay a degraded plan on healthy future
                            # epochs.  Experience traces change the search's
                            # node counts, so those stay out as well.
                            self._remember(held, selections, nodes, job.mode)
                nodes_expanded += nodes
                epoch_selections.extend(selections)
            # ``_empty`` workers, counted as their searches or replays.
            reused_components += len(empty) - len(due)
            searched_components += len(due)
            self._empty_recount = expired and bool(due)
            if self._empty_recount:
                rung_level = 2  # the greedy rung, as a skipped job's
            elif not collect_experience:
                for wid in due:
                    entries[wid].counted = (entries[wid].version, stamp)
            if empty and self._empty_nodes is None:
                worker, mode = workers_by_id[next(iter(empty))], "tvf" if empty_guided else "bnb"
                self._empty_nodes = empty_worker_nodes(mode, worker, config.node_budget, tvf)
            solved = len(empty) - (len(due) if self._empty_recount else 0)
            nodes_expanded += solved * (self._empty_nodes or 0)
            merge_span.set(reused=reused_components, searched=searched_components)
        if obs.enabled:
            obs.count("incremental.reused_components", reused_components)
            obs.count("incremental.searched_components", searched_components)

        # ---- post-replan invariant check (self-healing) ------------------- #
        # Deliberately not wrapped in a span: the check is micro-scale on
        # every healthy epoch and a per-epoch span would be pure overhead
        # budget; the interesting case (a violation) emits an instant.
        self_check = self_check and config.self_check
        if self_check:
            violation = self._find_violation(
                epoch_selections, tasks_by_id, workers_by_id
            )
            if violation is not None:
                return self._repair(workers, tasks, now, deadline, violation)
        try:
            assignment = Assignment()
            planned = 0
            for worker_id, task_ids in epoch_selections:
                if not task_ids:
                    continue
                worker = workers_by_id[worker_id]
                sequence_tasks = tuple(tasks_by_id[tid] for tid in task_ids)
                assignment.add(WorkerPlan(worker, TaskSequence(worker, sequence_tasks)))
                planned += len(task_ids)
        except (KeyError, ValueError) as exc:
            # Backstop behind the cheap checks: any corrupted cache state
            # that still slips into plan construction heals the same way.
            if not self_check:
                raise
            return self._repair(workers, tasks, now, deadline, repr(exc))

        if len(self._components) > _COMPONENT_CACHE_MAX:
            cutoff = self._epoch - _COMPONENT_CACHE_TTL
            unused = [k for k, e in self._components.items() if e.last_used < cutoff]
            for k in unused:
                del self._components[k]
        # Evict workers that left the stream long ago (offline, or planned
        # by a different caller): their entries and task-ownership
        # registrations would otherwise grow with every worker ever seen.
        # A worker's ``last_seen`` is stamped as it leaves, before the check.
        for wid in self._last_present - workers_by_id.keys():
            entries[wid].last_seen = self._epoch - 1
        if len(entries) > max(64, 2 * len(workers)):
            cutoff = self._epoch - _COMPONENT_CACHE_TTL
            departed = {
                wid
                for wid, entry in entries.items()
                if entry.last_seen < cutoff and wid not in workers_by_id
            }
            if departed:
                for wid in departed:
                    self._drop_worker(wid)
                # A returning worker's entry restarts at version 1, so a
                # cached result naming a dropped worker could match it.
                for key in [k for k in self._components if not departed.isdisjoint(k)]:
                    del self._components[key]

        self._last_present = set(workers_by_id)

        return PlanningOutcome(
            assignment=assignment,
            planned_tasks=planned,
            nodes_expanded=nodes_expanded,
            num_components=len(components) + len(empty),
            experience=experience,
            reused_workers=reused_workers,
            recomputed_workers=recomputed_workers,
            reused_components=reused_components,
            searched_components=searched_components,
            rung=DEGRADATION_RUNGS[rung_level],
            deadline_hit=rung_level > 0,
        )

    # ------------------------------------------------------------------ #
    # Self-healing: post-replan invariants and the repair path
    # ------------------------------------------------------------------ #
    def _find_violation(
        self,
        selections: List[Tuple[int, Tuple[int, ...]]],
        tasks_by_id: Dict[int, Task],
        workers_by_id: Dict[int, Worker],
    ) -> Optional[str]:
        """Cheap O(selected + workers) feasibility sweep over the epoch plan.

        Checks exactly the invariants any healthy epoch satisfies by
        construction: ``_empty`` and the components hold as many workers as
        the snapshot (one in both, or a departed one left behind, breaks the
        count), every planned worker appears once, is in the snapshot and
        not in ``_empty``, every selected task is open and selected once, every
        non-empty selection is one of the worker's cached candidate
        sequences, and no cached horizon has gone NaN or negative (a NaN
        horizon makes the ``now >= horizon`` refresh test permanently
        false, freezing a stale cache forever — the signature of corrupted
        travel costs).  The horizon sweep covers every cached entry, not
        just the snapshot: a frozen dormant entry would poison the plan
        the moment its worker idles again, so it is repaired on sight.
        Returns a description of the first violation, or ``None``.

        This runs on every planned epoch, so the constant factor matters:
        the placement check is lengths only, lookups are hoisted, each
        planned worker claims its snapshot slot with one ``pop`` from a
        copy of the snapshot map, and the sweep iterates the entry objects
        directly instead of probing the table per snapshot worker.
        """
        empty = self._empty
        if len(empty) + len(self._component_of) != len(workers_by_id):
            return f"{len(empty)} + {len(self._component_of)} workers placed, {len(workers_by_id)} present"
        entries = self._worker_entries
        unclaimed = workers_by_id.copy()
        seen_tasks: Set[int] = set()
        for worker_id, task_ids in selections:
            if unclaimed.pop(worker_id, None) is None:
                if worker_id in workers_by_id:
                    return f"worker {worker_id} planned twice"
                return f"planned worker {worker_id} not in snapshot"
            if worker_id in empty:
                return f"planned worker {worker_id} has nothing in reach"
            if not task_ids:
                continue
            for tid in task_ids:
                if tid in seen_tasks:
                    return f"task {tid} double-booked"
                seen_tasks.add(tid)
                if tid not in tasks_by_id:
                    return f"selected task {tid} not open"
            entry = entries.get(worker_id)
            if entry is None:
                return f"no cached state for planned worker {worker_id}"
            if task_ids not in entry.seq_set:
                return (
                    f"selection {task_ids} for worker {worker_id} "
                    "is not a cached candidate sequence"
                )
        for entry in entries.values():
            # ``not (h >= 0)`` is True for NaN as well as negatives.
            if entry.reach_horizon >= 0.0 and entry.seq_horizon >= 0.0:
                continue
            return (
                f"worker {entry.worker.worker_id} horizon corrupt "
                f"(reach={entry.reach_horizon!r}, seq={entry.seq_horizon!r})"
            )
        return None

    def _repair(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        now: float,
        deadline: Optional[float],
        violation: str,
    ) -> PlanningOutcome:
        """Heal a corrupted epoch: drop every cache, redo it on a
        throw-away engine (which shares no state with this one, and skips
        the check that sent us here), and report the repair on the
        outcome."""
        _LOG.warning(
            "incremental plan invariant violation at now=%s: %s — "
            "dropping caches and replanning from scratch",
            now,
            violation,
        )
        obs = self.planner.obs
        if obs.enabled:
            obs.count("incremental.repairs")
            obs.instant("incremental.repair", violation=violation)
        self.invalidate()
        outcome = IncrementalPlanEngine(self.planner).plan(
            workers, tasks, now, deadline=deadline, self_check=False
        )
        outcome.repairs = 1
        return outcome

    # ------------------------------------------------------------------ #
    def _refresh_worker(
        self,
        worker: Worker,
        old: Optional[_WorkerEntry],
        inputs: _RefreshInputs,
        force_bump: bool,
    ) -> _WorkerEntry:
        """Recompute a dirty worker's reachable set and sequences
        (``force_bump``: its own fingerprint changed, or it is new)."""
        planner = self.planner
        config = planner.config
        travel = planner.travel
        now, active, matrix = inputs.now, inputs.active, inputs.matrix

        reachable, uncapped_ids, reach_horizon = reachable_tasks_with_horizon(
            worker,
            inputs.real,
            now,
            travel,
            max_tasks=config.max_reachable,
            hops=_HOPS,
            matrix=matrix,
            cols=inputs.real_cols,
        )
        fallback = False
        if not reachable and len(active) != len(inputs.real):
            # Predicted tasks never displace real, currently-open tasks
            # from a worker's reachable set: a worker with no real
            # reachable task plans over the full (predicted-augmented)
            # snapshot so prediction-aware strategies can reposition it.
            fallback = True
            reachable, uncapped_ids, reach_horizon = reachable_tasks_with_horizon(
                worker,
                active,
                now,
                travel,
                max_tasks=config.max_reachable,
                hops=_HOPS,
                matrix=matrix,
            )
        reachable_ids = tuple(task.task_id for task in reachable)

        horizon_box: List[float] = []
        sequences = maximal_valid_sequences(
            worker,
            reachable,
            now,
            travel,
            max_length=config.max_sequence_length,
            max_sequences=config.max_sequences,
            matrix=matrix,
            horizon_out=horizon_box,
            per_leg=config.per_leg_pricing,
        )
        seq_tuples = tuple(sequence.task_ids for sequence in sequences)
        seq_horizon = horizon_box[0]

        version = old.version if old is not None else 0
        if (
            force_bump
            or old is None
            or old.reachable_ids != reachable_ids
            or old.seq_tuples != seq_tuples
        ):
            version += 1
            self._drop_hit(worker.worker_id)

        if old is not None:
            # Reuse the existing entry object in place: a refresh per dirty
            # worker per epoch made the dataclass churn measurable at
            # platform scale, and nothing holds an entry across epochs by
            # value — component caches key on (worker id, version), which
            # mutation preserves exactly.
            old_uncapped = old.uncapped_ids
            entry = old
            if force_bump:
                entry.fingerprint = _worker_fingerprint(worker)
                entry.worker = worker
            entry.reachable = list(reachable)
            entry.reachable_ids = reachable_ids
            entry.uncapped_ids = uncapped_ids
            entry.reach_horizon = reach_horizon
            entry.sequences = sequences
            entry.seq_tuples = seq_tuples
            entry.seq_set = frozenset(seq_tuples)
            entry.seq_horizon = seq_horizon
            entry.fallback = fallback
            entry.version = version
        else:
            old_uncapped = frozenset()
            entry = _WorkerEntry(
                fingerprint=_worker_fingerprint(worker),
                worker=worker,
                reachable=list(reachable),
                reachable_ids=reachable_ids,
                uncapped_ids=uncapped_ids,
                reach_horizon=reach_horizon,
                sequences=sequences,
                seq_tuples=seq_tuples,
                seq_set=frozenset(seq_tuples),
                seq_horizon=seq_horizon,
                fallback=fallback,
                version=version,
            )
        self._update_owners(worker.worker_id, old_uncapped, uncapped_ids)
        self._worker_entries[worker.worker_id] = entry
        return entry

    def _refresh_sequences(self, worker: Worker, now: float) -> None:
        """Re-enumerate sequences over an unchanged reachable set."""
        config = self.planner.config
        entry = self._worker_entries[worker.worker_id]
        horizon_box: List[float] = []
        sequences = maximal_valid_sequences(
            worker,
            entry.reachable,
            now,
            self.planner.travel,
            max_length=config.max_sequence_length,
            max_sequences=config.max_sequences,
            horizon_out=horizon_box,
            per_leg=config.per_leg_pricing,
        )
        seq_tuples = tuple(sequence.task_ids for sequence in sequences)
        if seq_tuples != entry.seq_tuples:
            entry.version += 1
            self._drop_hit(worker.worker_id)
        entry.sequences = sequences
        entry.seq_tuples = seq_tuples
        entry.seq_set = frozenset(seq_tuples)
        entry.seq_horizon = horizon_box[0]

    def _arrival_enters(
        self,
        worker: Worker,
        entry: _WorkerEntry,
        arrivals: List[Task],
        now: float,
        tasks_by_id: Dict[int, Task],
    ) -> bool:
        """Whether an arrival joins ``worker``'s in-horizon cached set under
        the kernel's own predicates (module docstring, "Geometric
        locality"); hop legs from every uncapped member only widen it."""
        travel = self.planner.travel
        reach = worker.reachable_distance + _REACH_EPS
        for task in arrivals:
            if is_reachable(worker, task, now, travel):
                return True
            for tid in entry.uncapped_ids:
                member = tasks_by_id.get(tid)
                if member is None or travel.distance(member.location, task.location) <= reach:
                    return True
        return False

    def _remember(
        self,
        held: _Component,
        selections: Tuple[Tuple[int, Tuple[int, ...]], ...],
        nodes: int,
        mode: str,
    ) -> None:
        """Cache a healthy search result as ``held``'s hit and under its
        member set."""
        entries = self._worker_entries
        held.hit = _ComponentEntry(
            versions={wid: entries[wid].version for wid in held.members},
            selections=selections,
            nodes_expanded=nodes,
            mode=mode,
            task_epoch=self._task_epoch,
            last_used=self._epoch,
        )
        self._components[frozenset(held.members)] = held.hit

    def _drop_hit(self, worker_id: int) -> None:
        """A member's version moved: its component's hit is void."""
        held = self._component_of.get(worker_id)
        if held is not None:
            held.hit = None

    def _update_components(self, touched: List[int], workers_by_id: Dict[int, Worker]) -> int:
        """Bring the components to this snapshot (module docstring) and
        return how many were re-derived: those of ``touched`` workers and
        of departed ones, plus whatever those now link to (or to ``_empty``)."""
        registered, holders = self._registered, self._holders
        if not touched and len(registered) == len(workers_by_id):
            return 0
        component_of, empty = self._component_of, self._empty
        retired: Set[_Component] = set()
        seeds: List[int] = []
        emptied: List[int] = []

        def reregister(worker_id: int, ids: Tuple[int, ...]) -> None:
            for tid in registered.pop(worker_id, ()):
                holders[tid].discard(worker_id)
                if not holders[tid]:
                    del holders[tid]
            empty.discard(worker_id)
            held = component_of.pop(worker_id, None)
            if held is not None and held not in retired:
                retired.add(held)
                seeds.extend(held.members)
            if worker_id in workers_by_id:
                registered[worker_id] = ids
                for tid in ids:
                    holders.setdefault(tid, set()).add(worker_id)
                (seeds if ids else emptied).append(worker_id)

        for wid in registered.keys() - workers_by_id.keys():
            reregister(wid, ())
        for wid in touched:
            reregister(wid, self._worker_entries[wid].reachable_ids)
        empty.update(emptied)

        fresh: List[_Component] = []
        for start in seeds:
            held = component_of.get(start)
            if start not in registered or start in empty or (held is not None and held not in retired):
                continue  # departed, nothing in reach, or placed by an earlier search
            members = [start]
            placed = component_of[start] = _Component(members)
            for node in members:  # grows while iterated: a BFS queue
                for tid in registered[node]:
                    for other in holders[tid]:
                        held = component_of.get(other)
                        if held is placed:
                            continue
                        if held is not None:
                            # A neighbour's component merges in (possibly
                            # one untouched so far); the search covers it.
                            retired.add(held)
                        component_of[other] = placed
                        members.append(other)
            members.sort()
            fresh.append(placed)

        kept = [held for held in self._component_list if held not in retired]
        kept.extend(fresh)
        kept.sort(key=lambda held: held.members[0])
        self._component_list = kept
        return len(fresh) + len(emptied)

    def _drop_worker(self, worker_id: int) -> None:
        """Forget a departed worker's entry and ownership registrations."""
        entry = self._worker_entries.pop(worker_id)
        for tid in entry.uncapped_ids:
            owners = self._task_owners.get(tid)
            if owners is not None:
                owners.discard(worker_id)
                if not owners:
                    del self._task_owners[tid]

    def _update_owners(
        self, worker_id: int, old_ids: FrozenSet[int], new_ids: FrozenSet[int]
    ) -> None:
        # Takes the id-sets rather than entries: with in-place entry reuse
        # the old and new entry are the same object by the time this runs.
        if old_ids == new_ids:
            return
        for tid in old_ids - new_ids:
            owners = self._task_owners.get(tid)
            if owners is not None:
                owners.discard(worker_id)
                if not owners:
                    del self._task_owners[tid]
        for tid in new_ids - old_ids:
            self._task_owners.setdefault(tid, set()).add(worker_id)
