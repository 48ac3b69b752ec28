"""Per-layer account, measured from outside the program.

Nothing here adds a span or a counter to ``src/``.  The layers are the
repo's modules; what each one did is read at its boundary:

* a strategy proxy sees every plan request and answer (``assignment``,
  ``simulation``) and checks the answer;
* journal and checkpoint-store proxies time the durability writes
  (``resilience``);
* ``cache_stats()`` deltas account for Dijkstra rows (``roadnet``);
* a *stage replay* re-runs captured decision points through each pipeline
  stage's public function, in order (``reachability`` -> ``sequences`` ->
  ``partition`` -> ``search``).  Stage functions are looked up by name: a
  refactor that removes one turns its numbers into 0 and raises
  ``stage_replay.missing_functions`` -- never an error, and never a change
  to an end-to-end number, which do not come from here.

Times are at reference host speed (see :mod:`hostspeed`).
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import timed
from replay import PacedStrategy, Replay, run_replay
from workloads import Inputs, Workload, durability, make_platform

from repro.assignment.planner import PlannerConfig, TaskPlanner
from repro.obs.runtime import ObservabilityConfig
from repro.obs.trace import build_span_tree, parse_trace
from repro.resilience.chaos import ChaosConfig, FaultInjector, InjectedCrash

#: Decision points re-run by the stage replay: evenly sampled + slowest.
SAMPLED_SNAPSHOTS = 64
SLOWEST_SNAPSHOTS = 8

#: Span names ``repro.obs`` already emits, reported as exclusive self time.
SPAN_NAMES = (
    "epoch",
    "plan",
    "diff",
    "refresh",
    "decompose",
    "dispatch",
    "component.search",
    "merge",
    "journal.append",
    "checkpoint.save",
    "roadnet.dijkstra_row",
)


# ---------------------------------------------------------------------- #
# Boundary proxies
# ---------------------------------------------------------------------- #
class TracingStrategy(PacedStrategy):
    """Records what crossed the platform/strategy boundary.

    Inside the platform's plan timer it only appends one tuple and reads
    the clock twice; checking and counting happen after the replay.
    """

    #: ``PlanningOutcome`` counters summed over the replay.
    OUTCOME_COUNTERS = (
        "recomputed_workers",
        "reused_workers",
        "num_components",
        "searched_components",
        "reused_components",
        "nodes_expanded",
    )

    def __init__(self, inner) -> None:
        super().__init__(inner)
        #: ``(idle_workers, pending_tasks, now, plan, seconds)`` per call.
        self.calls: List[tuple] = []
        self.dispatches = 0
        self.outcome = dict.fromkeys(self.OUTCOME_COUNTERS, 0)
        self.tvf_bootstrap_s = 0.0

    def _tvf_fitted(self) -> bool:
        tvf = getattr(getattr(self._inner, "planner", None), "tvf", None)
        return bool(getattr(tvf, "is_fitted", False))

    def plan(self, idle_workers, pending_tasks, now):
        if pending_tasks:
            self.epoch_slice.append(len(self.slices))
        unfitted = not self.tvf_bootstrap_s and not self._tvf_fitted()
        start = time.perf_counter()
        plan = self._inner.plan(idle_workers, pending_tasks, now)
        seconds = time.perf_counter() - start
        if unfitted and self._tvf_fitted():
            self.tvf_bootstrap_s = seconds
        self.calls.append((idle_workers, pending_tasks, now, plan, seconds))
        return plan

    def consume_last_outcome(self):
        outcome = self._inner.consume_last_outcome()
        if outcome is not None:
            for name in self.OUTCOME_COUNTERS:
                self.outcome[name] += getattr(outcome, name, 0)
        return outcome

    def notify_dispatch(self, worker_id, task_id) -> None:
        self.dispatches += 1
        self._inner.notify_dispatch(worker_id, task_id)


def invalid_plans(calls: Sequence[tuple]) -> int:
    """How many returned plans break the dispatcher's contract: a task in
    two worker plans, a planned worker that was not offered as idle, or a
    planned real task that was not offered as pending and unexpired."""
    bad = 0
    for idle_workers, pending_tasks, now, plan, _ in calls:
        idle_ids = {worker.worker_id for worker in idle_workers}
        open_ids = {t.task_id for t in pending_tasks if not t.is_expired(now)}
        seen = set()
        ok = True
        for worker_plan in plan:
            if worker_plan.worker.worker_id not in idle_ids:
                ok = False
            for task in worker_plan.sequence:
                if task.task_id in seen:
                    ok = False
                seen.add(task.task_id)
                if not task.predicted and task.task_id not in open_ids:
                    ok = False
        bad += not ok
    return bad


class JournalProxy:
    """Times ``append`` on the injected journal; the rest passes through."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.append_s = 0.0
        self.entries_written = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def append(self, entry) -> None:
        start = time.perf_counter()
        self._inner.append(entry)
        self.append_s += time.perf_counter() - start
        self.entries_written += 1


class StoreProxy:
    """Times ``save`` on the injected checkpoint store."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.save_s = 0.0
        self.saved = 0
        self.saved_bytes = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def save(self, checkpoint) -> None:
        start = time.perf_counter()
        self._inner.save(checkpoint)
        self.save_s += time.perf_counter() - start
        self.saved += 1
        self.saved_bytes += len(checkpoint.payload)


# ---------------------------------------------------------------------- #
# Stage replay
# ---------------------------------------------------------------------- #
def _lookup(module: str, *names: str) -> Optional[Callable]:
    """First of ``names`` that ``module`` still has, else None."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    for name in names:
        fn = getattr(mod, name, None)
        if fn is not None:
            return fn
    return None


class StageReplay:
    """Runs captured decision points through the pipeline's stages."""

    STAGES = ("reachability", "sequences", "partition", "search")

    def __init__(self, travel, config: PlannerConfig, tvf=None) -> None:
        self.travel = travel
        self.config = config
        self.tvf = tvf
        self.seconds = dict.fromkeys(self.STAGES, 0.0)
        self.pairs = 0
        self.kept = 0
        self.sequences = 0
        self.components = 0
        self.largest_component = 0
        self.nodes = 0
        self.snapshots = 0
        self.missing: set = set()
        a = "repro.assignment."
        self._matrix = _lookup("repro.spatial.travel_matrix", "TravelMatrix")
        self._reach = _lookup(a + "reachability", "reachable_tasks_matrix", "reachable_tasks")
        self._sequences = _lookup(a + "sequences", "maximal_valid_sequences")
        self._adjacency = _lookup(a + "fast_partition", "build_adjacency")
        self._tree = _lookup(a + "fast_partition", "build_partition_tree_fast")
        self._budget = _lookup(a + "dfsearch", "adaptive_node_budget")
        self._job = _lookup(a + "executor", "ComponentJob")
        self._run_job = _lookup(a + "executor", "run_component_job")

    def _stage(self, name: str, fn: Callable, needs: Sequence[object]):
        """Time one stage; a missing or re-shaped function skips it."""
        if any(dep is None for dep in needs):
            self.missing.add(name)
            return None
        try:
            result, seconds = timed(fn, brackets=1)
        except (TypeError, AttributeError) as exc:  # its signature moved
            print(f"note: stage {name} not replayed ({exc})")
            self.missing.add(name)
            return None
        self.seconds[name] += seconds
        return result

    def run(self, workers, tasks, now: float) -> None:
        config, travel = self.config, self.travel
        self.snapshots += 1
        active = [task for task in tasks if not task.is_expired(now)]
        real = [task for task in active if not task.predicted]
        if not workers or not active:
            return
        travel.begin_epoch(now)
        state: Dict[str, object] = {}

        def reachability():
            matrix = self._matrix(workers, active, travel, now=now)
            # The matrix variant takes the matrix where the scalar one
            # takes the travel model.
            via = matrix if self._reach.__name__.endswith("_matrix") else travel
            kwargs = {"max_tasks": config.max_reachable}
            by_worker = {}
            for worker in workers:
                found = self._reach(worker, real, now, via, **kwargs)
                if not found and len(real) != len(active):
                    # Predicted tasks only guide workers with no real task.
                    found = self._reach(worker, active, now, via, **kwargs)
                by_worker[worker.worker_id] = found
            state["matrix"] = matrix
            return by_worker

        reachable = self._stage("reachability", reachability, (self._matrix, self._reach))
        if reachable is None:
            return
        self.pairs += len(workers) * len(active)
        self.kept += sum(len(found) for found in reachable.values())

        def sequences():
            return {
                worker.worker_id: self._sequences(
                    worker,
                    reachable[worker.worker_id],
                    now,
                    travel,
                    max_length=config.max_sequence_length,
                    max_sequences=config.max_sequences,
                    matrix=state["matrix"],
                    per_leg=config.per_leg_pricing,
                )
                for worker in workers
            }

        by_worker = self._stage("sequences", sequences, (self._sequences,))
        if by_worker is None:
            return
        self.sequences += sum(len(found) for found in by_worker.values())

        roots = self._stage(
            "partition",
            lambda: self._tree(self._adjacency(reachable)).roots,
            (self._adjacency, self._tree),
        )
        if roots is None:
            return
        self.components += len(roots)
        sizes = [len(root.all_workers()) for root in roots]
        self.largest_component = max([self.largest_component] + sizes)

        workers_by_id = {worker.worker_id: worker for worker in workers}
        task_ids = frozenset(task.task_id for task in active)

        def search():
            nodes = 0
            for index, root in enumerate(roots):
                ids = tuple(root.all_workers())
                count = sum(len(by_worker.get(wid, ())) for wid in ids)
                guided = (
                    config.use_tvf
                    and self.tvf is not None
                    and len(ids) >= config.tvf_min_workers
                )
                job = self._job(
                    index=index,
                    mode="tvf" if guided else config.search_mode,
                    root=root,
                    worker_ids=ids,
                    sequences_by_worker=by_worker,
                    workers_by_id=workers_by_id,
                    task_ids=task_ids,
                    node_budget=self._budget(config.node_budget, len(ids), count),
                    bound_mode=config.bound_mode,
                    tasks=active if guided else None,
                    tvf=self.tvf if guided else None,
                    num_sequences=count,
                )
                nodes += self._run_job(job).nodes_expanded
            return nodes

        nodes = self._stage("search", search, (self._job, self._run_job, self._budget))
        if nodes is not None:
            self.nodes += nodes

    def metrics(self) -> Dict[str, float]:
        total = sum(self.seconds.values())
        for name in sorted(self.missing):
            print(f"note: stage {name}: its function is gone from src/; reported as 0")
        return {
            "reachability.s": self.seconds["reachability"],
            "reachability.pairs": self.pairs,
            "reachability.kept_ratio": self.kept / self.pairs if self.pairs else 0.0,
            "sequences.s": self.seconds["sequences"],
            "sequences.count": self.sequences,
            "partition.s": self.seconds["partition"],
            "partition.components": self.components,
            "partition.largest_component": self.largest_component,
            "search.s": self.seconds["search"],
            "search.nodes": self.nodes,
            "search.share": self.seconds["search"] / total if total else 0.0,
            "stage_replay.snapshots": self.snapshots,
            "stage_replay.missing_functions": len(self.missing),
        }


def pick_snapshots(calls: Sequence[tuple]) -> List[tuple]:
    """Evenly sampled decision points plus the slowest ones (those set
    the tail), as ``(idle_workers, pending_tasks, now)``."""
    counted = [call for call in calls if call[1]]
    if not counted:
        return []
    step = max(1, len(counted) // SAMPLED_SNAPSHOTS)
    chosen = {id(call): call for call in counted[::step][:SAMPLED_SNAPSHOTS]}
    for call in sorted(counted, key=lambda c: c[4])[-SLOWEST_SNAPSHOTS:]:
        chosen[id(call)] = call
    return [call[:3] for call in chosen.values()]


def plan_costs(
    snapshots: Sequence[tuple], travel, config: PlannerConfig, tvf
) -> Tuple[float, float]:
    """``TaskPlanner.plan`` on each snapshot, cold (after ``reset_cache``)
    and again warm; medians in ms."""
    planner = TaskPlanner(config, travel=travel, tvf=tvf)
    cold, warm = [], []
    try:
        for workers, tasks, now in snapshots:
            planner.reset_cache()
            cold.append(timed(lambda: planner.plan(workers, tasks, now), brackets=1)[1])
            warm.append(timed(lambda: planner.plan(workers, tasks, now), brackets=1)[1])
    finally:
        planner.close()
    return _medians_ms(cold, warm)


def _medians_ms(cold: List[float], warm: List[float]) -> Tuple[float, float]:
    if not cold:
        return 0.0, 0.0
    return statistics.median(cold) * 1e3, statistics.median(warm) * 1e3


def pairwise_costs(snapshots: Sequence[tuple], travel) -> Tuple[float, float]:
    """``travel.pairwise`` per snapshot: cold (caches cleared first, where
    the model has caches) and warm; medians in ms.  A cold call on the
    road network recomputes every Dijkstra row it touches (~0.2 s), so a
    handful of snapshots is all the run can afford."""
    clear = getattr(travel, "clear_caches", None)
    cold, warm = [], []
    for workers, tasks, now in snapshots[:: max(1, len(snapshots) // 8)]:
        if not workers or not tasks:
            continue
        travel.begin_epoch(now)
        if clear is not None:
            clear()
        cold.append(timed(lambda: travel.pairwise(workers, tasks), brackets=1)[1])
        warm.append(timed(lambda: travel.pairwise(workers, tasks), brackets=1)[1])
    return _medians_ms(cold, warm)


# ---------------------------------------------------------------------- #
# Cross-checks
# ---------------------------------------------------------------------- #
def span_self_times(trace_path: str) -> Dict[str, float]:
    """Exclusive time per span name (raw seconds), from parent links:
    a span's duration minus what its children cover."""
    nodes = build_span_tree(parse_trace(trace_path))
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    for node in nodes.values():
        event = node["event"]
        name = event["name"]
        if name in totals:
            children = sum(child["event"]["dur"] for child in node["children"])
            totals[name] += (event["dur"] - children) / 1e6
    return totals


def observed_replay(
    workload: Workload, inputs: Inputs, workdir: str, **platform_kwargs
) -> Tuple[Replay, Dict[str, float]]:
    """One replay with the repo's own tracing on (no new spans)."""
    trace_path = os.path.join(workdir, f"{workload.name}.trace.json")
    replay = run_replay(
        lambda: make_platform(
            workload,
            inputs,
            PacedStrategy,
            observability=ObservabilityConfig(trace_path=trace_path),
            **platform_kwargs,
        )
    )
    raw = span_self_times(trace_path)
    os.remove(trace_path)
    # One factor for the whole replay: spans carry no calibration.
    return replay, {name: seconds / replay.slowdown for name, seconds in raw.items()}


def crash_and_resume(
    workload: Workload, inputs: Inputs, workdir: str, epochs: int
) -> Tuple[Dict[str, object], float, int]:
    """Kill a durable run halfway, resume it on a fresh platform.

    Returns ``(deterministic_state of the resumed run, resume seconds,
    journal entries replayed)``.
    """
    durable = durability(workdir, "crash")
    crashing, _ = make_platform(
        workload,
        inputs,
        PacedStrategy,
        fault_injector=FaultInjector(ChaosConfig(crash_at_epoch=epochs // 2)),
        **durable,
    )
    try:
        crashing.run()
    except InjectedCrash:
        pass
    else:
        raise RuntimeError("the injected crash did not fire")
    finally:
        crashing.close()
    newest = durable["checkpoint_store"].latest()
    from_seq = newest.seq if newest is not None else 0
    replayed = sum(1 for e in durable["journal"].entries() if e["seq"] >= from_seq)
    replay = run_replay(
        lambda: make_platform(workload, inputs, PacedStrategy, **durable),
        run=lambda platform: platform.resume(),
    )
    durable["journal"].close()
    return replay.state, replay.wall_s, replayed
