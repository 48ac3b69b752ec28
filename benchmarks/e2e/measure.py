"""The two measurement modes behind ``run.py``.

``measure_end_to_end`` (``--trace 0``) produces the metrics a user of the
dispatcher would see, with all tracing off.  ``measure_per_layer``
(``--trace 1``) is a separate run that accounts for them layer by layer
(see :mod:`traced`).  Both return the result line as a dict.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List

from demandstage import DemandStage, run_demand_stage
from hostspeed import percentile, timed
from replay import PacedStrategy, Quiet, Replay, aggregate, pool, replay_until, run_replay
from traced import (
    JournalProxy,
    StageReplay,
    StoreProxy,
    TracingStrategy,
    crash_and_resume,
    invalid_plans,
    observed_replay,
    pairwise_costs,
    pick_snapshots,
    plan_costs,
)
from workloads import (
    BATCH_SIZE,
    Inputs,
    Workload,
    demand_inputs,
    durability,
    make_platform,
    visible_predicted,
)

from repro import nn
from repro.assignment.planner import PlannerConfig
from repro.nn.tensor import Tensor

WARMUP_SCALE = 0.05
SETUP_BUILDS = 5


def emit(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """``values`` as the result line wants them, printed by name with
    their units; refuses a set that is not exactly the declared one."""
    names = [metric["name"] for metric in declared]
    unknown = sorted(set(values) - set(names))
    absent = sorted(set(names) - set(values))
    if unknown or absent:
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: undeclared {unknown}, "
            f"not measured {absent}"
        )
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        out[name] = {"value": values[name], "unit": unit}
        print(f"{name:40s} {values[name]:.6g} {unit}")
    return out


def bypassed(declared: List[dict], *prefixes: str) -> Dict[str, float]:
    """Zeros for the metrics of layers a workload does not enter: no
    rows, no entries, no seconds is what was measured there."""
    return {m["name"]: 0 for m in declared if m["name"].startswith(prefixes)}


# ---------------------------------------------------------------------- #
# Pieces shared by both modes
# ---------------------------------------------------------------------- #
def replay_kwargs(workload: Workload, workdir: str, name: str = "replay") -> Dict[str, object]:
    return durability(workdir, name) if workload.durable else {}


def build(workload: Workload, seed: int, scale: float, workdir: str) -> List[Inputs]:
    """Set-up as a user pays it, for every instance the run pools: inputs
    from the seed, then the strategy and platform objects (so work moved
    into a constructor shows here)."""
    instances = []
    for instance_seed in workload.seeds(seed):
        inputs = workload.build(instance_seed, scale)
        platform, _ = make_platform(
            workload, inputs, PacedStrategy, **replay_kwargs(workload, workdir)
        )
        platform.close()
        instances.append(inputs)
    return instances


def warm_up(workload: Workload, seed: int, scale: float, workdir: str) -> int:
    """One tiny replay: pays imports and lazy set-up, and is where plans
    are checked one by one when tracing is off.  Returns invalid plans."""
    tiny = workload.build(seed, scale * WARMUP_SCALE)
    if tiny.demand is not None:
        run_demand_stage(tiny, seed, deadline=0.0, at_least=1, limit=BATCH_SIZE)
    replay = run_replay(
        lambda: make_platform(
            workload, tiny, TracingStrategy, **replay_kwargs(workload, workdir)
        )
    )
    return invalid_plans(replay.strategy.calls)


def conservation_problems(replays: List[Replay], inputs: Inputs) -> List[str]:
    """Checks that hold for any correct dispatcher on any stream."""
    problems = []
    first = replays[0]
    if any(r.state != first.state for r in replays):
        problems.append("replays of one instance disagree on deterministic_state()")
    metrics = first.metrics
    if sum(metrics.assigned_per_worker.values()) != metrics.assigned_tasks:
        problems.append("per-worker assignments do not add up to assigned_tasks")
    if metrics.assigned_tasks + metrics.expired_tasks > inputs.instance.num_tasks:
        problems.append("more tasks assigned + expired than exist")
    return problems


def failed_operations(metrics) -> int:
    """Replans the dispatcher did not serve at full quality."""
    return metrics.degraded_epochs + metrics.invariant_repairs + metrics.rejected_events


def result_line(problems: List[str], attempted: int, failed: int, metrics) -> dict:
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed + len(problems),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- #
# --trace 0: end-to-end
# ---------------------------------------------------------------------- #
def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, workdir: str, contract: dict, scale: float = 1.0
) -> dict:
    setups = []
    for _ in range(SETUP_BUILDS):
        instances, setup_s = timed(lambda: build(workload, seed, scale, workdir))
        setups.append(setup_s)
    invalid = warm_up(workload, seed, scale, workdir)

    began = time.perf_counter()
    problems: List[str] = []
    stages = []
    for index, inputs in enumerate(instances):
        if inputs.demand is not None:
            share = 0.4 * (index + 1) / len(instances)
            stages.append(run_demand_stage(inputs, seed, deadline=began + share * seconds))
            problems += stages[-1].check()

    def platform_factory(index: int, inputs: Inputs):
        # One journal per instance: ``run()`` truncates it when it starts.
        durable = replay_kwargs(workload, workdir, f"replay{index}")
        return lambda: make_platform(workload, inputs, PacedStrategy, **durable)

    replays = replay_until(
        [platform_factory(index, inputs) for index, inputs in enumerate(instances)],
        deadline=began + seconds,
    )
    measured_s = time.perf_counter() - began
    for of_instance, inputs in zip(replays, instances):
        problems += conservation_problems(of_instance, inputs)
    if invalid:
        problems.append(f"{invalid} invalid plans in the warm-up replay")
    quiet = pool([aggregate(of_instance) for of_instance in replays])
    finals = [of_instance[0].metrics for of_instance in replays]

    events = sum(inputs.events for inputs in instances)
    tasks = sum(inputs.instance.num_tasks for inputs in instances)
    demand_s = sum(stage.seconds for stage in stages)
    print(
        f"# {workload.name} seed={seed} (held-out: {workload.heldout_seed}) scale={scale}: "
        f"{len(instances)} instance(s), "
        f"{sum(inputs.instance.num_workers for inputs in instances)} workers, {tasks} tasks, "
        f"{sum(len(inputs.predicted_tasks) for inputs in instances)} predicted; "
        f"{len(quiet.plan)} counted replans; {quiet.replays} aligned replays each"
        + (f", {min(stage.replicas for stage in stages)} fit replicas" if stages else "")
        + f" in {measured_s:.1f} s"
    )
    raw = sum(statistics.median(r.raw_wall_s for r in of_instance) for of_instance in replays)
    print(
        f"# replay: {quiet.wall_s:.3f} s at reference speed "
        f"(self {quiet.self_s:.3f} + plan {quiet.plan_s:.3f}), "
        f"raw median {raw:.3f} s (host slowdown x{raw / quiet.wall_s:.2f})"
        + (f"; demand stage {demand_s:.3f} s" if stages else "")
    )
    values = {
        "setup_s": statistics.median(setups),
        "events_per_s": events / (quiet.wall_s + demand_s),
        "replan_p50_ms": quiet.replan_ms(0.50),
        "served_rate": sum(metrics.assigned_tasks for metrics in finals) / tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result_line(
        problems,
        attempted=len(quiet.plan),
        failed=sum(failed_operations(metrics) for metrics in finals),
        metrics=emit(values, contract["end_to_end"]),
    )


# ---------------------------------------------------------------------- #
# --trace 1: per layer
# ---------------------------------------------------------------------- #
def demand_layer(stage: DemandStage, inputs: Inputs) -> Dict[str, float]:
    _, series_s = timed(lambda: demand_inputs(inputs.workload))
    forward_ms, backward_ms = nn_costs(stage.model, inputs)
    return {
        "demand.series_build_s": series_s,
        "demand.windows": inputs.demand.series.num_windows,
        "demand.fit_s": stage.fit_s,
        "demand.fit_epoch_s": statistics.median(stage.fit_epoch_s),
        "demand.final_loss": stage.losses[0][-1],
        "demand.predict_total_s": stage.predict_total_s,
        "demand.predict_p50_ms": percentile(stage.predict_s, 0.5) * 1e3,
        "demand.predicted_tasks": len(stage.predicted),
        "demand.shipped_threshold_tasks": stage.shipped_threshold_tasks,
        "nn.forward_ms": forward_ms,
        "nn.backward_ms": backward_ms,
    }


def nn_costs(model, inputs: Inputs) -> tuple:
    """One batch of 8 through ``DDGNN`` and back; medians in ms."""
    criterion = nn.BCELoss()
    batch = Tensor(inputs.demand.train_inputs[:BATCH_SIZE])
    targets = Tensor(inputs.demand.train_targets[:BATCH_SIZE])
    forward, backward = [], []
    model.train()
    for _ in range(5):
        output, seconds = timed(lambda: model(batch), brackets=1)
        forward.append(seconds)
        loss = criterion(output, targets)
        backward.append(timed(loss.backward, brackets=1)[1])
    model.eval()
    return statistics.median(forward) * 1e3, statistics.median(backward) * 1e3


def boundary_layers(quiet: Quiet, baseline: List[Replay], traced: Replay) -> Dict[str, float]:
    """``simulation.*``, ``assignment.*`` and ``executor.*`` from the
    baseline estimate and what the strategy proxy saw."""
    strategy, metrics = traced.strategy, traced.metrics
    calls = strategy.calls
    raw_wall = statistics.median(r.raw_wall_s for r in baseline)
    factor = traced.slowdown
    real_first = sum(
        1
        for call in calls
        for worker_plan in call[3]
        if len(worker_plan.sequence) and not worker_plan.sequence[0].predicted
    )
    classes = {name: h.count for name, h in metrics.latency_by_class.items()}
    outcome = strategy.outcome
    planned_workers = outcome["recomputed_workers"] + outcome["reused_workers"]
    return {
        "simulation.self_s": quiet.self_s,
        "simulation.self_share": quiet.self_s / quiet.wall_s,
        "simulation.plan_calls": len(calls),
        "simulation.replans": len(traced.plan),
        "simulation.idle_workers_mean": statistics.fmean(len(c[0]) for c in calls),
        "simulation.pending_tasks_mean": statistics.fmean(len(c[1]) for c in calls),
        "simulation.plan_yield": strategy.dispatches / real_first if real_first else 0.0,
        "simulation.replan_p90_ms": quiet.replan_ms(0.90),
        "simulation.replan_p99_ms": quiet.replan_ms(0.99),
        "simulation.replay_wall_median_s": raw_wall,
        "simulation.noise_ratio": raw_wall / quiet.wall_s,
        "assignment.plan_s": quiet.plan_s,
        "assignment.epochs_full": classes.get("full", 0),
        "assignment.epochs_incremental": classes.get("incremental", 0),
        "assignment.epochs_degraded": classes.get("degraded", 0),
        "assignment.invariant_repairs": metrics.invariant_repairs,
        "assignment.recomputed_workers": outcome["recomputed_workers"],
        "assignment.reused_workers": outcome["reused_workers"],
        "assignment.worker_reuse_ratio": (
            outcome["reused_workers"] / planned_workers if planned_workers else 0.0
        ),
        "assignment.components": outcome["num_components"],
        "assignment.searched_components": outcome["searched_components"],
        "assignment.reused_components": outcome["reused_components"],
        "assignment.nodes_expanded": outcome["nodes_expanded"],
        "assignment.tvf_bootstrap_s": strategy.tvf_bootstrap_s / factor,
        "executor.parallel_components": metrics.parallel_components,
        "executor.overhead_s": metrics.executor_overhead_s / factor,
        "obs.trace_overhead_ratio": traced.wall_s / quiet.wall_s,
    }


def roadnet_layer(travel) -> Dict[str, float]:
    """Cache accounting of the proxied replay (caches are cleared when a
    replay starts, so the counters are that replay's)."""
    stats = travel.cache_stats() if hasattr(travel, "cache_stats") else {}
    rows = stats.get("row_hits", 0) + stats.get("row_misses", 0)
    snaps = stats.get("snap_hits", 0) + stats.get("snap_misses", 0)
    return {
        "roadnet.rows_computed": stats.get("row_misses", 0),
        "roadnet.row_hit_ratio": stats.get("row_hits", 0) / rows if rows else 0.0,
        "roadnet.snap_hit_ratio": stats.get("snap_hits", 0) / snaps if snaps else 0.0,
    }


def stage_layers(workload: Workload, inputs: Inputs, traced: Replay) -> Dict[str, float]:
    """Stage replay, cold/warm plans and pairwise costs on the decision
    points captured by the strategy proxy."""
    snapshots = []
    for workers, tasks, now in pick_snapshots(traced.strategy.calls):
        # What the planner saw: the strategy adds the predicted tasks.
        extra = visible_predicted(inputs.predicted_tasks, now)
        snapshots.append((workers, list(tasks) + extra, now))
    travel = inputs.instance.travel
    tvf = getattr(getattr(traced.strategy, "planner", None), "tvf", None)
    config = PlannerConfig(executor="serial", use_tvf=workload.strategy == "DATA-WA")
    stages = StageReplay(travel, config, tvf=tvf)
    for snapshot in snapshots:
        stages.run(*snapshot)
    values = stages.metrics()
    cold_ms, warm_ms = plan_costs(snapshots, travel, config, tvf)
    values.update({"assignment.cold_plan_ms": cold_ms, "assignment.warm_plan_ms": warm_ms})
    cold_ms, warm_ms = pairwise_costs(snapshots, travel)
    on_roads = hasattr(travel, "cache_stats")
    values.update(
        {
            "roadnet.cold_pairwise_ms": cold_ms if on_roads else 0.0,
            "roadnet.warm_pairwise_ms": warm_ms if on_roads else 0.0,
            "spatial.pairwise_ms": 0.0 if on_roads else warm_ms,
        }
    )
    return values


def measure_per_layer(
    workload: Workload, seed: int, seconds: float, workdir: str, contract: dict, scale: float = 1.0
) -> dict:
    declared = contract["per_layer"]
    # The account is of the run's first instance (the seed's own).
    instances, generate_s = timed(lambda: build(workload, seed, scale, workdir))
    inputs = instances[0]
    warm_up(workload, seed, scale, workdir)
    began = time.perf_counter()
    problems: List[str] = []
    values: Dict[str, float] = {
        "datasets.generate_s": generate_s,
        "datasets.events": sum(each.events for each in instances),
    }

    stage = None
    if inputs.demand is not None:
        stage = run_demand_stage(inputs, seed, deadline=began + 0.3 * seconds)
        problems += stage.check()
        values.update(demand_layer(stage, inputs))
    else:
        values.update(bypassed(declared, "demand.", "nn."))

    # Untraced baseline: simulation.self_s + assignment.plan_s = quiet wall.
    durable = replay_kwargs(workload, workdir)
    (baseline,) = replay_until(
        [lambda: make_platform(workload, inputs, PacedStrategy, **durable)],
        deadline=time.perf_counter() + 0.3 * seconds,
    )
    quiet = aggregate(baseline)
    reference_state = baseline[0].state
    problems += conservation_problems(baseline, inputs)

    # One replay through the boundary proxies.
    proxies = {}
    if workload.durable:
        traced_durable = durability(workdir, "traced")
        proxies = {
            "journal": JournalProxy(traced_durable["journal"]),
            "checkpoint_store": StoreProxy(traced_durable["checkpoint_store"]),
        }
    traced = run_replay(
        lambda: make_platform(workload, inputs, TracingStrategy, **proxies)
    )
    if traced.state != reference_state:
        problems.append("the proxied replay changed deterministic_state()")
    invalid = invalid_plans(traced.strategy.calls)
    counted = len(traced.plan)
    failed = failed_operations(traced.metrics) + invalid
    values.update(boundary_layers(quiet, baseline, traced))
    values["simulation.failed_ops_share"] = failed / max(1, counted)
    values.update(roadnet_layer(inputs.instance.travel))

    if workload.durable:
        journal, store = proxies["journal"], proxies["checkpoint_store"]
        journal.close()
        factor = traced.slowdown
        state, resume_s, replayed = crash_and_resume(
            workload, inputs, workdir, journal.entries_written
        )
        if state != reference_state:
            problems.append("crash + resume() did not reproduce the uninterrupted run")
        values.update(
            {
                "resilience.journal_append_s": journal.append_s / factor,
                "resilience.journal_entries": journal.entries_written,
                "resilience.journal_bytes": os.path.getsize(journal.path),
                "resilience.checkpoint_save_s": store.save_s / factor,
                "resilience.checkpoints": store.saved,
                "resilience.checkpoint_bytes": store.saved_bytes,
                "resilience.resume_s": resume_s,
                "resilience.resume_replayed_entries": replayed,
            }
        )
    else:
        values.update(bypassed(declared, "resilience."))

    values.update(stage_layers(workload, inputs, traced))

    # Cross-check with the spans the repo already emits.
    observed, spans = observed_replay(workload, inputs, workdir, **durable)
    if observed.state != reference_state:
        problems.append("repro.obs tracing changed deterministic_state()")
    values["obs.span_overhead_ratio"] = observed.wall_s / quiet.wall_s
    for name, span_s in spans.items():
        values[f"obs.span_self_s.{name}"] = span_s

    # The same stream under plain DTA: what prediction-aware planning buys.
    values["assignment.served_vs_dta_ratio"] = 1.0
    if workload.strategy != "DTA":
        dta = run_replay(
            lambda: make_platform(workload, inputs, PacedStrategy, strategy="DTA")
        )
        if dta.metrics.assigned_tasks:
            values["assignment.served_vs_dta_ratio"] = (
                traced.metrics.assigned_tasks / dta.metrics.assigned_tasks
            )

    print(
        f"# {workload.name} seed={seed} (held-out: {workload.heldout_seed}) scale={scale}: "
        f"per-layer account from "
        f"{quiet.replays} baseline replays, 1 proxied replay, "
        f"{int(values['stage_replay.snapshots'])} replayed decision points, "
        f"in {time.perf_counter() - began:.1f} s"
    )
    return result_line(
        problems, attempted=counted, failed=failed, metrics=emit(values, declared)
    )
