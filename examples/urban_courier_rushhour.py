"""Urban courier dispatch through a rush hour.

Builds a street grid whose arterials and side streets congest on
rush-hour speed profiles (per-edge-class time-dependent Dijkstra), and
replays the same courier demand three ways:

* **free flow** — the static road network (no profiles), the PR 4 world;
* **rush hour** — the time-dependent network, full replanning;
* **rush hour + incremental** — the same congested replay under the
  dirty-region engine, whose validity horizons are clamped to the next
  profile boundary (the outcome must match full replanning exactly).

The comparison shows what congestion costs in assignments, and that the
incremental engine keeps its replan-latency win between boundaries.

Run with::

    python examples/urban_courier_rushhour.py
"""

from __future__ import annotations

import time

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import make_strategy
from repro.core.problem import ATAInstance
from repro.datasets.synthetic import WorkloadConfig
from repro.experiments.reporting import format_table
from repro.roadnet import (
    RoadNetworkTravelModel,
    grid_network,
    roadnet_rushhour,
)
from repro.simulation.platform import PlatformConfig, SCPlatform


def main() -> None:
    # A 12x12 street grid, 400 m blocks, ~43 km/h free flow with
    # per-direction jitter and 15% one-way streets.
    network = grid_network(
        12, 12, spacing=0.4, speed=0.012, seed=42, speed_jitter=0.35,
        one_way_fraction=0.15, name="rushhour-city",
    )
    config = WorkloadConfig(
        name="urban-courier-rushhour",
        num_workers=30,
        num_tasks=260,
        horizon=3600.0,
        history_horizon=0.0,
        task_valid_time=180.0,
        worker_available_time=2400.0,
        reachable_distance=1.6,
        worker_speed=0.012,
        seed=7,
    )
    # Arterials (the fast edge class) drop to 45% speed in the peaks,
    # side streets to 75%; peaks cover 25-45% and 65-85% of the replay.
    workload = roadnet_rushhour(
        network, config=config, num_hotspots=4, peak_multipliers=(0.75, 0.45)
    )
    rush_instance = workload.instance
    model = rush_instance.travel
    assert isinstance(model, RoadNetworkTravelModel)
    print(
        f"Road network: {network.num_nodes} nodes / {network.num_edges} directed edges; "
        f"{rush_instance.num_workers} couriers, {rush_instance.num_tasks} tasks; "
        f"profile boundaries at "
        f"{[round(b, 0) for b in model.edge_profiles[0].breakpoints[1:]]}"
    )

    freeflow_instance = ATAInstance(
        workers=rush_instance.workers,
        tasks=rush_instance.tasks,
        travel=RoadNetworkTravelModel(network, speed=config.worker_speed),
        name=f"{rush_instance.name}-freeflow",
    )

    runs = (
        ("free flow", freeflow_instance, True),
        ("rush hour (full replan)", rush_instance, False),
        ("rush hour (incremental)", rush_instance, True),
    )
    rows = []
    for label, instance, incremental in runs:
        strategy = make_strategy("dta", config=PlannerConfig(travel_model=instance.travel))
        if not incremental:
            # A full replan: the same pipeline on an emptied cache every time.
            warm_plan = strategy.plan

            def cold_plan(idle_workers, pending_tasks, now, strategy=strategy, warm_plan=warm_plan):
                strategy.planner.reset_cache()
                return warm_plan(idle_workers, pending_tasks, now)

            strategy.plan = cold_plan
        platform = SCPlatform(instance, strategy, PlatformConfig(replan_interval=0.0))
        start = time.perf_counter()
        metrics = platform.run()
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "scenario": label,
                "assigned": metrics.assigned_tasks,
                "expired": metrics.expired_tasks,
                "replans": metrics.replans,
                "mean replan (ms)": round(1000.0 * metrics.mean_cpu_time, 3),
                "wall (s)": round(elapsed, 2),
            }
        )

    total = model.row_cache_hits + model.row_cache_misses
    hit_rate = model.row_cache_hits / total if total else 0.0
    print(f"\nDijkstra row cache (rush-hour model): {total} lookups, {hit_rate:.1%} hits")

    # The congested replays must agree: the incremental engine is
    # bit-for-bit equivalent to full replanning, boundaries included.
    assert rows[1]["assigned"] == rows[2]["assigned"]
    assert rows[1]["expired"] == rows[2]["expired"]

    print()
    print(
        format_table(
            rows,
            ["scenario", "assigned", "expired", "replans", "mean replan (ms)", "wall (s)"],
            title="Urban courier dispatch — free flow vs rush hour (DTA)",
        )
    )


if __name__ == "__main__":
    main()
