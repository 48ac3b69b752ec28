"""Trace a rush-hour dispatch run and inspect where the time went.

Replays couriers through a congested street grid (per-edge-class
rush-hour speed profiles) with every observability feature armed:

* hierarchical spans over the whole plan pipeline — epoch → plan →
  diff/refresh/decompose → dispatch → per-component search → merge —
  plus journal/checkpoint writes and Dijkstra row computations;
* streaming metrics: travel-cache hit/miss counters and replan-latency
  percentiles per epoch class.

The run writes a Trace Event Format file — load it at https://ui.perfetto.dev
or chrome://tracing — validates its span coverage and that every
``refresh`` span carries its worker account, and renders the plain-text
report the ``repro.obs.report`` CLI produces from the same file
(refresh-account line included).

Run with::

    python examples/observability_trace.py [trace.json]
"""

from __future__ import annotations

import sys

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import make_strategy
from repro.datasets.synthetic import WorkloadConfig
from repro.obs import ObservabilityConfig
from repro.obs.report import REFRESH_ACCOUNT, render_report
from repro.obs.trace import build_span_tree, parse_trace
from repro.resilience.checkpoint import InMemoryCheckpointStore
from repro.resilience.journal import InMemoryJournal
from repro.roadnet import grid_network, roadnet_rushhour
from repro.simulation.platform import PlatformConfig, SCPlatform

#: Spans the trace must cover for the run to count as fully observed.
EXPECTED_SPANS = {
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
}


def main() -> int:
    trace_path = sys.argv[1] if len(sys.argv) > 1 else "observability_trace.json"

    # A 10x10 street grid whose arterials drop to 45% speed in the peaks.
    network = grid_network(
        10, 10, spacing=0.4, speed=0.012, seed=7, speed_jitter=0.3,
        name="observed-city",
    )
    workload = roadnet_rushhour(
        network,
        config=WorkloadConfig(
            name="observed-rushhour",
            num_workers=12,
            num_tasks=90,
            horizon=1800.0,
            history_horizon=0.0,
            task_valid_time=120.0,
            reachable_distance=1.5,
            worker_speed=0.012,
            seed=13,
        ),
        num_hotspots=3,
    )

    strategy = make_strategy(
        "dta", config=PlannerConfig(travel_model=workload.instance.travel)
    )
    journal, checkpoints = InMemoryJournal(), InMemoryCheckpointStore()
    platform = SCPlatform(
        workload.instance,
        strategy,
        PlatformConfig(
            observability=ObservabilityConfig(trace_path=trace_path),
            journal=journal,
            checkpoint_store=checkpoints,
            checkpoint_interval=16,
        ),
    )
    metrics = platform.run()
    print(
        f"Replayed {workload.instance.num_tasks} tasks over "
        f"{workload.instance.num_workers} couriers: "
        f"{metrics.assigned_tasks} assigned in {metrics.replans} replans "
        f"({len(journal)} journal entries, {len(checkpoints)} checkpoints)."
    )

    # ---- validate the written trace ----------------------------------- #
    events = parse_trace(trace_path)
    spans = [e for e in events if e.get("ph") == "X"]
    names = {str(e["name"]) for e in spans}
    missing = EXPECTED_SPANS - names
    if missing:
        print(f"trace is missing expected spans: {sorted(missing)}")
        return 1
    # The report's refresh account sums these; a span without one of them
    # would silently count as zero.
    unaccounted = sum(
        1
        for e in spans
        if e["name"] == "refresh" and not set(REFRESH_ACCOUNT) <= set(e["args"])
    )
    if unaccounted:
        print(f"{unaccounted} refresh spans lack one of {list(REFRESH_ACCOUNT)}")
        return 1
    tree = build_span_tree(spans)
    roots = sum(1 for e in spans if e["args"]["parent"] is None)
    resolved = sum(len(node["children"]) for node in tree.values())
    orphans = len(spans) - roots - resolved
    if orphans:
        print(f"{orphans} spans have unresolvable parents")
        return 1
    counter_names = {str(e["name"]) for e in events if e.get("ph") == "C"}
    print(
        f"Trace: {len(events)} events, {len(spans)} spans "
        f"({roots} roots, 0 orphans), counter tracks: {sorted(counter_names)}."
    )

    # ---- the report the CLI would render from the same file ------------ #
    print()
    print(render_report(events))
    print()
    print(
        f"Wrote {trace_path} — load it at https://ui.perfetto.dev, or run\n"
        f"  python -m repro.obs.report {trace_path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
