"""End-to-end observability over real platform runs.

Three contracts:

* **no-op equivalence** — observability must never influence results:
  :meth:`SimulationMetrics.deterministic_state` is bit-identical with
  observability on and off;
* **span coverage** — a traced run covers the whole hot path (epoch →
  plan → dispatch → merge, journal/checkpoint writes, component
  searches) and every span's parent resolves;
* **cache instrumentation** — the road-network travel model's row cache
  serves the overwhelming majority of lookups from memory, and the run's
  trace/gauges carry the evidence.
"""

from __future__ import annotations

import os

import pytest

from repro.assignment.planner import PlannerConfig
from repro.assignment.strategies import DTAStrategy, make_strategy
from repro.datasets.synthetic import WorkloadConfig
from repro.datasets.yueche import generate_yueche
from repro.obs import ObservabilityConfig
from repro.obs.trace import build_span_tree, parse_trace
from repro.resilience.checkpoint import InMemoryCheckpointStore
from repro.resilience.journal import InMemoryJournal
from repro.roadnet import grid_network, roadnet_workload
from repro.simulation.metrics import EPOCH_CLASSES
from repro.simulation.platform import PlatformConfig, SCPlatform
from repro.simulation.runner import SimulationRunner


@pytest.fixture(scope="module")
def workload():
    return generate_yueche(scale=0.02, seed=3)


def _run(workload, observability=None, planner_kw=None, **platform_kw):
    strategy = DTAStrategy(config=PlannerConfig(**(planner_kw or {})))
    platform = SCPlatform(
        workload.instance,
        strategy,
        PlatformConfig(observability=observability, **platform_kw),
    )
    metrics = platform.run()
    return platform, metrics


class TestNoOpEquivalence:
    def test_serial_state_identical(self, workload):
        _, off = _run(workload)
        _, on = _run(workload, observability=ObservabilityConfig())
        assert on.deterministic_state() == off.deterministic_state()

    def test_disabled_run_keeps_noop_singleton(self, workload):
        platform, _ = _run(workload)
        assert not platform.obs.enabled
        assert platform.obs.snapshot() == {}


class TestSpanCoverage:
    @pytest.fixture(scope="class")
    def traced(self, workload, tmp_path_factory):
        path = os.fspath(tmp_path_factory.mktemp("trace") / "run.json")
        platform, metrics = _run(
            workload,
            observability=ObservabilityConfig(trace_path=path),
            journal=InMemoryJournal(),
            checkpoint_store=InMemoryCheckpointStore(),
            checkpoint_interval=7,
        )
        return platform, metrics, parse_trace(path)

    def test_hot_path_phases_present(self, traced):
        _, _, events = traced
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {
            "epoch",
            "plan",
            "dispatch",
            "merge",
            "dispatch_plan",
            "journal.append",
            "checkpoint.save",
        } <= names

    @pytest.mark.parametrize("incremental", [True, False])
    def test_one_plan_span_vocabulary(self, workload, tmp_path, incremental):
        """Warm or cold, a plan is the same five phases — and nothing else
        sits directly under a ``plan`` span."""
        path = os.fspath(tmp_path / "plan.json")
        _run(
            workload,
            observability=ObservabilityConfig(trace_path=path),
            planner_kw={"incremental_replan": incremental},
            max_replans=6,
        )
        spans = [e for e in parse_trace(path) if e.get("ph") == "X"]
        plan_ids = {e["args"]["id"] for e in spans if e["name"] == "plan"}
        phases = {e["name"] for e in spans if e["args"]["parent"] in plan_ids}
        assert phases == {"diff", "refresh", "decompose", "dispatch", "merge"}

    def test_every_parent_resolves(self, traced):
        _, _, events = traced
        spans = [e for e in events if e.get("ph") == "X"]
        tree = build_span_tree(spans)
        resolved = sum(len(node["children"]) for node in tree.values())
        roots = sum(1 for e in spans if e["args"]["parent"] is None)
        assert roots + resolved == len(spans)

    def test_plan_spans_stamped_with_epoch_class(self, traced):
        _, metrics, events = traced
        plan_spans = [
            e for e in events if e.get("ph") == "X" and e["name"] == "plan"
        ]
        classes = [e["args"].get("cls") for e in plan_spans]
        assert classes and all(cls in EPOCH_CLASSES for cls in classes)
        # The first plan has no caches to reuse; later ones do.
        assert classes[0] == "full"
        assert "incremental" in classes
        # Trace and metrics agree on the per-class counts of *counted*
        # epochs (only plans with pending tasks enter the CPU metric).
        counted = [
            e["args"]["cls"] for e in plan_spans if e["args"]["tasks"] > 0
        ]
        by_class = metrics.replan_latency_summary()
        for cls in set(counted):
            assert by_class[cls]["count"] == float(counted.count(cls))

    def test_journal_entries_carry_epoch_class(self, traced):
        platform, _, _ = traced
        entries = list(platform.config.journal.entries())
        assert entries
        assert all(entry.get("cls") in EPOCH_CLASSES for entry in entries)

    def test_report_surfaces_observability(self, workload):
        runner = SimulationRunner(
            workload.instance,
            platform_config=PlatformConfig(observability=ObservabilityConfig()),
        )
        report = runner.run_strategy("dta")
        assert report.observability["phases"]["plan"]["count"] >= 1
        overall = report.replan_latency["overall"]
        assert overall["count"] >= 1
        assert overall["p50"] <= overall["p95"] <= overall["p99"]


class TestRoadnetCacheInstrumentation:
    @pytest.fixture(scope="class")
    def roadnet_run(self, tmp_path_factory):
        network = grid_network(
            10, 10, spacing=0.4, speed=0.012, seed=7, speed_jitter=0.3
        )
        workload = roadnet_workload(
            network,
            config=WorkloadConfig(
                name="roadnet-obs",
                num_workers=12,
                num_tasks=90,
                horizon=1800.0,
                history_horizon=0.0,
                task_valid_time=120.0,
                reachable_distance=1.5,
                seed=13,
            ),
            num_hotspots=3,
        )
        path = os.fspath(tmp_path_factory.mktemp("roadnet") / "trace.json")
        strategy = make_strategy(
            "dta", config=PlannerConfig(travel_model=workload.instance.travel)
        )
        platform = SCPlatform(
            workload.instance,
            strategy,
            PlatformConfig(observability=ObservabilityConfig(trace_path=path)),
        )
        metrics = platform.run()
        return workload, platform, metrics, parse_trace(path)

    def test_row_cache_serves_nearly_all_lookups(self, roadnet_run):
        workload, platform, _, _ = roadnet_run
        stats = workload.instance.travel.cache_stats()
        lookups = stats["row_hits"] + stats["row_misses"]
        assert lookups > 0
        # The paper-scale claim: the per-source Dijkstra row is computed
        # once and then reused for the whole run (~99% hits; ≥95% leaves
        # headroom for tiny workload variations).
        assert stats["row_hits"] / lookups >= 0.95
        # The final gauges exported into the run snapshot agree.
        gauges = platform.obs.snapshot()["gauges"]
        assert gauges["roadnet.row_hits"] == float(stats["row_hits"])
        assert gauges["roadnet.row_misses"] == float(stats["row_misses"])

    def test_trace_carries_dijkstra_spans_and_cache_counters(self, roadnet_run):
        _, _, _, events = roadnet_run
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "roadnet.dijkstra_row" in names
        counters = {e["name"] for e in events if e.get("ph") == "C"}
        assert {"roadnet.row_cache", "roadnet.snap_cache"} <= counters

    def test_assigned_work_with_observability_on(self, roadnet_run):
        _, _, metrics, _ = roadnet_run
        assert metrics.assigned_tasks > 0
