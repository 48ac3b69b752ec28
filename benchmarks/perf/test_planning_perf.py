"""Planning-engine microbenchmark: streaming throughput.

Arrival events per second and mean/p95 replan latency of a full
:class:`SCPlatform` replay that replans cold at every event (scaled from
the Yueche-like workload via ``ExperimentScale``).

Results are printed as tables and collected by the ``perf_results``
fixture (``benchmarks/conftest.py``) into the git-ignored
``benchmarks/out/BENCH_planning.json``; ``check_regression.py`` compares
that fresh file against the committed baseline at the repository root.

Set ``REPRO_BENCH_SCALE=default`` (or ``paper``) for larger workloads.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import cold_strategy, print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


class TestStreamingThroughput:
    def test_streaming_events_per_sec(self, bench_scale, perf_results):
        """Arrival-event throughput of full platform replays."""
        from repro.assignment.planner import PlannerConfig
        from repro.assignment.strategies import DTAStrategy
        from repro.datasets.yueche import generate_yueche
        from repro.simulation.platform import PlatformConfig, SCPlatform

        section = {}
        rows = []
        for name, fraction in (("small", 1.0), ("medium", 3.0)):
            scale = bench_scale.workload_scale * fraction
            workload = generate_yueche(scale=scale, seed=11)
            instance = workload.instance
            events = instance.num_workers + instance.num_tasks
            # Cold replanning at every event: the non-incremental streaming
            # baseline the incremental-replan suite compares against.
            strategy = cold_strategy(DTAStrategy(config=PlannerConfig()))
            platform = SCPlatform(
                instance,
                strategy,
                PlatformConfig(replan_interval=0.0),
            )
            start = time.perf_counter()
            metrics = platform.run()
            wall = time.perf_counter() - start
            mean_ms, p95_ms = _latency_stats(metrics.cpu_times or [0.0])
            entry = {
                "workers": instance.num_workers,
                "tasks": instance.num_tasks,
                "events_per_sec": round(events / max(wall, 1e-9), 1),
                "assigned": metrics.assigned_tasks,
                "replans": metrics.replans,
                "mean_replan_ms": round(mean_ms, 3),
                "p95_replan_ms": round(p95_ms, 3),
            }
            section[name] = entry
            rows.append(
                {
                    "scale": f"{name} ({entry['workers']}w/{entry['tasks']}t)",
                    "ev_per_s": entry["events_per_sec"],
                    "mean_ms": entry["mean_replan_ms"],
                    "p95_ms": entry["p95_replan_ms"],
                }
            )
        perf_results["streaming"] = section
        print_figure(
            "Streaming throughput — full platform replay, cold replans",
            rows,
            ["scale", "ev_per_s", "mean_ms", "p95_ms"],
        )
