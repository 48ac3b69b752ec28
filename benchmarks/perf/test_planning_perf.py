"""Planning-engine microbenchmarks: streaming throughput, TVF scoring.

* **streaming throughput** — arrival events per second and mean/p95 replan
  latency of a full :class:`SCPlatform` replay that replans cold at every
  event (scaled from the Yueche-like workload via ``ExperimentScale``);
* **TVF scoring throughput** — actions scored per second, per-action scalar
  featurization (the pre-vectorization reference) vs one batched
  featurize + forward pass.

Results are printed as tables and collected by the ``perf_results``
fixture (``benchmarks/conftest.py``) into the git-ignored
``benchmarks/out/BENCH_planning.json``; ``check_regression.py`` compares
that fresh file against the committed baseline at the repository root.

Set ``REPRO_BENCH_SCALE=default`` (or ``paper``) for more repetitions.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from conftest import print_figure

#: Perf smoke: separate CI job (see pytest.ini).
pytestmark = pytest.mark.perf

#: Target mean number of tasks inside one worker's reach radius.
SNAPSHOT_DENSITY = 8.0


def make_snapshot(num_workers, num_tasks, seed=7, reach=1.0, density=SNAPSHOT_DENSITY):
    """Density-controlled random snapshot (area grows with the task count)."""
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    area = math.sqrt(num_tasks * math.pi * reach * reach / density)
    workers = [
        Worker(
            i,
            Point(rng.uniform(0, area), rng.uniform(0, area)),
            reach * rng.uniform(0.8, 1.2),
            0.0,
            240.0,
        )
        for i in range(num_workers)
    ]
    tasks = [
        Task(
            10_000 + j,
            Point(rng.uniform(0, area), rng.uniform(0, area)),
            0.0,
            rng.uniform(5, 60),
        )
        for j in range(num_tasks)
    ]
    return workers, tasks


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


def _repeats(bench_scale) -> int:
    return 3 if bench_scale.name == "quick" else 7


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
            strategy = DTAStrategy(config=PlannerConfig(incremental_replan=False))
            platform = SCPlatform(
                instance,
                strategy,
                PlatformConfig(replan_interval=0.0, maintain_task_index=True),
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


class TestTVFScoringThroughput:
    def test_tvf_scoring_throughput(self, bench_scale, perf_results):
        """Per-action scalar featurization vs one batched pass."""
        from repro.assignment.tvf import (
            TaskValueFunction,
            featurize_state_action,
        )
        from repro.nn.tensor import Tensor, no_grad

        rng = random.Random(21)
        workers, tasks = make_snapshot(30, 400, seed=9)
        workers_by_id = {w.worker_id: w for w in workers}
        tasks_by_id = {t.task_id: t for t in tasks}
        task_ids = sorted(tasks_by_id)
        tvf = TaskValueFunction(seed=0)
        repeats = _repeats(bench_scale)

        section = {}
        rows = []
        for name, num_actions in (("small", 16), ("medium", 64), ("large", 256)):
            state = {
                "num_workers": len(workers),
                "num_tasks": len(tasks),
                "task_ids": tuple(task_ids[:200]),
            }
            actions = []
            for _ in range(num_actions):
                sequence = rng.sample(task_ids, 3)
                actions.append(
                    {
                        "worker_id": rng.choice(sorted(workers_by_id)),
                        "task_ids": tuple(sequence),
                        "sequence_length": 3,
                    }
                )

            def scalar_score():
                features = np.stack(
                    [
                        featurize_state_action(state, a, workers_by_id, tasks_by_id)
                        for a in actions
                    ]
                )
                with no_grad():
                    return tvf.network(Tensor(tvf._normalize(features))).data[:, 0]

            def batched_score():
                return tvf.values(state, actions, workers_by_id, tasks_by_id)

            reference = scalar_score()
            batched = batched_score()
            np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=1e-12)

            timings = {}
            for label, runner in (("scalar", scalar_score), ("batched", batched_score)):
                samples = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    runner()
                    samples.append(time.perf_counter() - start)
                timings[label] = min(samples)
            scalar_rate = num_actions / max(timings["scalar"], 1e-9)
            batched_rate = num_actions / max(timings["batched"], 1e-9)
            section[name] = {
                "actions": num_actions,
                "scalar_actions_per_sec": round(scalar_rate, 1),
                "batched_actions_per_sec": round(batched_rate, 1),
                "speedup": round(batched_rate / max(scalar_rate, 1e-9), 2),
            }
            rows.append(
                {
                    "batch": f"{name} ({num_actions} actions)",
                    "scalar_a_per_s": f"{scalar_rate:,.0f}",
                    "batched_a_per_s": f"{batched_rate:,.0f}",
                    "speedup": f"{batched_rate / max(scalar_rate, 1e-9):.2f}x",
                }
            )
        perf_results["tvf_scoring"] = section
        print_figure(
            "TVF scoring throughput — per-action vs batched featurization",
            rows,
            ["batch", "scalar_a_per_s", "batched_a_per_s", "speedup"],
        )
        assert section["large"]["speedup"] >= 1.5
