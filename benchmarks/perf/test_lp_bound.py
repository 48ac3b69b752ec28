"""LP-relaxation bound microbenchmarks: contested-component search.

PR 10 adds a fractional-matching (LP relaxation) suffix bound to the
branch-and-bound engine.  The additive bound is tight on isotropic dense
snapshots — its two clamps (distinct available tasks, per-worker capacity
sum) both approach the optimum there — so this module measures the regime
the relaxation was built for: **two-sided-surplus contested components**.
Short-reach workers crowd a small central task pool (worker surplus at the
hub) while a far ring holds more tasks than the long-reach rovers' total
capacity (task surplus at the rim).  Neither additive clamp sees the
combined bottleneck; the matching bound does, and the search proves
optimality orders of magnitude earlier.

Writes an ``lp_bound`` section into ``BENCH_planning.json`` (merged, so
sections owned by other perf modules survive).  Node counts are pure
integer search statistics over identical float inputs — deterministic and
machine-invariant — so ``check_regression.py`` gates ``nodes_ratio``
against an absolute >=2x floor.
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

#: (name, hubs, pinned/hub, centrals/hub, ring tasks/hub).  Two rovers per
#: hub; ring > 2 * max_sequence_length keeps the rim task-surplus.
CONTESTED_SCALES = [
    ("contested_small", 1, 10, 6, 16),
    ("contested_medium", 2, 8, 6, 14),
]


def make_contested_snapshot(num_hubs, pinned_per_hub, central_per_hub, ring_per_hub, seed=7):
    """Hub-and-ring snapshot where the additive bound is provably loose.

    Each hub: a tight central cluster contested by many short-reach
    workers, a far ring only the two rovers can serve, and more ring
    tasks than the rovers' combined capacity.  Hubs are spaced so each
    forms one dense dependency component.
    """
    from repro.core.task import Task
    from repro.core.worker import Worker
    from repro.spatial.geometry import Point

    rng = random.Random(seed)
    workers, tasks = [], []
    wid = 0
    for hub in range(num_hubs):
        cx = 14.0 * hub
        for j in range(central_per_hub):
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.0, 0.25)
            tasks.append(
                Task(
                    10_000 + 1000 * hub + j,
                    Point(cx + r * math.cos(ang), r * math.sin(ang)),
                    0.0,
                    rng.uniform(6.0, 40.0),
                )
            )
        for j in range(ring_per_hub):
            ang = 2 * math.pi * j / ring_per_hub + rng.uniform(-0.15, 0.15)
            r = 5.0 + rng.uniform(-0.3, 0.3)
            tasks.append(
                Task(
                    20_000 + 1000 * hub + j,
                    Point(cx + r * math.cos(ang), r * math.sin(ang)),
                    0.0,
                    rng.uniform(20.0, 60.0),
                )
            )
        for _ in range(pinned_per_hub):
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.1, 0.4)
            workers.append(
                Worker(wid, Point(cx + r * math.cos(ang), r * math.sin(ang)), 0.8, 0.0, 240.0)
            )
            wid += 1
        for i in range(2):
            ang = math.pi * i + 0.3
            workers.append(
                Worker(wid, Point(cx + 4.6 * math.cos(ang), 4.6 * math.sin(ang)), 11.0, 0.0, 240.0)
            )
            wid += 1
    return workers, tasks


def _latency_stats(samples):
    values = np.asarray(samples, dtype=np.float64) * 1000.0
    return float(values.mean()), float(np.percentile(values, 95))


class TestContestedComponentSearch:
    def test_contested_component_search(self, bench_scale, perf_results):
        """One-shot plans on contested snapshots: additive vs LP bound."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.travel import EuclideanTravelModel

        repeats = 2 if bench_scale.name == "quick" else 4
        section = {}
        rows = []
        for name, hubs, pinned, centrals, ring in CONTESTED_SCALES:
            workers, tasks = make_contested_snapshot(hubs, pinned, centrals, ring)
            stats = {}
            for bound_mode in ("additive", "adaptive"):
                samples = []
                outcome = None
                for _ in range(repeats):
                    planner = TaskPlanner(
                        PlannerConfig(
                            search_mode="bnb",
                            bound_mode=bound_mode,
                            incremental_replan=False,
                        ),
                        travel=EuclideanTravelModel(1.0),
                    )
                    start = time.perf_counter()
                    outcome = planner.plan(workers, tasks, 0.0)
                    samples.append(time.perf_counter() - start)
                mean_ms, _ = _latency_stats(samples)
                stats[bound_mode] = (outcome, mean_ms)
            additive_outcome, additive_ms = stats["additive"]
            lp_outcome, lp_ms = stats["adaptive"]
            nodes_ratio = additive_outcome.nodes_expanded / max(lp_outcome.nodes_expanded, 1)
            speedup = additive_ms / max(lp_ms, 1e-9)
            section[name] = {
                "workers": len(workers),
                "tasks": len(tasks),
                "hubs": hubs,
                "additive_nodes": additive_outcome.nodes_expanded,
                "lp_nodes": lp_outcome.nodes_expanded,
                "additive_planned": additive_outcome.planned_tasks,
                "lp_planned": lp_outcome.planned_tasks,
                "additive_mean_ms": round(additive_ms, 3),
                "lp_mean_ms": round(lp_ms, 3),
                "nodes_ratio": round(nodes_ratio, 2),
                "speedup": round(speedup, 2),
            }
            rows.append(
                {
                    "scale": f"{name} ({len(workers)}w/{len(tasks)}t)",
                    "additive_nodes": additive_outcome.nodes_expanded,
                    "lp_nodes": lp_outcome.nodes_expanded,
                    "additive_ms": f"{additive_ms:.1f}",
                    "lp_ms": f"{lp_ms:.1f}",
                    "nodes_ratio": f"{nodes_ratio:.1f}x",
                    "speedup": f"{speedup:.2f}x",
                }
            )
            # The PR 10 acceptance bar: the relaxation stays exact (same
            # planned count — both modes prove optimality here) and cuts
            # node expansions by at least 2x.  The committed ratios are
            # far above the floor; check_regression.py gates them too.
            assert lp_outcome.planned_tasks == additive_outcome.planned_tasks
            assert nodes_ratio >= 2.0
        perf_results.setdefault("lp_bound", {})["component_search"] = section
        print_figure(
            "Contested-component exact search — additive vs LP-relaxation bound",
            rows,
            [
                "scale",
                "additive_nodes",
                "lp_nodes",
                "additive_ms",
                "lp_ms",
                "nodes_ratio",
                "speedup",
            ],
        )
