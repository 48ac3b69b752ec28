"""Ablation: Task Value Function (Alg. 2) versus exact DFSearch (Alg. 1).

The paper's claim behind DATA-WA vs DTA+TP: the TVF-guided search trades a
small amount of assignment quality for a large reduction in search effort
(fewer expanded nodes, less CPU), because it avoids backtracking.
"""

import time

from conftest import print_figure

from repro.assignment.planner import PlannerConfig, TaskPlanner

import pytest

#: Paper-figure/ablation sweep: marked slow (see pytest.ini).
pytestmark = pytest.mark.slow


def _planning_snapshot(workload, max_workers=40, max_tasks=80):
    """A dense, static planning instant derived from the generated workload.

    The ablations compare *search machinery* (partitioning, TVF guidance) on
    one planning call, so the snapshot gathers the tasks published shortly
    after the chosen instant and makes them all available at that instant
    with a common two-minute deadline — a batch the exact search genuinely
    has to reason about.
    """
    import dataclasses

    instance = workload.instance
    ordered_tasks = sorted(instance.tasks, key=lambda t: t.publication_time)
    pivot = ordered_tasks[len(ordered_tasks) // 2]
    now = pivot.publication_time

    workers = [w for w in instance.workers if w.on_time <= now < w.off_time][:max_workers]
    if not workers:
        workers = [
            dataclasses.replace(w, on_time=now, off_time=now + 3600.0)
            for w in instance.workers[:max_workers]
        ]

    batch = [t for t in ordered_tasks if t.publication_time >= now][:max_tasks]
    tasks = [
        dataclasses.replace(t, publication_time=now, expiration_time=now + 120.0)
        for t in batch
    ]
    return workers, tasks, now


def test_ablation_tvf_vs_exact_search(benchmark, yueche_workload):
    workers, tasks, now = _planning_snapshot(yueche_workload)
    # Each timed plan starts from an empty cache: the ablation times
    # repeated plans of one identical snapshot, which the incremental engine
    # would serve from its caches — the figure must measure the search itself.
    config = PlannerConfig(max_reachable=8, max_sequence_length=3, node_budget=50_000)
    travel = yueche_workload.instance.travel

    exact_planner = TaskPlanner(PlannerConfig(**{**config.__dict__}), travel=travel)
    guided_planner = TaskPlanner(
        PlannerConfig(**{**config.__dict__, "use_tvf": True}), travel=travel
    )
    # Train the TVF once from exact-search experience on the same snapshot.
    guided_planner.train_tvf(workers, tasks, now, epochs=10)

    def run_exact():
        exact_planner.reset_cache()
        return exact_planner.plan(workers, tasks, now)

    def run_guided():
        guided_planner.reset_cache()
        return guided_planner.plan(workers, tasks, now)

    start = time.perf_counter()
    exact = run_exact()
    exact_time = time.perf_counter() - start

    guided = benchmark.pedantic(run_guided, rounds=1, iterations=1)
    start = time.perf_counter()
    run_guided()
    guided_time = time.perf_counter() - start

    rows = [
        {"search": "DFSearch (exact)", "planned_tasks": exact.planned_tasks,
         "nodes_expanded": exact.nodes_expanded, "cpu_time": exact_time},
        {"search": "DFSearch_TVF", "planned_tasks": guided.planned_tasks,
         "nodes_expanded": guided.nodes_expanded, "cpu_time": guided_time},
    ]
    print_figure("Ablation — TVF-guided search vs exact DFSearch",
                 rows, ["search", "planned_tasks", "nodes_expanded", "cpu_time"])

    # The guided search must expand no more nodes than the exact search and
    # stay close in assignment quality (the paper reports ~ equal tasks at
    # 42-66% of the CPU cost).
    assert guided.nodes_expanded <= exact.nodes_expanded
    assert guided.planned_tasks >= max(1, int(exact.planned_tasks * 0.7))
