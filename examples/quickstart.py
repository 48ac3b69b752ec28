"""Quickstart: build a tiny ATA instance by hand and run every strategy.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ATAInstance, PlannerConfig, Point, SimulationRunner, Task, Worker
from repro.experiments.reporting import format_table
from repro.simulation import PlatformConfig
from repro.spatial.travel import EuclideanTravelModel


def build_instance() -> ATAInstance:
    """The Fig. 1 running example of the paper: 3 workers, 9 tasks, reach 1.2."""
    speed = 1.0
    workers = [
        Worker(worker_id=1, location=Point(0.5, 1.0), reachable_distance=1.2,
               on_time=1.0, off_time=10.0, speed=speed),
        Worker(worker_id=2, location=Point(2.5, 3.2), reachable_distance=1.2,
               on_time=1.0, off_time=10.0, speed=speed),
        Worker(worker_id=3, location=Point(4.0, 2.2), reachable_distance=1.2,
               on_time=3.0, off_time=10.0, speed=speed),
    ]
    tasks = [
        Task(1, Point(1.5, 1.2), 1.0, 4.0),
        Task(2, Point(2.5, 2.0), 1.0, 6.0),
        Task(3, Point(2.2, 1.5), 1.0, 4.0),
        Task(4, Point(3.2, 1.7), 1.0, 6.0),
        Task(5, Point(1.5, 2.5), 2.0, 8.0),
        Task(6, Point(2.0, 3.2), 2.0, 8.0),
        Task(7, Point(4.0, 1.0), 4.0, 9.0),
        Task(8, Point(1.0, 3.0), 4.0, 8.0),
        Task(9, Point(1.0, 1.7), 4.0, 9.0),
    ]
    return ATAInstance(workers, tasks, travel=EuclideanTravelModel(speed=speed), name="fig1")


def main() -> None:
    instance = build_instance()
    print(f"Instance '{instance.name}': {instance.num_workers} workers, {instance.num_tasks} tasks")

    runner = SimulationRunner(
        instance,
        platform_config=PlatformConfig(replan_interval=0.0),
        planner_config=PlannerConfig(max_reachable=9, max_sequence_length=3),
    )
    rows = []
    for method in ["Greedy", "FTA", "DTA", "DTA+TP", "DATA-WA"]:
        report = runner.run_strategy(method)
        rows.append(
            {
                "method": method,
                "assigned tasks": report.assigned_tasks,
                "mean CPU time (s)": round(report.mean_cpu_time, 5),
                "replans": report.replans,
            }
        )
    print()
    print(format_table(rows, ["method", "assigned tasks", "mean CPU time (s)", "replans"],
                       title="Running example (paper Fig. 1): Greedy assigns 5, "
                             "FTA and the adaptive methods assign 8"))


if __name__ == "__main__":
    main()
