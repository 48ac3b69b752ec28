"""Food-delivery peak-hour scenario with dynamic worker availability windows.

The paper's second motivating scenario: lunch and dinner peaks in a food
delivery service, with couriers whose availability windows include breaks
(they go offline between the peaks).  The example

1. builds a custom :class:`CityModel` with two restaurant clusters and a
   double-peak temporal profile,
2. gives every courier two availability windows (lunch shift, dinner shift),
3. runs the adaptive algorithm (Alg. 3) — the streaming
   :class:`~repro.simulation.platform.SCPlatform` replanning with
   :class:`~repro.assignment.strategies.DTAStrategy` at every event — and
4. reports how many orders were served and how work was spread over couriers.

Run with::

    python examples/food_delivery_peaks.py
"""

from __future__ import annotations

import statistics

from repro.assignment import DTAStrategy, PlannerConfig
from repro.core import ATAInstance, AvailabilityWindow
from repro.datasets.synthetic import (
    CityModel,
    DemandFlow,
    Hotspot,
    SyntheticWorkloadGenerator,
    WorkloadConfig,
)
from repro.simulation import SCPlatform
from repro.spatial import BoundingBox, Point
from repro.spatial.travel import EuclideanTravelModel


def delivery_city() -> CityModel:
    """Two restaurant clusters feeding the surrounding residential areas."""
    bounds = BoundingBox(0.0, 0.0, 6.0, 6.0)
    hotspots = [
        Hotspot("noodle_street", Point(1.5, 1.5), 0.3, 1.2, profile=(0.3, 1.8, 0.4, 0.4, 1.6, 0.3)),
        Hotspot("burger_row", Point(4.5, 4.5), 0.3, 1.0, profile=(0.2, 1.5, 0.5, 0.3, 1.8, 0.4)),
        Hotspot("homes_west", Point(1.0, 4.5), 0.6, 0.4, profile=(0.4, 0.6, 1.2, 0.5, 0.7, 1.3)),
        Hotspot("homes_east", Point(4.8, 1.2), 0.6, 0.4, profile=(0.4, 0.5, 1.1, 0.4, 0.8, 1.4)),
    ]
    flows = [
        DemandFlow("noodle_street", "homes_west", lag=400.0, strength=0.3),
        DemandFlow("burger_row", "homes_east", lag=400.0, strength=0.3),
    ]
    return CityModel(bounds=bounds, hotspots=hotspots, flows=flows)


def main() -> None:
    config = WorkloadConfig(
        name="food-delivery",
        num_workers=30,
        num_tasks=400,
        horizon=4000.0,
        history_horizon=0.0,
        task_valid_time=60.0,
        worker_available_time=4000.0,
        reachable_distance=1.5,
        worker_speed=0.01,
        seed=42,
    )
    generator = SyntheticWorkloadGenerator(city=delivery_city(), config=config)
    workload = generator.generate()
    instance = workload.instance

    # Give every courier two shifts: lunch and dinner, with a break between.
    horizon = config.horizon
    workers = []
    for worker in instance.workers:
        lunch = AvailabilityWindow(worker.on_time, min(worker.on_time + horizon * 0.35, worker.off_time))
        dinner_start = min(worker.on_time + horizon * 0.55, worker.off_time - 1.0)
        dinner = AvailabilityWindow(dinner_start, worker.off_time)
        workers.append(worker.with_windows([lunch, dinner]))

    print(f"Food-delivery scenario: {len(workers)} couriers with lunch+dinner shifts, "
          f"{instance.num_tasks} orders over {horizon / 60:.0f} minutes")

    travel = EuclideanTravelModel(speed=config.worker_speed)
    strategy = DTAStrategy(
        config=PlannerConfig(max_reachable=6, max_sequence_length=2, node_budget=4000),
        travel=travel,
    )
    shifts = ATAInstance(workers, instance.tasks, travel=travel, name="food-delivery")
    metrics = SCPlatform(shifts, strategy).run()

    served = metrics.assigned_tasks
    print(f"\nServed {served} / {instance.num_tasks} orders "
          f"({100.0 * served / instance.num_tasks:.1f}%) with {metrics.replans} replanning calls")

    per_courier = list(metrics.assigned_per_worker.values())
    if per_courier:
        print(f"Active couriers: {len(per_courier)}, "
              f"orders per active courier: mean {statistics.mean(per_courier):.1f}, "
              f"max {max(per_courier)}")


if __name__ == "__main__":
    main()
