"""Synthetic ride-hailing workload generator.

The generator models a city as a set of demand *hotspots* (university,
restaurant district, business park, ...) with

* a spatial footprint (Gaussian around a centre),
* a temporal intensity profile (rush-hour bumps), and
* *demand flows* between hotspots — a surge at the source hotspot raises
  demand at the destination hotspot after a lag, which is exactly the
  cross-region dependency the paper's DDGNN is designed to learn.

Workers go online near hotspots (drivers position themselves where demand
is) with configurable availability windows and reachable distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.problem import ATAInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.profiles import DAY_SECONDS, SpeedProfile
from repro.spatial.timedep import TimeDependentTravelModel
from repro.spatial.travel import EuclideanTravelModel, TravelModel


@dataclass(frozen=True)
class Hotspot:
    """A demand centre with a Gaussian spatial footprint."""

    name: str
    center: Point
    spread: float
    base_rate: float
    #: Relative intensity multipliers over the horizon (piecewise, resampled).
    profile: Tuple[float, ...] = (1.0,)

    def intensity(self, fraction_of_horizon: float) -> float:
        """Demand intensity at a normalised time in [0, 1]."""
        if not self.profile:
            return self.base_rate
        position = min(max(fraction_of_horizon, 0.0), 1.0) * (len(self.profile) - 1)
        lower = int(math.floor(position))
        upper = min(lower + 1, len(self.profile) - 1)
        weight = position - lower
        value = self.profile[lower] * (1.0 - weight) + self.profile[upper] * weight
        return self.base_rate * value


@dataclass(frozen=True)
class DemandFlow:
    """Cross-region dependency: demand at ``source`` raises demand at ``target``.

    ``lag`` is the delay (seconds) after which the induced demand appears;
    ``strength`` scales how many induced tasks each source task spawns.
    """

    source: str
    target: str
    lag: float
    strength: float


@dataclass
class CityModel:
    """A city: bounding box, hotspots and the demand flows between them."""

    bounds: BoundingBox
    hotspots: List[Hotspot]
    flows: List[DemandFlow] = field(default_factory=list)

    def hotspot(self, name: str) -> Hotspot:
        for hotspot in self.hotspots:
            if hotspot.name == name:
                return hotspot
        raise KeyError(f"unknown hotspot {name!r}")

    def total_base_rate(self) -> float:
        return sum(h.base_rate for h in self.hotspots)


@dataclass
class WorkloadConfig:
    """Parameters of one generated workload (one paper dataset)."""

    name: str = "synthetic"
    num_workers: int = 200
    num_tasks: int = 2000
    horizon: float = 7200.0                 # evaluation window length (s)
    history_horizon: float = 3600.0         # preceding window for training data (s)
    task_valid_time: float = 40.0           # e - p (paper default 40 s)
    worker_available_time: float = 3600.0   # off - on (paper default 1 h)
    reachable_distance: float = 1.0         # km (paper default 1 km)
    worker_speed: float = 0.012             # km / s (≈ 43 km/h urban driving)
    seed: int = 7


@dataclass
class SyntheticWorkload:
    """A generated workload: the ATA instance plus historical tasks."""

    instance: ATAInstance
    historical_tasks: List[Task]
    config: WorkloadConfig
    city: CityModel

    @property
    def name(self) -> str:
        return self.config.name


def default_city(seed: int = 0, size_km: float = 10.0) -> CityModel:
    """A Chengdu-scale default city with four hotspots and two demand flows."""
    bounds = BoundingBox(0.0, 0.0, size_km, size_km)
    quarter = size_km / 4.0
    hotspots = [
        Hotspot(
            name="university",
            center=Point(quarter, quarter),
            spread=size_km * 0.06,
            base_rate=1.0,
            profile=(0.6, 1.4, 1.0, 0.7, 0.9, 1.2),
        ),
        Hotspot(
            name="restaurants",
            center=Point(3 * quarter, quarter),
            spread=size_km * 0.05,
            base_rate=0.9,
            profile=(0.5, 0.8, 1.5, 1.2, 0.8, 1.0),
        ),
        Hotspot(
            name="business_park",
            center=Point(quarter, 3 * quarter),
            spread=size_km * 0.07,
            base_rate=0.8,
            profile=(1.2, 1.0, 0.7, 0.9, 1.3, 0.8),
        ),
        Hotspot(
            name="residential",
            center=Point(3 * quarter, 3 * quarter),
            spread=size_km * 0.09,
            base_rate=0.7,
            profile=(0.8, 0.9, 1.0, 1.1, 1.0, 1.2),
        ),
    ]
    flows = [
        DemandFlow(source="university", target="restaurants", lag=600.0, strength=0.35),
        DemandFlow(source="restaurants", target="residential", lag=900.0, strength=0.30),
    ]
    return CityModel(bounds=bounds, hotspots=hotspots, flows=flows)


def evaluation_peak_windows(
    evaluation_start: float, horizon: float, period: float = DAY_SECONDS
):
    """Rush-hour peak intervals placed inside an evaluation window.

    Real rush hours sit at fixed clock times; for the compressed synthetic
    horizons the morning peak is placed at 25–45 % and the evening peak at
    65–85 % of the window ``[evaluation_start, evaluation_start +
    horizon)`` — every replay crosses four profile boundaries, the
    workload the time-dependent planning stack exists for.  Shared by the
    Euclidean (:func:`rush_hour_workload`) and road-network
    (:func:`repro.roadnet.scenario.roadnet_rushhour`) scenario builders so
    the two cannot drift apart.
    """
    peaks = (
        (evaluation_start + 0.25 * horizon, evaluation_start + 0.45 * horizon),
        (evaluation_start + 0.65 * horizon, evaluation_start + 0.85 * horizon),
    )
    if peaks[-1][1] > period:
        raise ValueError(
            "evaluation window does not fit inside the profile period; "
            "pass a larger period"
        )
    return peaks


def evaluation_rush_profile(
    config: "WorkloadConfig",
    peak_multiplier: float = 0.55,
    offpeak_multiplier: float = 1.0,
    period: float = DAY_SECONDS,
) -> SpeedProfile:
    """A rush-hour :class:`SpeedProfile` whose peaks hit the evaluation
    window (see :func:`evaluation_peak_windows` for the placement)."""
    peaks = evaluation_peak_windows(config.history_horizon, config.horizon, period)
    return SpeedProfile.rush_hour(
        peaks=peaks,
        peak_multiplier=peak_multiplier,
        offpeak_multiplier=offpeak_multiplier,
        period=period,
    )


def rush_hour_workload(
    config: Optional["WorkloadConfig"] = None,
    city: Optional[CityModel] = None,
    peak_multiplier: float = 0.55,
) -> "SyntheticWorkload":
    """A synthetic workload whose travel times follow a rush-hour profile.

    The instance travels on a
    :class:`~repro.spatial.timedep.TimeDependentTravelModel` wrapping the
    Euclidean default — the ride-hailing-trace shape (cf.
    :mod:`repro.datasets.didi` / :mod:`repro.datasets.yueche`) where the
    street geometry is abstracted away but congestion is not.  See
    :func:`repro.roadnet.scenario.roadnet_rushhour` for the variant with
    per-edge-class congestion on a real street graph.
    """
    config = config or WorkloadConfig(name="rushhour")
    profile = evaluation_rush_profile(config, peak_multiplier=peak_multiplier)
    travel = TimeDependentTravelModel(
        EuclideanTravelModel(speed=config.worker_speed), profile
    )
    return SyntheticWorkloadGenerator(city=city, config=config, travel=travel).generate()


class SyntheticWorkloadGenerator:
    """Generates tasks and workers from a :class:`CityModel`."""

    def __init__(
        self,
        city: Optional[CityModel] = None,
        config: Optional[WorkloadConfig] = None,
        travel: Optional[TravelModel] = None,
    ) -> None:
        self.config = config or WorkloadConfig()
        self.city = city or default_city(seed=self.config.seed)
        #: Travel model attached to the generated instance; ``None`` keeps
        #: the Euclidean default.  Passing a road-network model makes every
        #: platform replay and planner consultation use network times
        #: (see :mod:`repro.roadnet.scenario` for a ready-made builder).
        self.travel = travel
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # Task generation
    # ------------------------------------------------------------------ #
    def _sample_location(self, hotspot: Hotspot) -> Point:
        point = Point(
            float(self._rng.normal(hotspot.center.x, hotspot.spread)),
            float(self._rng.normal(hotspot.center.y, hotspot.spread)),
        )
        return self.city.bounds.clamp(point)

    def _hotspot_weights(self, fraction: float) -> np.ndarray:
        weights = np.array([h.intensity(fraction) for h in self.city.hotspots], dtype=np.float64)
        total = weights.sum()
        return weights / total if total > 0 else np.full(len(weights), 1.0 / len(weights))

    def generate_tasks(
        self,
        num_tasks: int,
        start_time: float,
        horizon: float,
        start_task_id: int = 0,
    ) -> List[Task]:
        """Generate ``num_tasks`` tasks over ``[start_time, start_time + horizon)``.

        Base tasks are drawn from the hotspots' temporal profiles; demand
        flows then convert a fraction of source-hotspot tasks into induced
        tasks at the target hotspot after the flow lag, creating the
        cross-region dependency structure.
        """
        if num_tasks <= 0:
            return []
        config = self.config
        hotspot_index = {h.name: i for i, h in enumerate(self.city.hotspots)}

        # How many induced tasks each flow contributes (bounded to leave
        # room for base demand).
        flow_budget = {}
        induced_total = 0
        for flow in self.city.flows:
            count = int(num_tasks * flow.strength * 0.25)
            flow_budget[(flow.source, flow.target)] = count
            induced_total += count
        base_count = max(num_tasks - induced_total, 1)

        tasks: List[Task] = []
        next_id = start_task_id

        # Base demand.
        arrival_times = np.sort(self._rng.uniform(0.0, horizon, size=base_count))
        base_by_hotspot: dict = {h.name: [] for h in self.city.hotspots}
        for offset in arrival_times:
            fraction = offset / horizon
            weights = self._hotspot_weights(fraction)
            choice = int(self._rng.choice(len(self.city.hotspots), p=weights))
            hotspot = self.city.hotspots[choice]
            publication = start_time + float(offset)
            tasks.append(
                Task(
                    task_id=next_id,
                    location=self._sample_location(hotspot),
                    publication_time=publication,
                    expiration_time=publication + config.task_valid_time,
                )
            )
            base_by_hotspot[hotspot.name].append(publication)
            next_id += 1

        # Induced demand through flows.
        for flow in self.city.flows:
            budget = flow_budget.get((flow.source, flow.target), 0)
            source_times = base_by_hotspot.get(flow.source, [])
            if budget <= 0 or not source_times:
                continue
            target = self.city.hotspot(flow.target)
            chosen = self._rng.choice(len(source_times), size=min(budget, len(source_times)), replace=False)
            for index in np.atleast_1d(chosen):
                publication = source_times[int(index)] + flow.lag + float(self._rng.normal(0.0, flow.lag * 0.1))
                if not start_time <= publication < start_time + horizon:
                    continue
                tasks.append(
                    Task(
                        task_id=next_id,
                        location=self._sample_location(target),
                        publication_time=publication,
                        expiration_time=publication + config.task_valid_time,
                    )
                )
                next_id += 1

        # Top up (flow tasks that fell outside the horizon) with base demand.
        while len(tasks) < num_tasks:
            offset = float(self._rng.uniform(0.0, horizon))
            fraction = offset / horizon
            weights = self._hotspot_weights(fraction)
            choice = int(self._rng.choice(len(self.city.hotspots), p=weights))
            hotspot = self.city.hotspots[choice]
            publication = start_time + offset
            tasks.append(
                Task(
                    task_id=next_id,
                    location=self._sample_location(hotspot),
                    publication_time=publication,
                    expiration_time=publication + config.task_valid_time,
                )
            )
            next_id += 1

        tasks = tasks[:num_tasks]
        tasks.sort(key=lambda task: task.publication_time)
        return tasks

    # ------------------------------------------------------------------ #
    # Worker generation
    # ------------------------------------------------------------------ #
    def generate_workers(self, num_workers: int, start_time: float, horizon: float) -> List[Worker]:
        """Generate workers positioned near hotspots with staggered shifts."""
        config = self.config
        workers: List[Worker] = []
        weights = self._hotspot_weights(0.5)
        for worker_id in range(num_workers):
            choice = int(self._rng.choice(len(self.city.hotspots), p=weights))
            hotspot = self.city.hotspots[choice]
            location = self._sample_location(hotspot)
            latest_start = max(horizon - config.worker_available_time, 0.0)
            on_offset = float(self._rng.uniform(0.0, latest_start)) if latest_start > 0 else 0.0
            on_time = start_time + on_offset
            off_time = min(on_time + config.worker_available_time, start_time + horizon)
            if off_time <= on_time:
                off_time = on_time + config.worker_available_time
            workers.append(
                Worker(
                    worker_id=worker_id,
                    location=location,
                    reachable_distance=config.reachable_distance,
                    on_time=on_time,
                    off_time=off_time,
                    speed=config.worker_speed,
                )
            )
        return workers

    # ------------------------------------------------------------------ #
    def generate(self) -> SyntheticWorkload:
        """Generate the full workload: history, evaluation tasks and workers."""
        config = self.config
        historical = self.generate_tasks(
            num_tasks=int(config.num_tasks * config.history_horizon / max(config.horizon, 1.0)),
            start_time=0.0,
            horizon=config.history_horizon,
            start_task_id=1_000_000,
        )
        evaluation_start = config.history_horizon
        tasks = self.generate_tasks(
            num_tasks=config.num_tasks,
            start_time=evaluation_start,
            horizon=config.horizon,
            start_task_id=0,
        )
        workers = self.generate_workers(config.num_workers, evaluation_start, config.horizon)
        instance = ATAInstance(
            workers=workers,
            tasks=tasks,
            travel=self.travel or EuclideanTravelModel(speed=config.worker_speed),
            name=config.name,
        )
        return SyntheticWorkload(
            instance=instance,
            historical_tasks=historical,
            config=config,
            city=self.city,
        )
