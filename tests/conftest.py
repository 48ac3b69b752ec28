"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The shared travel-model conformance suite (tests/spatial/conformance.py)
# and the oracles (tests/assignment/reference_{pipeline,partition,tvf}.py,
# tests/roadnet/reference_dijkstra.py) are imported by suites in several
# test directories; make them resolvable regardless of which file pytest
# collects first.
for _shared in ("spatial", "assignment", "roadnet"):
    _shared_dir = Path(__file__).resolve().parent / _shared
    if str(_shared_dir) not in sys.path:
        sys.path.insert(0, str(_shared_dir))

from repro.core.problem import ATAInstance            # noqa: E402
from repro.core.task import Task                      # noqa: E402
from repro.core.worker import Worker                  # noqa: E402
from repro.spatial.geometry import BoundingBox, Point  # noqa: E402
from repro.spatial.grid import GridSpec               # noqa: E402
from repro.spatial.travel import EuclideanTravelModel  # noqa: E402


@pytest.fixture
def no_gc():
    """Run the test with the cyclic garbage collector off (restored after),
    so only reference counting can free what the test drops."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def unit_travel() -> EuclideanTravelModel:
    """Travel model moving 1 distance unit per time unit."""
    return EuclideanTravelModel(speed=1.0)


@pytest.fixture
def simple_worker() -> Worker:
    """A worker at the origin, reach 5, online for [0, 100)."""
    return Worker(
        worker_id=1,
        location=Point(0.0, 0.0),
        reachable_distance=5.0,
        on_time=0.0,
        off_time=100.0,
        speed=1.0,
    )


@pytest.fixture
def nearby_tasks() -> list:
    """Three tasks close to the origin with generous deadlines."""
    return [
        Task(task_id=1, location=Point(1.0, 0.0), publication_time=0.0, expiration_time=50.0),
        Task(task_id=2, location=Point(2.0, 0.0), publication_time=0.0, expiration_time=50.0),
        Task(task_id=3, location=Point(0.0, 2.0), publication_time=0.0, expiration_time=50.0),
    ]


@pytest.fixture
def paper_example_instance() -> ATAInstance:
    """The running example of Fig. 1 (3 workers, 9 tasks, reach 1.2).

    Travel speed is chosen so that every unit of distance takes one time
    unit, matching the figure's integer timeline.
    """
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
        Task(task_id=1, location=Point(1.5, 1.2), publication_time=1.0, expiration_time=4.0),
        Task(task_id=2, location=Point(2.5, 2.0), publication_time=1.0, expiration_time=6.0),
        Task(task_id=3, location=Point(2.2, 1.5), publication_time=1.0, expiration_time=4.0),
        Task(task_id=4, location=Point(3.2, 1.7), publication_time=1.0, expiration_time=6.0),
        Task(task_id=5, location=Point(1.5, 2.5), publication_time=2.0, expiration_time=8.0),
        Task(task_id=6, location=Point(2.0, 3.2), publication_time=2.0, expiration_time=8.0),
        Task(task_id=7, location=Point(4.0, 1.0), publication_time=4.0, expiration_time=9.0),
        Task(task_id=8, location=Point(1.0, 3.0), publication_time=4.0, expiration_time=8.0),
        Task(task_id=9, location=Point(1.0, 1.7), publication_time=4.0, expiration_time=9.0),
    ]
    return ATAInstance(workers, tasks, travel=EuclideanTravelModel(speed=speed), name="fig1")


@pytest.fixture
def small_grid() -> GridSpec:
    """A 4x4 grid over a 10x10 box."""
    return GridSpec(BoundingBox(0.0, 0.0, 10.0, 10.0), rows=4, cols=4)


@pytest.fixture
def tiny_workload():
    """A miniature Yueche-like workload used by integration tests."""
    from repro.datasets.yueche import generate_yueche

    return generate_yueche(scale=0.02, seed=3)
