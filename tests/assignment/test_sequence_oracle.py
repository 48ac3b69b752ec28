"""The sequence enumerator against its explicit-stack oracle, bit for bit.

``maximal_valid_sequences`` must return what
``reference_sequences.reference_maximal_valid_sequences`` returns: the same
task-id lists in the same order, and the same ``horizon_out`` float.  The
instances are small (n <= 12) but the output caps are tiny
(``max_sequences`` 1-4), so the ``max_sequences * 8`` subset budget binds
on most draws — the shipped config (10 reachable tasks, length 3, 32
sequences) stores at most 10 + 45 + 120 = 175 subsets against a budget of
256, so the budget's cut-off is exercised nowhere else.  Legs come from
Euclidean, asymmetric, time-dependent (priced per leg at its departure)
and road-network models, fed by a shared ``TravelMatrix`` or by the
scalar model.
"""

from __future__ import annotations

import gc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conformance import AsymmetricTimeModel
from reference_sequences import reference_maximal_valid_sequences
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.task import Task
from repro.core.worker import Worker
from repro.roadnet import RoadNetworkTravelModel, grid_network
from repro.spatial.geometry import Point
from repro.spatial.profiles import SpeedProfile
from repro.spatial.timedep import TimeDependentTravelModel
from repro.spatial.travel import EuclideanTravelModel, TravelModel
from repro.spatial.travel_matrix import TravelMatrix

#: Slow until t=6, fast until t=14, then slow again: sequences planned
#: from ``now`` in [0, 12) routinely cross a window boundary mid-chain.
RUSH = SpeedProfile(
    breakpoints=(0.0, 6.0, 14.0), multipliers=(0.6, 1.7, 0.8), period=40.0
)
#: 6 x 6 streets, 1.5 apart: tasks snap to shared nodes, so orders with
#: literally equal leg sums (the enumerator's tie rule) are common.
NETWORK = grid_network(6, 6, spacing=1.5, seed=7, speed_jitter=0.3, one_way_fraction=0.2)


def _model(kind: str):
    if kind == "euclidean":
        return EuclideanTravelModel(speed=1.3)
    if kind == "asymmetric":
        return AsymmetricTimeModel(speed=1.0)
    if kind == "timedep":
        return TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), RUSH)
    return RoadNetworkTravelModel(NETWORK, edge_profiles=(RUSH,))


#: Lattice points as well as arbitrary floats: on a lattice two orders of
#: one subset often have bit-equal completions (sqrt(2) + 1 both ways),
#: which is what the tie rule decides.
coord = st.integers(0, 7).map(float) | st.floats(0.0, 7.5)
task_draw = st.tuples(coord, coord, st.floats(1.0, 30.0))


@st.composite
def calls(draw):
    worker = Worker(
        1,
        Point(draw(coord), draw(coord)),
        draw(st.floats(1.0, 12.0)),
        0.0,
        draw(st.floats(5.0, 60.0)),
    )
    now = draw(st.floats(0.0, 12.0))
    tasks = [
        Task(100 + j, Point(x, y), 0.0, now + valid)
        for j, (x, y, valid) in enumerate(draw(st.lists(task_draw, max_size=12)))
    ]
    return (
        worker,
        tasks,
        now,
        draw(st.sampled_from(["euclidean", "asymmetric", "timedep", "roadnet"])),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.booleans()),
        draw(st.booleans()),
    )


def _run(fn, worker, tasks, now, travel, matrix, max_length, max_sequences, per_leg):
    horizon = []
    found = fn(
        worker,
        tasks,
        now,
        travel,
        max_length=max_length,
        max_sequences=max_sequences,
        matrix=matrix,
        horizon_out=horizon,
        per_leg=per_leg,
    )
    return [sequence.task_ids for sequence in found], horizon


class TestMatchesReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(calls())
    def test_sequences_and_horizon_identical(self, call):
        worker, tasks, now, kind, max_length, max_sequences, use_matrix, per_leg = call
        travel = _model(kind)
        travel.begin_epoch(now)
        matrix = TravelMatrix([worker], tasks, travel, now) if use_matrix else None
        args = (worker, tasks, now, travel, matrix, max_length, max_sequences, per_leg)
        product = _run(maximal_valid_sequences, *args)
        oracle = _run(reference_maximal_valid_sequences, *args)
        assert product[0] == oracle[0]
        # Bit-identical floats: compare the representations, which also
        # tells an infinite horizon from a huge one.
        assert [h.hex() for h in product[1]] == [h.hex() for h in oracle[1]]

    def test_budget_binds_on_a_dense_pool(self):
        """Twelve mutually reachable tasks, budget 8: the search stops
        entering nodes after the eighth stored subset, and both
        enumerators stop at the same one."""
        worker = Worker(1, Point(0.0, 0.0), 50.0, 0.0, 500.0)
        tasks = [
            Task(100 + j, Point(0.3 * j, 0.2 * (j % 3)), 0.0, 400.0)
            for j in range(12)
        ]
        travel = EuclideanTravelModel(speed=1.0)
        for max_length in (2, 3, 4):
            args = (worker, tasks, 0.0, travel, None, max_length, 1, True)
            product = _run(maximal_valid_sequences, *args)
            assert product == _run(reference_maximal_valid_sequences, *args)
            assert len(product[0]) == 1


def test_search_leaves_no_cycle(no_gc):
    """The recursive search reaches itself through a closure cell; the
    enumerator must break that cycle, or every call's subset tables live
    until the cyclic collector runs (it raised the incremental engine's
    per-event allocation ceiling by a quarter)."""
    worker = Worker(1, Point(0.0, 0.0), 50.0, 0.0, 500.0)
    tasks = [Task(100 + j, Point(0.5 * j, 0.3 * (j % 2)), 0.0, 400.0) for j in range(6)]
    travel = EuclideanTravelModel(speed=1.0)
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        maximal_valid_sequences(worker, tasks, 0.0, travel, horizon_out=[])
        gc.collect()
        leaked = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


class TableModel(TravelModel):
    """Distances and (asymmetric) times read from explicit tables, so a
    test can state exactly which legs are valid."""

    def __init__(self, distances, times) -> None:
        super().__init__(speed=1.0)
        self.distances = distances
        self.times = times

    def distance(self, origin, destination):
        if origin == destination:
            return 0.0
        return self.distances[frozenset((origin, destination))]

    def time(self, origin, destination):
        return 0.0 if origin == destination else self.times[(origin, destination)]


W, A, B, C = (Point(float(k), 0.0) for k in range(4))
FAR = 10.0


def _table(distances, times):
    return TableModel(
        {frozenset(pair): value for pair, value in distances.items()}, times
    )


class TestHandBuiltCases:
    """Instances small enough to trace by hand; each pins one rule of the
    search and filter, on the product and the oracle alike."""

    def _both(self, worker, tasks, travel, max_length=3):
        args = (worker, tasks, 0.0, travel, None, max_length, 8, True)
        product = _run(maximal_valid_sequences, *args)
        assert product == _run(reference_maximal_valid_sequences, *args)
        return product[0]

    def test_dominated_through_a_subset_no_order_reached(self):
        """{C} is inside {A, B, C} (stored, order A B C) but inside no
        stored pair: A-C is beyond reach and C -> B arrives too late.  The
        closure must reach {C} through the unstored {A, C} / {B, C}."""
        worker = Worker(1, W, 1.5, 0.0, 100.0)
        tasks = [Task(11, A, 0.0, 50.0), Task(12, B, 0.0, 3.0), Task(13, C, 0.0, 50.0)]
        travel = _table(
            {(W, A): 1.0, (W, B): FAR, (W, C): 1.0, (A, B): 1.0, (A, C): FAR, (B, C): 1.0},
            {
                (W, A): 1.0, (W, B): 1.0, (W, C): 1.0,
                (A, B): 1.0, (B, A): 1.0, (A, C): 1.0, (C, A): 1.0,
                (B, C): 1.0, (C, B): 5.0,
            },
        )
        assert self._both(worker, tasks, travel) == [(11, 12, 13)]

    def test_a_tied_order_is_extended(self):
        """A -> B and B -> A complete at the same instant, and only B A C
        covers all three tasks (C is late after A B, B is late after C),
        so the tied order must be extended, not dropped."""
        worker = Worker(1, W, FAR, 0.0, 100.0)
        tasks = [Task(11, A, 0.0, 50.0), Task(12, B, 0.0, 3.5), Task(13, C, 0.0, 4.0)]
        times = {(W, A): 1.0, (W, B): 1.0, (W, C): 3.5}
        for one, two in ((A, B), (B, A), (A, C), (C, A)):
            times[(one, two)] = 1.0
        times[(B, C)] = times[(C, B)] = 5.0
        distances = {
            (one, two): 1.0
            for one, two in ((W, A), (W, B), (W, C), (A, B), (A, C), (B, C))
        }
        assert self._both(worker, tasks, _table(distances, times)) == [(12, 11, 13)]
