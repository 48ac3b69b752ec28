"""The plain-list Dijkstra kernel against the NumPy-slice oracle, bit for bit.

``repro.roadnet.dijkstra.dijkstra_row`` and
``reference_dijkstra.reference_dijkstra_row`` must agree with
``np.array_equal`` on ``times`` **and** ``lengths`` from every source:
equal-time paths of different length are decided by heap and relaxation
order, so ``lengths`` is where a reordered kernel would show first.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from reference_dijkstra import reference_dijkstra_row
from repro.assignment.strategies import make_strategy
from repro.datasets.synthetic import WorkloadConfig
from repro.roadnet import (
    RoadNetwork,
    RoadNetworkTravelModel,
    classify_edges_by_speed,
    dijkstra_row,
    grid_network,
    radial_network,
    roadnet_rushhour,
    rush_hour_edge_profiles,
)
from repro.simulation.platform import SCPlatform
from repro.spatial.geometry import Point


def assert_rows_match_oracle(network, edge_time=None):
    for source in range(network.num_nodes):
        times, lengths = dijkstra_row(network, source, edge_time=edge_time)
        ref_times, ref_lengths = reference_dijkstra_row(
            network, source, edge_time=edge_time
        )
        assert times.dtype == lengths.dtype == np.float64
        assert np.array_equal(times, ref_times), f"times differ from source {source}"
        assert np.array_equal(lengths, ref_lengths), f"lengths differ from source {source}"


def _line(num_nodes, edges):
    return RoadNetwork.from_edges([(float(i), 0.0) for i in range(num_nodes)], edges)


HAND_BUILT = {
    # Two edges 0 -> 1: only the strictly faster one may win, whichever
    # comes first in CSR order.
    "parallel_edges_fast_first": _line(3, [(0, 1, 5.0, 1.0), (0, 1, 1.0, 2.0), (1, 2, 1.0, 1.0)]),
    "parallel_edges_fast_last": _line(3, [(0, 1, 1.0, 2.0), (0, 1, 5.0, 1.0), (1, 2, 1.0, 1.0)]),
    "parallel_edges_equal_time": _line(2, [(0, 1, 1.0, 2.0), (0, 1, 7.0, 2.0)]),
    # 0 -> 3 in time 2.0 via 1 (length 2) or via 2 (length 9): the tie on
    # time is what decides the reported length.
    "equal_time_paths_short_first": _line(
        4, [(0, 1, 1.0, 1.0), (0, 2, 4.0, 1.0), (1, 3, 1.0, 1.0), (2, 3, 5.0, 1.0)]
    ),
    "equal_time_paths_long_first": _line(
        4, [(0, 1, 4.0, 1.0), (0, 2, 1.0, 1.0), (1, 3, 5.0, 1.0), (2, 3, 1.0, 1.0)]
    ),
    "zero_time_edges": _line(
        4, [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 0, 1.0, 0.0), (2, 3, 2.0, 1.0), (0, 3, 9.0, 1.0)]
    ),
    "unreachable_and_isolated": _line(5, [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (2, 3, 1.0, 1.0)]),
    "single_node": _line(1, []),
}


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_grid_one_way_jitter(self, seed):
        assert_rows_match_oracle(
            grid_network(9, 8, spacing=0.7, seed=seed, speed_jitter=0.35, one_way_fraction=0.2)
        )

    def test_uniform_grid_is_all_ties(self):
        # No jitter: every monotone lattice path ties on time.
        assert_rows_match_oracle(grid_network(7, 7))

    def test_radial(self):
        assert_rows_match_oracle(radial_network(rings=4, spokes=7, seed=5, speed_jitter=0.3))

    def test_rush_hour_window_overrides(self):
        net = grid_network(8, 8, seed=4, speed_jitter=0.3, one_way_fraction=0.1)
        profiles = rush_hour_edge_profiles(0.0, 7200.0)
        edge_class = classify_edges_by_speed(net, num_classes=len(profiles))
        breakpoints = sorted({b for p in profiles for b in p.breakpoints})
        signatures = {
            tuple(p.multiplier_at(t) for p in profiles) for t in breakpoints
        }
        assert len(signatures) > 1
        for sig in sorted(signatures):
            scaled = net.edge_time / np.asarray(sig, dtype=np.float64)[edge_class]
            assert_rows_match_oracle(net, edge_time=scaled)

    def test_list_override_equals_array_override(self):
        net = grid_network(5, 5, seed=13, speed_jitter=0.3)
        scaled = net.edge_time / 0.5
        for source in (0, 12, 24):
            from_array = dijkstra_row(net, source, edge_time=scaled)
            from_list = dijkstra_row(net, source, edge_time=scaled.tolist())
            assert np.array_equal(from_array[0], from_list[0])
            assert np.array_equal(from_array[1], from_list[1])

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        assert_rows_match_oracle(HAND_BUILT[name])

    def test_hand_built_expectations(self):
        # The oracle agreeing is not enough if both were wrong: pin the
        # cases whose answer is decided by the tie rules.
        _, lengths = dijkstra_row(HAND_BUILT["parallel_edges_equal_time"], 0)
        assert lengths[1] == 1.0  # first in CSR order; equal time does not replace
        _, lengths = dijkstra_row(HAND_BUILT["equal_time_paths_short_first"], 0)
        assert lengths[3] == 2.0  # (1.0, node 1) pops before (1.0, node 2)
        _, lengths = dijkstra_row(HAND_BUILT["equal_time_paths_long_first"], 0)
        assert lengths[3] == 9.0
        times, lengths = dijkstra_row(HAND_BUILT["unreachable_and_isolated"], 0)
        assert times.tolist() == [0.0, 1.0, math.inf, math.inf, math.inf]
        assert lengths.tolist() == [0.0, 1.0, math.inf, math.inf, math.inf]
        times, lengths = dijkstra_row(HAND_BUILT["unreachable_and_isolated"], 4)
        assert times[4] == lengths[4] == 0.0
        assert np.isinf(np.delete(times, 4)).all()


def _small_rushhour():
    config = WorkloadConfig(
        name="rushhour-equivalence",
        num_workers=8,
        num_tasks=60,
        horizon=2400.0,
        history_horizon=0.0,
        task_valid_time=120.0,
        reachable_distance=1.5,
        seed=13,
    )
    network = grid_network(
        10, 10, spacing=0.4, speed=config.worker_speed, seed=13,
        speed_jitter=0.3, one_way_fraction=0.1,
    )
    return roadnet_rushhour(network, config=config, num_hotspots=3)


def _replay():
    workload = _small_rushhour()
    model = workload.instance.travel
    platform = SCPlatform(workload.instance, make_strategy("dta", travel=model))
    metrics = platform.run()
    platform.close()
    return metrics.deterministic_state(), model


def test_platform_replay_identical_under_oracle(monkeypatch):
    state, model = _replay()
    assert model.row_cache_misses > 0 and state["assigned_tasks"] > 0
    assert len(model._edge_time_lists) > 1  # the replay crossed a window

    def oracle(network, source, edge_time=None):
        # The model hands the kernel its per-window list; the oracle
        # slices arrays.  Same float64 values either way.
        return reference_dijkstra_row(
            network, source, edge_time=np.asarray(edge_time, dtype=np.float64)
        )

    monkeypatch.setattr("repro.roadnet.model.dijkstra_row", oracle)
    oracle_state, oracle_model = _replay()
    assert oracle_state == state
    assert oracle_model.cache_stats() == model.cache_stats()


class TestListViewsAreLazy:
    def test_built_by_first_cold_row_not_by_construction(self):
        net = grid_network(6, 6, seed=2, speed_jitter=0.3)
        profiles = rush_hour_edge_profiles(0.0, 7200.0)
        model = RoadNetworkTravelModel(
            net,
            edge_profiles=profiles,
            edge_class=classify_edges_by_speed(net, num_classes=len(profiles)),
        )
        model.begin_epoch(profiles[-1].breakpoints[1])  # into the first peak
        assert model._window_sig != (1.0, 1.0)
        assert net._csr_lists is None
        assert model._edge_time_lists == {}

        model.time(Point(0.2, 0.3), Point(4.1, 3.2))
        indptr, indices, edge_length = net._csr_lists
        assert indptr == net.indptr.tolist()
        assert indices == net.indices.tolist()
        assert edge_length == net.edge_length.tolist()
        assert list(model._edge_time_lists) == [model._window_sig]
        assert model._edge_time_lists[model._window_sig] == model._edge_time.tolist()

        # A window's list is built once, on that window's first cold row.
        model.begin_epoch(0.0)
        assert len(model._edge_time_lists) == 1
        model.time(Point(0.2, 0.3), Point(4.1, 3.2))
        assert len(model._edge_time_lists) == 2

    def test_views_are_not_pickled_or_compared(self):
        net = grid_network(5, 5, seed=1, speed_jitter=0.2)
        before = pickle.dumps(net)
        twin = copy.copy(net)  # shares the arrays, so `==` is decidable
        dijkstra_row(net, 0)
        assert net._csr_lists is not None and twin._csr_lists is None
        assert net == twin
        assert pickle.dumps(net) == before
        assert pickle.loads(before)._csr_lists is None
        assert copy.deepcopy(net)._csr_lists is None
        assert "_csr_lists" not in repr(net)
