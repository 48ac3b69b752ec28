"""Road-network subsystem unit tests: graphs, Dijkstra rows, the model."""

import math
import random

import numpy as np
import pytest

from repro.roadnet import (
    RoadNetwork,
    RoadNetworkTravelModel,
    dijkstra_row,
    grid_network,
    load_edge_list,
    radial_network,
    save_edge_list,
)
from repro.spatial.geometry import Point, euclidean_distance


def _as_nx(network):
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.num_nodes))
    for u in range(network.num_nodes):
        nbrs, lengths, times = network.out_edges(u)
        for v, length, time in zip(nbrs.tolist(), lengths.tolist(), times.tolist()):
            graph.add_edge(u, v, time=time, length=length)
    return graph


class TestGraph:
    def test_grid_shape_and_dilation(self):
        net = grid_network(5, 7, spacing=0.5)
        assert net.num_nodes == 35
        # 4 horizontal + ... each undirected pair contributes 2 directed edges.
        undirected = 5 * 6 + 7 * 4
        assert net.num_edges == 2 * undirected
        assert net.min_dilation == pytest.approx(1.0)
        assert net.node_point(0) == Point(0.0, 0.0)

    def test_radial_shape(self):
        net = radial_network(rings=3, spokes=6, ring_spacing=1.0)
        assert net.num_nodes == 1 + 3 * 6
        assert net.min_dilation >= 1.0 - 1e-12
        # CSR is internally consistent.
        assert net.indptr[0] == 0
        assert net.indptr[-1] == net.num_edges
        assert (np.diff(net.indptr) >= 0).all()

    def test_speed_jitter_makes_times_asymmetric(self):
        net = grid_network(4, 4, seed=11, speed_jitter=0.4)
        asym = 0
        for u in range(net.num_nodes):
            nbrs, _, times = net.out_edges(u)
            for v, t_uv in zip(nbrs.tolist(), times.tolist()):
                back_nbrs, _, back_times = net.out_edges(v)
                for w, t_vu in zip(back_nbrs.tolist(), back_times.tolist()):
                    if w == u and t_uv != t_vu:
                        asym += 1
        assert asym > 0

    def test_one_way_fraction_drops_reverse_edges(self):
        full = grid_network(5, 5, seed=3)
        one_way = grid_network(5, 5, seed=3, one_way_fraction=0.5)
        assert one_way.num_edges < full.num_edges

    def test_jitter_and_one_way_apply_without_seed(self):
        # Regression: seed=None used to silently disable both knobs.
        full = grid_network(5, 5)
        net = grid_network(5, 5, speed_jitter=0.4, one_way_fraction=0.5)
        assert net.num_edges < full.num_edges
        assert len(set(net.edge_time.tolist())) > 1

    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            RoadNetwork.from_edges([(0.0, 0.0)], [(0, 5, 1.0, 1.0)])
        with pytest.raises(ValueError):
            RoadNetwork.from_edges([(0.0, 0.0), (1.0, 0.0)], [(0, 1, -1.0, 1.0)])

    def test_edge_list_round_trip(self, tmp_path):
        net = grid_network(4, 3, spacing=0.7, seed=5, speed_jitter=0.3)
        path = tmp_path / "net.txt"
        save_edge_list(net, path)
        loaded = load_edge_list(path)
        assert loaded.num_nodes == net.num_nodes
        assert loaded.num_edges == net.num_edges
        assert np.array_equal(loaded.node_x, net.node_x)
        assert np.array_equal(loaded.node_y, net.node_y)
        assert np.array_equal(loaded.indptr, net.indptr)
        assert np.array_equal(loaded.indices, net.indices)
        assert np.array_equal(loaded.edge_length, net.edge_length)
        assert np.array_equal(loaded.edge_time, net.edge_time)

    def test_edge_list_default_time_and_errors(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(
            "# tiny\nnode 10 0.0 0.0\nnode 20 3.0 4.0\nedge 10 20 5.0\n"
        )
        net = load_edge_list(path, default_speed=2.0)
        assert net.num_nodes == 2
        assert net.edge_time[0] == pytest.approx(2.5)
        bad = tmp_path / "bad.txt"
        bad.write_text("street 1 2\n")
        with pytest.raises(ValueError):
            load_edge_list(bad)


class TestDijkstra:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        import networkx as nx

        net = grid_network(6, 5, seed=seed, speed_jitter=0.35, one_way_fraction=0.15)
        graph = _as_nx(net)
        for source in (0, net.num_nodes // 2, net.num_nodes - 1):
            times, lengths = dijkstra_row(net, source)
            reference = nx.single_source_dijkstra_path_length(graph, source, weight="time")
            for v in range(net.num_nodes):
                if v in reference:
                    assert times[v] == pytest.approx(reference[v], abs=1e-12)
                    assert math.isfinite(lengths[v])
                else:
                    assert math.isinf(times[v]) and math.isinf(lengths[v])

    def test_deterministic_rows(self):
        net = grid_network(6, 6, seed=2, speed_jitter=0.3)
        a_t, a_l = dijkstra_row(net, 7)
        b_t, b_l = dijkstra_row(net, 7)
        assert np.array_equal(a_t, b_t)
        assert np.array_equal(a_l, b_l)

    def test_length_follows_fastest_path(self):
        # Two routes 0 -> 2: direct (length 1, slow) and via 1 (length 4,
        # fast).  Time must pick the detour and length must report the
        # detour's length, not the shortest length.
        nodes = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0)]
        edges = [
            (0, 2, 1.0, 10.0),
            (0, 1, 2.0, 1.0),
            (1, 2, 2.0, 1.0),
        ]
        net = RoadNetwork.from_edges(nodes, edges)
        times, lengths = dijkstra_row(net, 0)
        assert times[2] == pytest.approx(2.0)
        assert lengths[2] == pytest.approx(4.0)

    def test_invalid_source(self):
        net = grid_network(2, 2)
        with pytest.raises(ValueError):
            dijkstra_row(net, 99)


class TestRoadNetworkTravelModel:
    @pytest.fixture
    def model(self):
        net = grid_network(7, 7, spacing=1.0, speed=1.5, seed=9, speed_jitter=0.3)
        return RoadNetworkTravelModel(net, speed=1.5)

    def test_scalar_vector_identity_via_conformance(self, model):
        # Scalar vs pairwise/legs/TravelMatrix batteries are the
        # shared conformance checks (the full battery also runs in
        # tests/spatial/test_conformance.py).
        from conformance import check_scalar_vector_identity

        rng = np.random.default_rng(4)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 6, (9, 2))]
        check_scalar_vector_identity(model, points, points)

    def test_times_are_asymmetric_somewhere(self, model):
        rng = np.random.default_rng(12)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 6, (12, 2))]
        assert any(
            model.time(a, b) != model.time(b, a)
            for a in points
            for b in points
            if a != b
        )

    def test_snap_nearest_and_deterministic(self, model):
        rng = np.random.default_rng(3)
        nodes = [model.network.node_point(i) for i in range(model.network.num_nodes)]
        for x, y in rng.uniform(-1, 7, (20, 2)):
            point = Point(float(x), float(y))
            node, access = model.snap(point)
            best = min(euclidean_distance(n, point) for n in nodes)
            assert access == pytest.approx(best)
            assert euclidean_distance(nodes[node], point) == access
            assert model.snap(point) == (node, access)  # cache hit identical

    def test_snap_equidistant_breaks_ties_by_node_id(self):
        net = grid_network(2, 2, spacing=2.0)
        model = RoadNetworkTravelModel(net)
        # Centre of the cell: all four nodes equidistant -> smallest id.
        node, _ = model.snap(Point(1.0, 1.0))
        assert node == 0

    def test_distance_dominates_euclidean(self, model):
        # min_dilation == 1 networks: network distance >= straight line,
        # the property behind the identity reach_bound.
        rng = np.random.default_rng(21)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 6, (10, 2))]
        for a in points:
            for b in points:
                assert model.distance(a, b) >= euclidean_distance(a, b) - 1e-9
        assert model.reach_bound(3.7) == 3.7

    def test_reach_bound_scales_for_shortcut_networks(self):
        # An edge shorter than its straight-line segment (dilation < 1)
        # must widen the Euclidean bound accordingly.
        nodes = [(0.0, 0.0), (4.0, 0.0)]
        edges = [(0, 1, 2.0, 2.0), (1, 0, 2.0, 2.0)]
        net = RoadNetwork.from_edges(nodes, edges)
        model = RoadNetworkTravelModel(net)
        assert net.min_dilation == pytest.approx(0.5)
        assert model.reach_bound(1.0) == pytest.approx(2.0)

    def test_row_cache_hits(self, model):
        model.clear_caches()
        a, b = Point(0.2, 0.3), Point(5.1, 4.2)
        model.time(a, b)
        misses = model.row_cache_misses
        model.time(a, b)
        model.distance(a, b)
        assert model.row_cache_misses == misses
        assert model.row_cache_hits >= 2

    def test_pairwise_duplicate_sources_share_one_row(self):
        model = RoadNetworkTravelModel(grid_network(4, 4, seed=1))
        origins = [Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 0.0)]
        dist, time = model.pairwise(origins, [Point(1.0, 0.0), Point(2.0, 0.0)])
        assert dist.shape == time.shape == (3, 2)
        assert np.array_equal(time[0], time[2])
        assert np.array_equal(dist[0], dist[2])
        assert model.row_cache_misses == 2  # nodes 0 and 3, the repeat is a hit

    def test_unreachable_pairs_are_infinite(self):
        nodes = [(0.0, 0.0), (10.0, 0.0)]
        net = RoadNetwork.from_edges(nodes, [(0, 1, 10.0, 5.0)])
        model = RoadNetworkTravelModel(net)
        forward = model.time(Point(0.1, 0.0), Point(9.9, 0.0))
        backward = model.time(Point(9.9, 0.0), Point(0.1, 0.0))
        assert math.isfinite(forward)
        assert math.isinf(backward)

    def test_empty_network_rejected(self):
        net = RoadNetwork.from_edges([], [])
        with pytest.raises(ValueError):
            RoadNetworkTravelModel(net)

    def test_zero_length_edge_degrades_reach_bound_to_inf(self):
        # Regression: a zero-length edge between distinct nodes (dilation
        # 0) used to raise ZeroDivisionError at construction; no finite
        # Euclidean bound exists, so the model must degrade to inf.
        nodes = [(0.0, 0.0), (5.0, 0.0)]
        edges = [(0, 1, 0.0, 0.1), (1, 0, 0.0, 0.1)]
        net = RoadNetwork.from_edges(nodes, edges)
        assert net.min_dilation == 0.0
        model = RoadNetworkTravelModel(net)
        assert math.isinf(model.reach_bound(1.0))
        # Planning through an inf bound stays functional (full scans).
        assert model.time(Point(0.0, 0.0), Point(5.0, 0.0)) == pytest.approx(0.1)


class TestRushHourRoadnet:
    """Per-edge-class speed profiles: time-dependent Dijkstra rows."""

    def _model(self, peak=(0.8, 0.4)):
        from repro.roadnet import classify_edges_by_speed
        from repro.spatial.profiles import SpeedProfile

        net = grid_network(6, 6, spacing=1.0, speed=1.0, seed=3, speed_jitter=0.35)
        profiles = tuple(
            SpeedProfile(
                breakpoints=(0.0, 10.0, 20.0), multipliers=(1.0, m, 1.0), period=60.0
            )
            for m in peak
        )
        classes = classify_edges_by_speed(net, len(profiles))
        return RoadNetworkTravelModel(
            net, speed=1.0, edge_profiles=profiles, edge_class=classes
        )

    def test_classify_edges_by_speed_quantiles(self):
        from repro.roadnet import classify_edges_by_speed

        net = grid_network(5, 5, seed=7, speed_jitter=0.4)
        classes = classify_edges_by_speed(net, 2)
        assert classes.shape == (net.num_edges,)
        assert set(classes.tolist()) == {0, 1}
        speed = net.edge_length / net.edge_time
        # The fastest class is genuinely faster on average than the slowest.
        assert speed[classes == 1].mean() > speed[classes == 0].mean()
        # Deterministic and single-class degenerate forms.
        assert np.array_equal(classes, classify_edges_by_speed(net, 2))
        assert (classify_edges_by_speed(net, 1) == 0).all()

    def test_peak_window_slows_travel_and_reverts(self):
        model = self._model()
        a, b = Point(0.3, 0.2), Point(4.6, 3.8)
        model.begin_epoch(0.0)
        off_t, off_d = model.time(a, b), model.distance(a, b)
        model.begin_epoch(15.0)
        peak_t = model.time(a, b)
        assert peak_t > off_t
        model.begin_epoch(25.0)
        assert model.time(a, b) == off_t
        assert model.distance(a, b) == off_d

    def test_fastest_path_may_change_per_window(self):
        # Distances are fastest-path lengths, so deep arterial congestion
        # can reroute some pair somewhere on a jittered grid.
        model = self._model(peak=(1.0, 0.25))
        rng = np.random.default_rng(11)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 5, (14, 2))]
        model.begin_epoch(0.0)
        off = [model.distance(a, b) for a in points for b in points]
        model.begin_epoch(15.0)
        peak = [model.distance(a, b) for a in points for b in points]
        assert off != peak

    def test_rows_keyed_per_window_and_shared_across_cycles(self):
        model = self._model()
        a, b = Point(0.3, 0.2), Point(4.6, 3.8)
        model.clear_caches()
        model.begin_epoch(0.0)
        model.time(a, b)
        cold = model.row_cache_misses
        model.begin_epoch(15.0)   # new window: rows must be recomputed
        model.time(a, b)
        assert model.row_cache_misses > cold
        peak_misses = model.row_cache_misses
        model.begin_epoch(75.0)   # next cycle's peak: same multipliers -> shared rows
        model.time(a, b)
        assert model.row_cache_misses == peak_misses
        model.begin_epoch(60.0)   # next cycle off-peak: shared with window 0
        model.time(a, b)
        assert model.row_cache_misses == peak_misses

    def test_next_profile_boundary_is_min_over_classes(self):
        from repro.spatial.profiles import SpeedProfile

        net = grid_network(3, 3, seed=1)
        profiles = (
            SpeedProfile(breakpoints=(0.0, 30.0), multipliers=(1.0, 0.5), period=100.0),
            SpeedProfile(breakpoints=(0.0, 10.0), multipliers=(1.0, 0.5), period=100.0),
        )
        model = RoadNetworkTravelModel(net, edge_profiles=profiles)
        assert model.next_profile_boundary(0.0) == 10.0
        assert model.next_profile_boundary(10.0) == 30.0
        # The one-entry memo is keyed on `now`: repeats and interleavings
        # answer as the first query did.
        assert model.next_profile_boundary(10.0) == 30.0
        assert model.next_profile_boundary(0.0) == 10.0
        assert model._last_boundary == (0.0, 10.0)
        static = RoadNetworkTravelModel(net)
        assert static.next_profile_boundary(0.0) == float("inf")

    def test_edge_class_validation(self):
        from repro.spatial.profiles import SpeedProfile

        net = grid_network(3, 3, seed=1)
        profile = (SpeedProfile.constant(1.0),)
        with pytest.raises(ValueError):
            RoadNetworkTravelModel(
                net, edge_profiles=profile, edge_class=np.zeros(3, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            RoadNetworkTravelModel(
                net,
                edge_profiles=profile,
                edge_class=np.full(net.num_edges, 5, dtype=np.int64),
            )

    def test_dijkstra_edge_time_override_matches_scaled_network(self):
        net = grid_network(5, 5, seed=13, speed_jitter=0.3)
        scaled = net.edge_time / 0.5
        times, lengths = dijkstra_row(net, 0, edge_time=scaled)
        slow = RoadNetwork(
            node_x=net.node_x,
            node_y=net.node_y,
            indptr=net.indptr,
            indices=net.indices,
            edge_length=net.edge_length,
            edge_time=scaled,
        )
        ref_times, ref_lengths = dijkstra_row(slow, 0)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(lengths, ref_lengths)
        with pytest.raises(ValueError):
            dijkstra_row(net, 0, edge_time=scaled[:-1])
