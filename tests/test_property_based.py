"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assignment.fast_partition import build_adjacency, build_partition_tree_fast
from repro.assignment.sequences import maximal_valid_sequences
from repro.core.assignment import Assignment
from repro.core.sequence import TaskSequence, arrival_times
from repro.core.task import Task
from repro.core.worker import Worker
from repro.demand.dependency import normalized_adjacency
from repro.demand.metrics import average_precision, precision_recall_at_threshold
from repro.demand.timeseries import build_time_series
from repro.spatial.geometry import BoundingBox, Point, euclidean_distance, manhattan_distance
from repro.spatial.grid import GridSpec
from repro.spatial.index import SpatialIndex
from repro.spatial.travel import EuclideanTravelModel

from reference_partition import (
    adjacency_of,
    build_partition_tree,
    build_worker_dependency_graph,
    chordal_completion,
    sibling_independence_violations,
)

# ------------------------------------------------------------------ #
# Strategies
# ------------------------------------------------------------------ #
finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, finite_coord, finite_coord)


def tasks_strategy(max_tasks=6):
    def build(seeds):
        out = []
        for i, (x, y, pub, dur) in enumerate(seeds):
            out.append(Task(i + 1, Point(x, y), pub, pub + dur))
        return out

    seed = st.tuples(
        st.floats(0.0, 10.0), st.floats(0.0, 10.0),
        st.floats(0.0, 20.0), st.floats(1.0, 50.0),
    )
    return st.lists(seed, min_size=0, max_size=max_tasks).map(build)


# ------------------------------------------------------------------ #
# Geometry
# ------------------------------------------------------------------ #
class TestGeometryProperties:
    @given(points, points)
    def test_distance_symmetry_and_nonnegativity(self, a, b):
        assert euclidean_distance(a, b) >= 0.0
        assert math.isclose(euclidean_distance(a, b), euclidean_distance(b, a), rel_tol=1e-12)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert euclidean_distance(a, c) <= euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9

    @given(points, points)
    def test_euclidean_never_exceeds_manhattan(self, a, b):
        assert euclidean_distance(a, b) <= manhattan_distance(a, b) + 1e-9

    @given(points)
    def test_grid_clamps_any_point_to_a_valid_cell(self, point):
        grid = GridSpec(BoundingBox(0, 0, 10, 10), rows=5, cols=5)
        index = grid.cell_index(point)
        assert 0 <= index < grid.num_cells


# ------------------------------------------------------------------ #
# Spatial index
# ------------------------------------------------------------------ #
class TestSpatialIndexProperties:
    @given(st.lists(st.tuples(st.integers(0, 50), points), min_size=0, max_size=40),
           points, st.floats(0.0, 50.0))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_query_radius_equals_brute_force(self, items, center, radius):
        index = SpatialIndex(cell_size=3.0)
        locations = {}
        for item, location in items:
            index.insert(item, location)
            locations[item] = location   # later insert wins, like the index
        expected = {i for i, p in locations.items() if euclidean_distance(p, center) <= radius}
        assert set(index.query_radius(center, radius)) == expected


# ------------------------------------------------------------------ #
# Sequences and assignments
# ------------------------------------------------------------------ #
class TestSequenceProperties:
    @given(tasks_strategy())
    @settings(deadline=None)
    def test_arrival_times_are_monotone(self, tasks):
        worker = Worker(1, Point(0, 0), 1000.0, 0.0, 10_000.0)
        times = arrival_times(worker, tasks, now=0.0, travel=EuclideanTravelModel(1.0))
        assert all(t1 <= t2 + 1e-9 for t1, t2 in zip(times, times[1:]))
        assert all(t >= 0.0 for t in times)

    @given(tasks_strategy())
    @settings(deadline=None)
    def test_maximal_sequences_are_valid_and_unique_sets(self, tasks):
        worker = Worker(1, Point(5, 5), 20.0, 0.0, 10_000.0)
        travel = EuclideanTravelModel(1.0)
        sequences = maximal_valid_sequences(worker, tasks, now=0.0, travel=travel, max_length=3)
        signatures = set()
        for sequence in sequences:
            assert sequence.is_valid(0.0, travel)
            signature = frozenset(sequence.task_ids)
            assert signature not in signatures
            signatures.add(signature)

    @given(tasks_strategy())
    @settings(deadline=None)
    def test_assignment_objective_counts_unique_tasks(self, tasks):
        workers = [Worker(i, Point(i, i), 1000.0, 0.0, 10_000.0) for i in range(1, 4)]
        assignment = Assignment()
        remaining = list(tasks)
        for worker in workers:
            take, remaining = remaining[:2], remaining[2:]
            if take:
                assignment.assign(worker, take)
        all_ids = [t.task_id for plan in assignment for t in plan.sequence]
        assert assignment.num_assigned_tasks == len(set(all_ids)) == len(all_ids)


# ------------------------------------------------------------------ #
# Graphs, partition, tree
# ------------------------------------------------------------------ #
class TestPartitionProperties:
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=30))
    @settings(deadline=None)
    def test_chordal_completion_only_adds_edges(self, edges):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(13))
        graph.add_edges_from((a, b) for a, b in edges if a != b)
        chordal, order = chordal_completion(graph)
        assert set(graph.edges) <= set(chordal.edges)
        assert sorted(order) == sorted(graph.nodes)
        assert nx.is_chordal(chordal) or graph.number_of_edges() == 0

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=0, max_size=25))
    @settings(deadline=None)
    def test_partition_tree_invariants(self, edges):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(11))
        graph.add_edges_from((a, b) for a, b in edges if a != b)
        for tree in (
            build_partition_tree(graph),
            build_partition_tree_fast(adjacency_of(graph)),
        ):
            covered = tree.all_workers()
            # Property i: every worker appears exactly once.
            assert sorted(covered) == sorted(graph.nodes)
            # Property ii: workers in sibling subtrees are independent.
            assert sibling_independence_violations(tree, graph) == []

    @given(st.dictionaries(st.integers(1, 8),
                           st.lists(st.integers(1, 10), max_size=5), max_size=8))
    @settings(deadline=None)
    def test_wdg_edges_require_shared_tasks(self, raw):
        reachable = {
            worker: [Task(tid, Point(0, 0), 0.0, 10.0) for tid in sorted(set(task_ids))]
            for worker, task_ids in raw.items()
        }
        graph = build_worker_dependency_graph(reachable)
        for a, b in graph.edges:
            shared = {t.task_id for t in reachable[a]} & {t.task_id for t in reachable[b]}
            assert shared
        assert build_adjacency(reachable) == adjacency_of(graph)


# ------------------------------------------------------------------ #
# Demand prediction utilities
# ------------------------------------------------------------------ #
class TestDemandProperties:
    @given(st.lists(st.tuples(st.floats(0.0, 99.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
                    min_size=0, max_size=30))
    @settings(deadline=None)
    def test_time_series_values_are_binary(self, raw):
        grid = GridSpec(BoundingBox(0, 0, 10, 10), 3, 3)
        tasks = [Task(i + 1, Point(x, y), pub, pub + 5.0) for i, (pub, x, y) in enumerate(raw)]
        series = build_time_series(tasks, grid, 0.0, 100.0, delta_t=5.0, k=4)
        assert set(np.unique(series.values)) <= {0.0, 1.0}

    @given(st.integers(1, 60), st.integers(0, 59))
    @settings(deadline=None)
    def test_ap_bounded_and_perfect_for_separable_scores(self, positives, negatives):
        targets = np.array([1.0] * positives + [0.0] * negatives)
        probabilities = np.array([0.9] * positives + [0.1] * negatives)
        ap = average_precision(probabilities, targets)
        assert 0.0 <= ap <= 1.0 + 1e-9
        assert ap > 0.99

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50), st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_precision_recall_bounded(self, probs, threshold):
        probabilities = np.array(probs)
        targets = (probabilities > 0.5).astype(float)
        precision, recall = precision_recall_at_threshold(probabilities, targets, threshold)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0

    @given(st.integers(2, 8))
    @settings(deadline=None)
    def test_normalized_adjacency_rows_bounded(self, n):
        rng = np.random.default_rng(n)
        adjacency = rng.random((n, n))
        normalized = normalized_adjacency(adjacency)
        assert normalized.shape == (n, n)
        assert np.isfinite(normalized).all()
        assert (normalized >= 0).all()


# ------------------------------------------------------------------ #
# Time-dependent travel: profiles and horizon clamping
# ------------------------------------------------------------------ #
@st.composite
def speed_profiles(draw, period=64.0):
    """Random piecewise-constant profiles over a small period."""
    num_extra = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(
        set(
            draw(
                st.lists(
                    st.floats(1.0, period - 1.0, allow_nan=False),
                    min_size=num_extra,
                    max_size=num_extra,
                )
            )
        )
    )
    breakpoints = (0.0, *cuts)
    multipliers = tuple(
        draw(st.floats(0.25, 2.0, allow_nan=False)) for _ in breakpoints
    )
    from repro.spatial.profiles import SpeedProfile

    return SpeedProfile(breakpoints=breakpoints, multipliers=multipliers, period=period)


@st.composite
def timedep_scenario(draw):
    profile = draw(speed_profiles())
    num_tasks = draw(st.integers(min_value=0, max_value=8))
    tasks = [
        Task(
            100 + i,
            Point(draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))),
            0.0,
            draw(st.floats(1.0, 120.0)),
        )
        for i in range(num_tasks)
    ]
    worker = Worker(
        1,
        Point(draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))),
        draw(st.floats(0.5, 4.0)),
        0.0,
        draw(st.floats(10.0, 120.0)),
    )
    now = draw(st.floats(0.0, 100.0))
    return profile, worker, tasks, now


class TestTimeDependentProperties:
    @given(speed_profiles(), st.floats(0.0, 500.0, allow_nan=False))
    @settings(deadline=None)
    def test_profile_boundary_is_strictly_ahead_and_window_constant(self, profile, now):
        boundary = profile.next_boundary(now)
        assert boundary > now
        active = profile.multiplier_at(now)
        assert active in profile.multipliers
        if math.isfinite(boundary):
            # The multiplier is constant on [now, boundary).
            for fraction in (0.0, 0.37, 0.93):
                probe = now + (boundary - now) * fraction
                if probe < boundary:
                    assert profile.multiplier_at(probe) == active
        else:
            assert profile.multiplier_at(now + 12345.0) == active

    @given(timedep_scenario())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_reachable_horizon_clamped_and_constant_inside(self, scenario):
        from repro.assignment.reachability import (
            reachable_tasks,
            reachable_tasks_with_horizon,
        )
        from repro.spatial.timedep import TimeDependentTravelModel

        profile, worker, tasks, now = scenario
        model = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), profile)
        model.begin_epoch(now)
        capped, _, horizon = reachable_tasks_with_horizon(worker, tasks, now, model)
        # Clamp: cached sets never claim validity past the next boundary.
        assert horizon <= model.next_profile_boundary(now)
        reference = [t.task_id for t in capped]
        if horizon <= now:
            return
        for fraction in (0.25, 0.8, 0.999):
            probe = now + (horizon - now) * fraction
            if not (now <= probe < horizon):
                continue
            model.begin_epoch(probe)
            again = [t.task_id for t in reachable_tasks(worker, tasks, probe, model)]
            assert again == reference
        model.begin_epoch(now)  # leave the shared model latched at `now`

    @given(timedep_scenario())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sequence_horizon_clamped_and_constant_inside(self, scenario):
        from repro.assignment.reachability import reachable_tasks
        from repro.spatial.timedep import TimeDependentTravelModel

        profile, worker, tasks, now = scenario
        model = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), profile)
        model.begin_epoch(now)
        reachable = reachable_tasks(worker, tasks, now, model)
        box = []
        sequences = maximal_valid_sequences(
            worker, reachable, now, model, max_length=3, max_sequences=16,
            horizon_out=box,
        )
        horizon = box[0]
        assert horizon <= model.next_profile_boundary(now)
        signature = [s.task_ids for s in sequences]
        if horizon <= now:
            return
        for fraction in (0.3, 0.95):
            probe = now + (horizon - now) * fraction
            if not (now <= probe < horizon):
                continue
            model.begin_epoch(probe)
            again = maximal_valid_sequences(
                worker, reachable, probe, model, max_length=3, max_sequences=16
            )
            assert [s.task_ids for s in again] == signature
        model.begin_epoch(now)

    def test_boundary_reentry_is_not_missed_by_the_engine(self):
        """Regression for the clamp's raison d'être: a task unreachable in
        the congested window becomes reachable when the fast window opens.
        The per-task horizon boundaries never cover this (the set is
        *empty*, so there is no member boundary to flip); only the profile
        clamp forces the recompute.  The incremental engine must agree
        with a full replan at the boundary epoch."""
        from repro.assignment.planner import PlannerConfig, TaskPlanner
        from repro.spatial.profiles import SpeedProfile
        from repro.spatial.timedep import TimeDependentTravelModel

        profile = SpeedProfile(
            breakpoints=(0.0, 10.0), multipliers=(0.5, 2.0), period=1000.0
        )
        model = TimeDependentTravelModel(EuclideanTravelModel(speed=1.0), profile)
        worker = Worker(1, Point(0.0, 0.0), 10.0, 0.0, 1000.0)
        # distance 8: congested time 16 >= 15 - 0 (unreachable at 0);
        # fast-window time 4 < 15 - 10 (reachable at the boundary).
        task = Task(7, Point(8.0, 0.0), 0.0, 15.0)
        incremental = TaskPlanner(PlannerConfig(travel_model=model))
        full = TaskPlanner(PlannerConfig(travel_model=model))
        planned = []
        for now in (0.0, 10.0):  # second epoch lands exactly on the boundary
            a = incremental.plan([worker], [task], now)
            full.reset_cache()
            b = full.plan([worker], [task], now)
            assert [
                (wp.worker.worker_id, wp.sequence.task_ids) for wp in a.assignment
            ] == [
                (wp.worker.worker_id, wp.sequence.task_ids) for wp in b.assignment
            ]
            assert a.planned_tasks == b.planned_tasks
            planned.append(a.planned_tasks)
        # And the fast window genuinely flipped the outcome (re-entry).
        assert planned == [0, 1]
