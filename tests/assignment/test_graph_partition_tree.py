"""Tests for the worker dependency graph, MCS partition and RTC tree.

The graph and tree properties run against both implementations: the
networkx oracle (``reference_partition.py``) and the product's
``fast_partition`` on plain adjacency sets.
"""

import networkx as nx
import pytest

from repro.assignment.fast_partition import (
    build_adjacency,
    build_partition_tree_fast,
    chordal_cliques_fast,
    connected_components,
)
from repro.core.task import Task
from repro.spatial.geometry import Point

from reference_partition import (
    adjacency_of,
    build_partition_tree,
    build_worker_dependency_graph,
    chordal_cliques,
    chordal_completion,
    maximum_cardinality_search,
    sibling_independence_violations,
)


def _task(task_id):
    return Task(task_id, Point(0, 0), 0.0, 10.0)


class TestWorkerDependencyGraph:
    def test_shared_task_creates_edge(self):
        shared = _task(1)
        reachable = {1: [shared], 2: [shared], 3: [_task(2)]}
        graph = build_worker_dependency_graph(reachable)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(1, 3)
        assert set(graph.nodes) == {1, 2, 3}
        assert build_adjacency(reachable) == adjacency_of(graph)

    def test_isolated_workers_kept_as_nodes(self):
        graph = build_worker_dependency_graph({1: [], 2: []})
        assert set(graph.nodes) == {1, 2}
        assert graph.number_of_edges() == 0
        assert build_adjacency({1: [], 2: []}) == {1: set(), 2: set()}

    def test_components_and_independence(self):
        a, b = _task(1), _task(2)
        reachable = {1: [a], 2: [a], 3: [b], 4: [b]}
        adjacency = build_adjacency(reachable)
        assert connected_components(adjacency) == [[1, 2], [3, 4]]
        assert 3 not in adjacency[1] and 2 in adjacency[1]
        graph = build_worker_dependency_graph(reachable)
        assert sorted(sorted(c) for c in nx.connected_components(graph)) == [[1, 2], [3, 4]]


def _fast_cliques(graph):
    return chordal_cliques_fast(adjacency_of(graph), sorted(graph.nodes))


def _fast_tree(graph):
    return build_partition_tree_fast(adjacency_of(graph))


CLIQUE_FINDERS = [
    pytest.param(chordal_cliques, id="oracle"),
    pytest.param(_fast_cliques, id="fast"),
]
TREE_BUILDERS = [
    pytest.param(build_partition_tree, id="oracle"),
    pytest.param(_fast_tree, id="fast"),
]


class TestMCSAndChordal:
    def test_mcs_order_covers_all_nodes(self):
        graph = nx.cycle_graph(6)
        order = maximum_cardinality_search(graph)
        assert sorted(order) == list(range(6))

    def test_chordal_completion_is_chordal(self):
        # A 5-cycle is the classic non-chordal graph.
        graph = nx.cycle_graph(5)
        chordal, _ = chordal_completion(graph)
        assert nx.is_chordal(chordal)
        # Completion only adds edges, never removes.
        assert set(graph.edges) <= set(chordal.edges)

    def test_chordal_graph_unchanged(self):
        graph = nx.complete_graph(4)
        chordal, _ = chordal_completion(graph)
        assert set(chordal.edges) == set(graph.edges)

    @pytest.mark.parametrize("cliques_of", CLIQUE_FINDERS)
    def test_cliques_cover_all_nodes(self, cliques_of):
        graph = nx.cycle_graph(7)
        cliques = cliques_of(graph)
        covered = set().union(*cliques)
        assert covered == set(graph.nodes)

    @pytest.mark.parametrize("cliques_of", CLIQUE_FINDERS)
    def test_cliques_are_maximal(self, cliques_of):
        graph = nx.complete_graph(5)
        cliques = cliques_of(graph)
        assert len(cliques) == 1
        assert cliques[0] == set(range(5))

    @pytest.mark.parametrize("cliques_of", CLIQUE_FINDERS)
    def test_empty_graph(self, cliques_of):
        assert cliques_of(nx.Graph()) == []


@pytest.mark.parametrize("build_tree", TREE_BUILDERS)
class TestPartitionTree:
    def test_tree_covers_every_worker_exactly_once(self, build_tree):
        graph = nx.path_graph(9)
        tree = build_tree(graph)
        workers = tree.all_workers()
        assert sorted(workers) == list(range(9))
        assert len(workers) == len(set(workers))

    def test_sibling_independence(self, build_tree):
        # Star-like structure: removing the hub separates the leaves.
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        tree = build_tree(graph)
        assert sibling_independence_violations(tree, graph) == []

    def test_forest_for_disconnected_graph(self, build_tree):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        graph.add_node(4)
        tree = build_tree(graph)
        assert len(tree.roots) == 3
        assert sorted(tree.all_workers()) == [0, 1, 2, 3, 4]

    def test_single_node_graph(self, build_tree):
        graph = nx.Graph()
        graph.add_node(42)
        tree = build_tree(graph)
        assert tree.roots[0].workers == [42]
        assert tree.depth == 1

    def test_clique_graph_single_node_tree(self, build_tree):
        graph = nx.complete_graph(4)
        tree = build_tree(graph)
        assert tree.num_nodes == 1
        assert sorted(tree.roots[0].workers) == [0, 1, 2, 3]

    def test_path_graph_produces_multiple_levels(self, build_tree):
        graph = nx.path_graph(15)
        tree = build_tree(graph)
        assert tree.depth >= 2
        assert sibling_independence_violations(tree, graph) == []

    def test_node_helpers(self, build_tree):
        graph = nx.path_graph(5)
        tree = build_tree(graph)
        root = tree.roots[0]
        assert set(root.all_workers()) == set(range(5))
        assert set(root.descendant_workers()) == set(range(5)) - set(root.workers)
