"""networkx oracle for worker dependency separation (Sections IV-A.2 – IV-A.4).

The worker dependency graph, the MCS chordal-clique partition and the RTC
tree, written against :mod:`networkx` graphs — the slow, obviously-right
variant the product's ``fast_partition`` (plain adjacency sets, no graph
copies) is compared to, and the partitioner of the scalar plan oracle in
``reference_pipeline.py``.  Nothing under ``src/`` imports this module or
networkx.

Nodes are worker ids; an edge connects two workers iff their reachable
task sets intersect.  The RTC tree has two properties the search exploits:

i.  the union of all node worker-sets is the full worker set, and
ii. workers in *sibling* subtrees are independent (no edge between them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.assignment.tree import PartitionNode, PartitionTree
from repro.core.task import Task


# ---------------------------------------------------------------------- #
# IV-A.2: worker dependency graph
# ---------------------------------------------------------------------- #
def build_worker_dependency_graph(
    reachable_by_worker: Dict[int, Sequence[Task]],
) -> nx.Graph:
    """Build the WDG from per-worker reachable task sets ``RS_w``.

    The graph always contains every worker as a node, even isolated ones.
    """
    graph = nx.Graph()
    graph.add_nodes_from(reachable_by_worker.keys())
    # Invert: task id -> workers that can reach it, then connect all pairs
    # sharing a task.
    task_to_workers: Dict[int, List[int]] = {}
    for worker_id, tasks in reachable_by_worker.items():
        for task in tasks:
            task_to_workers.setdefault(task.task_id, []).append(worker_id)
    for workers in task_to_workers.values():
        for i in range(len(workers)):
            for j in range(i + 1, len(workers)):
                graph.add_edge(workers[i], workers[j])
    return graph


# ---------------------------------------------------------------------- #
# IV-A.3: MCS ordering, chordal fill-in, maximal cliques
# ---------------------------------------------------------------------- #
def maximum_cardinality_search(graph: nx.Graph) -> List:
    """Return an MCS elimination ordering of the graph's nodes.

    At each step the node with the largest number of already-visited
    neighbours is selected (ties broken deterministically by node id), which
    for chordal graphs yields a perfect elimination ordering.
    """
    weights: Dict = {node: 0 for node in graph.nodes}
    order: List = []
    visited: Set = set()
    while len(order) < graph.number_of_nodes():
        candidate = max(
            (node for node in graph.nodes if node not in visited),
            key=lambda node: (weights[node], -_node_rank(node)),
        )
        order.append(candidate)
        visited.add(candidate)
        for neighbor in graph.neighbors(candidate):
            if neighbor not in visited:
                weights[neighbor] += 1
    return order


def _node_rank(node) -> float:
    """Deterministic tie-break helper (works for ints and strings)."""
    try:
        return float(node)
    except (TypeError, ValueError):
        return float(hash(node) % (2 ** 31))


def chordal_completion(graph: nx.Graph) -> Tuple[nx.Graph, List]:
    """Add fill-in edges so the graph becomes chordal.

    Returns the chordal graph and the elimination ordering used.  Uses the
    classic elimination-game fill-in driven by the MCS ordering: processing
    nodes in reverse order, the not-yet-processed neighbours of each node
    are made into a clique.
    """
    chordal = nx.Graph()
    chordal.add_nodes_from(graph.nodes)
    chordal.add_edges_from(graph.edges)
    order = maximum_cardinality_search(graph)
    position = {node: i for i, node in enumerate(order)}
    # Eliminate in reverse MCS order.
    working = chordal.copy()
    for node in reversed(order):
        later_neighbors = [n for n in working.neighbors(node) if position[n] < position[node]]
        for i in range(len(later_neighbors)):
            for j in range(i + 1, len(later_neighbors)):
                a, b = later_neighbors[i], later_neighbors[j]
                if not working.has_edge(a, b):
                    working.add_edge(a, b)
                    chordal.add_edge(a, b)
    return chordal, order


def chordal_cliques(graph: nx.Graph) -> List[Set]:
    """Maximal cliques of the chordal completion of ``graph``.

    This is the paper's graph-partition output: each clique is a cluster of
    mutually dependent workers.
    """
    if graph.number_of_nodes() == 0:
        return []
    chordal, _ = chordal_completion(graph)
    if nx.is_chordal(chordal):
        cliques = [set(c) for c in nx.chordal_graph_cliques(chordal)]
    else:  # pragma: no cover - fill-in always yields a chordal graph
        cliques = [set(c) for c in nx.find_cliques(chordal)]
    # Deduplicate and drop cliques fully contained in another.
    cliques.sort(key=len, reverse=True)
    maximal: List[Set] = []
    for clique in cliques:
        if not any(clique <= other for other in maximal):
            maximal.append(clique)
    return maximal


# ---------------------------------------------------------------------- #
# IV-A.4: recursive tree construction
# ---------------------------------------------------------------------- #
def _build_subtree(graph: nx.Graph, max_depth: int) -> Optional[PartitionNode]:
    """RTC on a connected subgraph; returns None for an empty graph."""
    nodes = list(graph.nodes)
    if not nodes:
        return None
    if len(nodes) == 1 or max_depth <= 1:
        return PartitionNode(workers=sorted(nodes))

    cliques = chordal_cliques(graph)
    if not cliques:
        return PartitionNode(workers=sorted(nodes))

    # Step i: pick the clique whose removal yields the most components.
    best_clique: Optional[Set] = None
    best_components: List[Set] = []
    best_score = -1
    for clique in cliques:
        remaining = graph.copy()
        remaining.remove_nodes_from(clique)
        components = [set(c) for c in nx.connected_components(remaining)]
        score = len(components)
        if score > best_score or (
            score == best_score and best_clique is not None and len(clique) < len(best_clique)
        ):
            best_score = score
            best_clique = clique
            best_components = components

    if best_clique is None or len(best_clique) == len(nodes):
        return PartitionNode(workers=sorted(nodes))

    root = PartitionNode(workers=sorted(best_clique))
    if not best_components:
        return root

    # Step ii: recurse on every component of the graph minus the root clique.
    for component in best_components:
        child = _build_subtree(graph.subgraph(component).copy(), max_depth - 1)
        if child is not None:
            root.children.append(child)
    return root


def build_partition_tree(graph: nx.Graph, max_depth: int = 12) -> PartitionTree:
    """Build the partition forest for a worker dependency graph.

    ``max_depth`` is a recursion guard; beyond it the remaining workers are
    grouped into a single leaf (correct but less separated).
    """
    roots: List[PartitionNode] = []
    for component in nx.connected_components(graph):
        subtree = _build_subtree(graph.subgraph(component).copy(), max_depth)
        if subtree is not None:
            roots.append(subtree)
    tree = PartitionTree(roots=roots)
    _validate_tree(tree, graph)
    return tree


def _validate_tree(tree: PartitionTree, graph: nx.Graph) -> None:
    """Property i of the paper: the tree covers every worker exactly once."""
    covered = tree.all_workers()
    if len(covered) != len(set(covered)):
        raise RuntimeError("partition tree assigned a worker to multiple nodes")
    if set(covered) != set(graph.nodes):
        raise RuntimeError("partition tree does not cover every worker")


def sibling_independence_violations(tree: PartitionTree, graph: nx.Graph) -> List[tuple]:
    """Return (worker_a, worker_b) pairs in sibling subtrees that share an edge.

    Checks property ii on any ``PartitionTree`` — the oracle's or the
    product's — against the networkx WDG; the list should be empty.
    """
    violations: List[tuple] = []

    def visit(node: PartitionNode) -> None:
        child_sets = [set(child.all_workers()) for child in node.children]
        for i in range(len(child_sets)):
            for j in range(i + 1, len(child_sets)):
                for a in child_sets[i]:
                    for b in child_sets[j]:
                        if graph.has_edge(a, b):
                            violations.append((a, b))
        for child in node.children:
            visit(child)

    for root in tree.roots:
        visit(root)
    return violations


def adjacency_of(graph: nx.Graph) -> Dict[int, Set[int]]:
    """``graph`` as the plain adjacency dict the product partitioner takes."""
    return {node: set(graph.neighbors(node)) for node in graph.nodes}
