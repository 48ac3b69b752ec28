"""Worker dependency separation (Sections IV-A.2 – IV-A.4) on plain adjacency.

The planner rebuilds the worker dependency graph, its chordal-clique
partition and the RTC tree for every dirty component at **every** replan
epoch, so the three steps run on plain ``dict``/``set`` adjacency with
zero graph copies:

* :func:`build_adjacency` — the WDG as ``{worker_id: set(neighbours)}``,
* :func:`connected_components` — BFS components, deterministic order,
* :func:`chordal_cliques_fast` — MCS ordering + elimination-game fill-in +
  perfect-elimination-ordering clique extraction,
* :func:`build_partition_tree_fast` — the RTC recursion.

MCS breaks ties by ``(weight, -id)``, the fill-in runs in reverse MCS
order, and RTC picks the clique whose removal yields the most components
(smaller cliques preferred on ties).  Output is fully deterministic:
cliques are ordered by (size desc, sorted members) and every node list is
sorted.  A graph-library implementation of the same rules lives on the
tests' side (``tests/assignment/reference_partition.py``) as the oracle
this module is compared to.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set

from repro.assignment.tree import PartitionNode, PartitionTree

Adjacency = Dict[int, Set[int]]


def build_adjacency(reachable_by_worker: Dict[int, Sequence]) -> Adjacency:
    """Worker dependency adjacency: an edge iff reachable sets intersect.

    Inverts to task → workers, then connects all pairs sharing a task:
    O(sum_t |workers(t)|^2), far cheaper than comparing every worker pair's
    reachable sets on sparse instances.
    """
    adjacency: Adjacency = {worker_id: set() for worker_id in reachable_by_worker}
    task_to_workers: Dict[int, List[int]] = {}
    for worker_id, tasks in reachable_by_worker.items():
        for task in tasks:
            task_to_workers.setdefault(task.task_id, []).append(worker_id)
    for workers in task_to_workers.values():
        if len(workers) < 2:
            continue
        for i, a in enumerate(workers):
            for b in workers[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency


def connected_components(adjacency: Adjacency) -> List[List[int]]:
    """Connected components (each sorted), in order of smallest member."""
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in adjacency:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = [start]
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    components.sort(key=lambda c: c[0])
    return components


def _mcs_order(adjacency: Adjacency, nodes: Sequence[int]) -> List[int]:
    """Maximum-cardinality-search ordering, ties broken by smallest id."""
    weights = {node: 0 for node in nodes}
    order: List[int] = []
    unvisited = set(nodes)
    node_set = unvisited.copy()
    while unvisited:
        # The key is injective (-node breaks all ties), so the winner does
        # not depend on set iteration order.
        candidate = max(unvisited, key=lambda node: (weights[node], -node))
        order.append(candidate)
        unvisited.discard(candidate)
        for neighbor in adjacency[candidate]:
            if neighbor in unvisited and neighbor in node_set:
                weights[neighbor] += 1
    return order


def chordal_cliques_fast(adjacency: Adjacency, nodes: Sequence[int]) -> List[Set[int]]:
    """Maximal cliques of the chordal completion of the induced subgraph.

    Runs the elimination game in reverse MCS order to fill the graph into
    a chordal one, then reads the maximal cliques straight off the perfect
    elimination ordering (``{v} ∪ earlier-ordered neighbours of v``,
    containment-filtered) — no chordality re-check, no graph copies.
    """
    nodes = list(nodes)
    if not nodes:
        return []
    node_set = set(nodes)
    working: Adjacency = {
        node: {n for n in adjacency[node] if n in node_set} for node in nodes
    }
    order = _mcs_order(working, nodes)
    position = {node: i for i, node in enumerate(order)}
    for node in reversed(order):
        earlier = [n for n in working[node] if position[n] < position[node]]
        for i, a in enumerate(earlier):
            for b in earlier[i + 1:]:
                working[a].add(b)
                working[b].add(a)

    cliques: List[Set[int]] = []
    for node in reversed(order):
        clique = {n for n in working[node] if position[n] < position[node]}
        clique.add(node)
        cliques.append(clique)
    # Deduplicate and drop cliques fully contained in another (deterministic
    # order: larger first, then lexicographic members).
    cliques.sort(key=lambda c: (-len(c), sorted(c)))
    maximal: List[Set[int]] = []
    for clique in cliques:
        if not any(clique <= other for other in maximal):
            maximal.append(clique)
    return maximal


def _components_without(
    adjacency: Adjacency, nodes: Set[int], removed: Set[int]
) -> List[Set[int]]:
    """Connected components of the induced subgraph minus ``removed``."""
    remaining = nodes - removed
    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in sorted(remaining):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = {start}
        while queue:
            node = queue.popleft()
            for neighbor in adjacency[node]:
                if neighbor in remaining and neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components


def _build_subtree_fast(
    adjacency: Adjacency, nodes: Set[int], max_depth: int
) -> PartitionNode:
    """RTC on one connected node set (Section IV-A.4), copy-free."""
    if len(nodes) == 1 or max_depth <= 1:
        return PartitionNode(workers=sorted(nodes))

    cliques = chordal_cliques_fast(adjacency, sorted(nodes))
    if not cliques:
        return PartitionNode(workers=sorted(nodes))

    best_clique: Set[int] = set()
    best_components: List[Set[int]] = []
    best_score = -1
    for clique in cliques:
        components = _components_without(adjacency, nodes, clique)
        score = len(components)
        if score > best_score or (
            score == best_score and best_clique and len(clique) < len(best_clique)
        ):
            best_score = score
            best_clique = clique
            best_components = components

    if not best_clique or len(best_clique) == len(nodes):
        return PartitionNode(workers=sorted(nodes))

    root = PartitionNode(workers=sorted(best_clique))
    for component in best_components:
        root.children.append(_build_subtree_fast(adjacency, component, max_depth - 1))
    return root


def build_component_subtree(
    adjacency: Adjacency, component: Iterable[int], max_depth: int = 12
) -> PartitionNode:
    """RTC subtree for one connected component of ``adjacency``.

    Exactly the subtree :func:`build_partition_tree_fast` would build for
    this component inside the full forest — exposed separately so the
    incremental replan engine can rebuild only the components whose workers
    changed while reusing every untouched component's cached tree and
    search result.  The single-coverage guard of the forest builder is
    applied per component.
    """
    nodes = set(component)
    root = _build_subtree_fast(adjacency, nodes, max_depth)
    covered = root.all_workers()
    if len(covered) != len(set(covered)):
        raise RuntimeError("partition subtree assigned a worker to multiple nodes")
    if set(covered) != nodes:
        raise RuntimeError("partition subtree does not cover every worker")
    return root


def build_partition_tree_fast(adjacency: Adjacency, max_depth: int = 12) -> PartitionTree:
    """Build the RTC partition forest: one subtree per connected component."""
    roots = [
        _build_subtree_fast(adjacency, set(component), max_depth)
        for component in connected_components(adjacency)
    ]
    tree = PartitionTree(roots=roots)
    # Property i of the paper: every worker appears in the forest exactly
    # once — fail fast rather than silently skip workers if the clique
    # extraction ever has a bug.
    covered = tree.all_workers()
    if len(covered) != len(set(covered)):
        raise RuntimeError("partition tree assigned a worker to multiple nodes")
    if set(covered) != set(adjacency):
        raise RuntimeError("partition tree does not cover every worker")
    return tree
