"""Shortest-path rows over a :class:`RoadNetwork`.

The planner needs *many-to-many* travel costs: every replan epoch asks for
worker→task and task→task blocks over the snapshot's snapped nodes.  Full
all-pairs preprocessing would not survive a city-scale graph, so the unit
of work here is the **row**: one Dijkstra run from a source node to every
node, returning both the fastest travel times and the lengths of those
fastest paths.  Rows are pure functions of the graph, which is what makes
the :class:`~repro.roadnet.model.RoadNetworkTravelModel` row cache safe to
reuse across replan epochs (the model's ``_net_blocks`` is the
many-to-many gather over cached rows).

The kernel is a ``(time, node)`` heap loop with lazy deletion that relaxes
each settled node's out-edges one by one, in CSR order, over **plain
Python lists** (:meth:`RoadNetwork.csr_lists` plus a list of edge times)
and converts to arrays once at the end.  Street graphs have out-degree
≤ 4: at that width the fixed cost of slicing, gathering, masking and
unboxing four NumPy arrays per settled node is several times the cost of
four list reads and a float add, so the scalar loop is 6–7× faster per
row than the array-slice relaxation it replaced (kept as the oracle in
``tests/roadnet/reference_dijkstra.py``; same heap order, relaxation
order and IEEE-754 adds, hence bit-identical rows).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.roadnet.graph import RoadNetwork

__all__ = ["dijkstra_row"]


def dijkstra_row(
    network: RoadNetwork,
    source: int,
    edge_time: Optional[Union[np.ndarray, List[float]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fastest-path ``(times, lengths)`` from ``source`` to every node.

    ``times[v]`` is the minimum travel time from ``source`` to ``v`` and
    ``lengths[v]`` the length of that fastest path (``inf`` for
    unreachable nodes).  Ties on time are broken deterministically by the
    heap's ``(time, node)`` ordering, so repeated calls return identical
    arrays — a requirement for the bit-for-bit replay guarantees of the
    incremental planner.

    ``edge_time`` optionally replaces the network's per-edge travel times
    (same alignment as ``network.indices``); edge *lengths* always come
    from the network.  This is how time-dependent backends run one Dijkstra
    per speed-profile window: the window rescales the times, the street
    geometry stays put, and the fastest path — and hence the reported
    length — may differ per window.  An array is unboxed to a list on
    every call; a caller running many rows over the same times (the
    travel model, once per window) passes that list instead.
    """
    n = network.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source node {source} outside [0, {n})")
    if edge_time is None:
        edge_time = network.edge_time
    if len(edge_time) != network.num_edges:
        raise ValueError("edge_time override must align with network edges")
    if not isinstance(edge_time, list):
        edge_time = np.asarray(edge_time, dtype=np.float64).tolist()
    indptr, indices, edge_length = network.csr_lists()
    times = [math.inf] * n
    lengths = [math.inf] * n
    times[source] = 0.0
    lengths[source] = 0.0
    settled = [False] * n
    heap: List[Tuple[float, int]] = [(0.0, source)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        t_u, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        l_u = lengths[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            t_v = t_u + edge_time[k]
            # Strict test per edge, in CSR order: of parallel edges to the
            # same neighbour only a strictly faster one replaces the first.
            if t_v < times[v]:
                times[v] = t_v
                lengths[v] = l_u + edge_length[k]
                heappush(heap, (t_v, v))
    return np.array(times, dtype=np.float64), np.array(lengths, dtype=np.float64)
