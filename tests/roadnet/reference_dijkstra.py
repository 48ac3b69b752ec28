"""The NumPy-slice Dijkstra row — the product kernel until PR 18, now its oracle.

``reference_dijkstra_row`` is the body ``repro.roadnet.dijkstra.dijkstra_row``
had before the plain-list kernel replaced it, moved here verbatim (same
convention as ``tests/assignment/reference_*.py``; nothing under ``src/``
imports it).  Each settled node relaxes its out-neighbourhood with CSR
array slices — slow at street-grid degrees, but an independent statement
of the same heap order, relaxation order and float adds, so the product
kernel must match it bit for bit on ``times`` *and* ``lengths``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.roadnet.graph import RoadNetwork

__all__ = ["reference_dijkstra_row"]


def reference_dijkstra_row(
    network: RoadNetwork, source: int, edge_time: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Fastest-path ``(times, lengths)`` from ``source`` to every node."""
    n = network.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source node {source} outside [0, {n})")
    if edge_time is None:
        edge_time = network.edge_time
    elif len(edge_time) != network.num_edges:
        raise ValueError("edge_time override must align with network edges")
    times = np.full(n, np.inf, dtype=np.float64)
    lengths = np.full(n, np.inf, dtype=np.float64)
    times[source] = 0.0
    lengths[source] = 0.0
    settled = np.zeros(n, dtype=bool)
    indptr = network.indptr
    indices = network.indices
    edge_length = network.edge_length
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        t_u, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        start, end = int(indptr[u]), int(indptr[u + 1])
        if start == end:
            continue
        nbrs = indices[start:end]
        cand_t = t_u + edge_time[start:end]
        cand_l = lengths[u] + edge_length[start:end]
        improving = cand_t < times[nbrs]
        if not improving.any():
            continue
        for v, t_v, l_v in zip(
            nbrs[improving].tolist(), cand_t[improving].tolist(), cand_l[improving].tolist()
        ):
            # Recheck per element: parallel edges to the same neighbour can
            # both pass the vectorized mask; only the best may win.
            if t_v < times[v]:
                times[v] = t_v
                lengths[v] = l_v
                heapq.heappush(heap, (t_v, v))
    return times, lengths
