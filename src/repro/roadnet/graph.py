"""Directed road graphs: CSR storage, synthetic generators, edge-list files.

A :class:`RoadNetwork` is a plain struct-of-arrays directed graph: node
coordinates plus a CSR adjacency whose edges carry both a *length* (km,
the paper's travel distance ``td``) and a *travel time* (the paper's
``c``).  Keeping length and time separate is what makes the network
asymmetric and non-metric in the ways a real city is: one-way streets and
per-direction speeds make ``c(a, b) != c(b, a)`` even where the lengths
agree.

Two synthetic generators cover the common urban topologies — a Manhattan
street grid and a ring-and-spoke radial city — and an edge-list text
format round-trips real networks::

    # comment lines start with '#'
    node <id> <x> <y>
    edge <u> <v> <length> [<time>]

Generated edge lengths equal the straight-line segment lengths, so network
path length always dominates Euclidean displacement
(``min_dilation >= 1``), which is what lets
:class:`~repro.roadnet.model.RoadNetworkTravelModel` keep the identity
``reach_bound`` and the planner keep its Euclidean spatial pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.spatial.geometry import Point

__all__ = [
    "RoadNetwork",
    "grid_network",
    "radial_network",
    "load_edge_list",
    "save_edge_list",
    "classify_edges_by_speed",
]


@dataclass
class RoadNetwork:
    """A directed road graph in CSR form.

    Attributes
    ----------
    node_x, node_y:
        Node coordinates, shape (N,).
    indptr, indices:
        CSR adjacency: the out-edges of node ``u`` are
        ``indices[indptr[u]:indptr[u+1]]``.
    edge_length, edge_time:
        Per-edge travel distance and travel time, aligned with ``indices``.

    The arrays are read-only by convention once anything has been derived
    from them (``min_dilation``, :meth:`csr_lists`, a travel model's
    cached rows): none of those is recomputed after an in-place edit.
    """

    node_x: np.ndarray
    node_y: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_length: np.ndarray
    edge_time: np.ndarray
    name: str = "roadnet"
    _min_dilation: Optional[float] = field(default=None, repr=False, compare=False)
    _csr_lists: Optional[Tuple[List[int], List[int], List[float]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.node_x)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def node_point(self, node: int) -> Point:
        return Point(float(self.node_x[node]), float(self.node_y[node]))

    def out_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(neighbors, lengths, times)`` views of node's out-edges."""
        start, end = int(self.indptr[node]), int(self.indptr[node + 1])
        return (
            self.indices[start:end],
            self.edge_length[start:end],
            self.edge_time[start:end],
        )

    def csr_lists(self) -> Tuple[List[int], List[int], List[float]]:
        """``(indptr, indices, edge_length)`` as plain Python lists.

        What the Dijkstra kernel iterates: unboxed once per network on the
        first row computed over it — never at construction — and kept.
        Derived state like ``min_dilation`` (not compared or repr'd), and
        additionally left out of pickles and copies.
        """
        if self._csr_lists is None:
            self._csr_lists = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.edge_length.tolist(),
            )
        return self._csr_lists

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_csr_lists"] = None
        return state

    @property
    def min_dilation(self) -> float:
        """Minimum edge ``length / straight-line`` ratio over the graph.

        ``>= 1`` means every edge is at least as long as its straight-line
        segment, hence any network path's length dominates the Euclidean
        displacement between its endpoints — the property behind the
        identity ``reach_bound``.  Degenerate zero-length segments are
        skipped; an edge-free graph reports 1.
        """
        if self._min_dilation is None:
            if self.num_edges == 0:
                self._min_dilation = 1.0
            else:
                src = np.repeat(
                    np.arange(self.num_nodes), np.diff(self.indptr)
                )
                dx = self.node_x[self.indices] - self.node_x[src]
                dy = self.node_y[self.indices] - self.node_y[src]
                straight = np.sqrt(dx * dx + dy * dy)
                valid = straight > 0.0
                if not valid.any():
                    self._min_dilation = 1.0
                else:
                    self._min_dilation = float(
                        np.min(self.edge_length[valid] / straight[valid])
                    )
        return self._min_dilation

    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        nodes: Sequence[Tuple[float, float]],
        edges: Sequence[Tuple[int, int, float, float]],
        name: str = "roadnet",
    ) -> "RoadNetwork":
        """Build a network from ``(x, y)`` nodes and ``(u, v, length, time)`` edges."""
        num_nodes = len(nodes)
        node_x = np.array([x for x, _ in nodes], dtype=np.float64)
        node_y = np.array([y for _, y in nodes], dtype=np.float64)
        for u, v, length, time in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            if length < 0 or time < 0:
                raise ValueError(f"edge ({u}, {v}) has negative length/time")
        order = sorted(range(len(edges)), key=lambda k: (edges[k][0], edges[k][1]))
        counts = np.zeros(num_nodes, dtype=np.int64)
        for u, _, _, _ in edges:
            counts[u] += 1
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.array([edges[k][1] for k in order], dtype=np.int64)
        edge_length = np.array([edges[k][2] for k in order], dtype=np.float64)
        edge_time = np.array([edges[k][3] for k in order], dtype=np.float64)
        return cls(
            node_x=node_x,
            node_y=node_y,
            indptr=indptr,
            indices=indices,
            edge_length=edge_length,
            edge_time=edge_time,
            name=name,
        )


def _directed_speed(rng: np.random.Generator, speed: float, jitter: float) -> float:
    """Per-directed-edge speed with multiplicative jitter (asymmetry source)."""
    if jitter <= 0.0:
        return speed
    return speed * float(rng.uniform(1.0 - jitter, 1.0 + jitter))


def grid_network(
    rows: int,
    cols: int,
    spacing: float = 1.0,
    speed: float = 1.0,
    seed: Optional[int] = None,
    speed_jitter: float = 0.0,
    one_way_fraction: float = 0.0,
    name: str = "grid",
) -> RoadNetwork:
    """A ``rows × cols`` Manhattan street grid.

    Node ``(r, c)`` sits at ``(c * spacing, r * spacing)``; neighbouring
    nodes are connected in both directions.  ``speed_jitter`` draws an
    independent speed multiplier in ``[1 - j, 1 + j]`` per *directed*
    edge, so opposite directions of the same street differ in travel time
    (asymmetry); ``one_way_fraction`` drops that fraction of reverse
    edges entirely (one-way streets — note this may make a few node pairs
    unreachable, which the planner handles as infinite travel times).
    Edge lengths equal the segment lengths, so ``min_dilation == 1``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid_network needs at least one row and column")
    if speed <= 0:
        raise ValueError("speed must be positive")
    # seed=None draws fresh OS entropy: jitter / one-way still apply, the
    # network is just not reproducible (an explicit seed pins it).
    rng = np.random.default_rng(seed)
    nodes = [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    edges: List[Tuple[int, int, float, float]] = []

    def add_pair(u: int, v: int) -> None:
        length = spacing
        edges.append((u, v, length, length / _directed_speed(rng, speed, speed_jitter)))
        if one_way_fraction <= 0.0 or rng.random() >= one_way_fraction:
            edges.append((v, u, length, length / _directed_speed(rng, speed, speed_jitter)))

    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                add_pair(u, u + 1)
            if r + 1 < rows:
                add_pair(u, u + cols)
    return RoadNetwork.from_edges(nodes, edges, name=name)


def radial_network(
    rings: int = 4,
    spokes: int = 8,
    ring_spacing: float = 1.0,
    speed: float = 1.0,
    seed: Optional[int] = None,
    speed_jitter: float = 0.0,
    center: Tuple[float, float] = (0.0, 0.0),
    name: str = "radial",
) -> RoadNetwork:
    """A ring-and-spoke radial city: a centre, ``rings`` concentric rings
    of ``spokes`` nodes each, radial edges along spokes and arc edges
    around rings (all bidirectional, chord-length edges)."""
    if rings < 1 or spokes < 3:
        raise ValueError("radial_network needs rings >= 1 and spokes >= 3")
    if speed <= 0:
        raise ValueError("speed must be positive")
    rng = np.random.default_rng(seed)
    cx, cy = center
    nodes: List[Tuple[float, float]] = [(cx, cy)]
    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            nodes.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))

    def node_id(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke

    edges: List[Tuple[int, int, float, float]] = []

    def add_pair(u: int, v: int) -> None:
        ux, uy = nodes[u]
        vx, vy = nodes[v]
        length = math.sqrt((ux - vx) ** 2 + (uy - vy) ** 2)
        edges.append((u, v, length, length / _directed_speed(rng, speed, speed_jitter)))
        edges.append((v, u, length, length / _directed_speed(rng, speed, speed_jitter)))

    for spoke in range(spokes):
        add_pair(0, node_id(1, spoke))
        for ring in range(1, rings):
            add_pair(node_id(ring, spoke), node_id(ring + 1, spoke))
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            add_pair(node_id(ring, spoke), node_id(ring, (spoke + 1) % spokes))
    return RoadNetwork.from_edges(nodes, edges, name=name)


def classify_edges_by_speed(network: RoadNetwork, num_classes: int = 2) -> np.ndarray:
    """Assign each directed edge a class index by free-flow speed quantile.

    Class ``num_classes - 1`` holds the fastest edges (arterials), class
    ``0`` the slowest (local streets) — the split real rush-hour profiles
    care about, since congestion hits arterials hardest.  Classification is
    a pure function of the network (speed = ``length / time``, quantile
    thresholds over the finite speeds), so it is deterministic and
    reusable across runs.  Zero-time or zero-length edges land in class 0.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be at least 1")
    classes = np.zeros(network.num_edges, dtype=np.int64)
    if num_classes == 1 or network.num_edges == 0:
        return classes
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = network.edge_length / network.edge_time
    finite = np.isfinite(speed) & (speed > 0.0)
    if not finite.any():
        return classes
    thresholds = np.quantile(
        speed[finite], [k / num_classes for k in range(1, num_classes)]
    )
    classes[finite] = np.searchsorted(thresholds, speed[finite], side="left")
    return classes


# --------------------------------------------------------------------- #
# Edge-list files
# --------------------------------------------------------------------- #


def load_edge_list(path, default_speed: float = 1.0, name: Optional[str] = None) -> RoadNetwork:
    """Load a network from the ``node`` / ``edge`` line format.

    Node ids may be arbitrary integers; they are remapped to dense indices
    in ascending id order.  Edges without an explicit time get
    ``length / default_speed``.
    """
    path = Path(path)
    raw_nodes: dict = {}
    raw_edges: List[Tuple[int, int, float, float]] = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 4:
                raise ValueError(f"{path}:{line_no}: node lines need 'node id x y'")
            raw_nodes[int(parts[1])] = (float(parts[2]), float(parts[3]))
        elif kind == "edge":
            if len(parts) not in (4, 5):
                raise ValueError(
                    f"{path}:{line_no}: edge lines need 'edge u v length [time]'"
                )
            u, v = int(parts[1]), int(parts[2])
            length = float(parts[3])
            time = float(parts[4]) if len(parts) == 5 else length / default_speed
            raw_edges.append((u, v, length, time))
        else:
            raise ValueError(f"{path}:{line_no}: unknown record {kind!r}")
    if not raw_nodes:
        raise ValueError(f"{path}: no node records")
    dense = {node_id: i for i, node_id in enumerate(sorted(raw_nodes))}
    nodes = [raw_nodes[node_id] for node_id in sorted(raw_nodes)]
    for u, v, _, _ in raw_edges:
        if u not in dense or v not in dense:
            raise ValueError(f"{path}: edge ({u}, {v}) references an unknown node")
    edges = [(dense[u], dense[v], length, time) for u, v, length, time in raw_edges]
    return RoadNetwork.from_edges(nodes, edges, name=name or path.stem)


def save_edge_list(network: RoadNetwork, path) -> None:
    """Write a network in the ``node`` / ``edge`` line format (round-trips)."""
    path = Path(path)
    lines = [f"# road network {network.name}: {network.num_nodes} nodes, {network.num_edges} edges"]
    for i in range(network.num_nodes):
        # repr of python floats round-trips exactly (shortest exact form).
        lines.append(f"node {i} {float(network.node_x[i])!r} {float(network.node_y[i])!r}")
    for u in range(network.num_nodes):
        start, end = int(network.indptr[u]), int(network.indptr[u + 1])
        for k in range(start, end):
            lines.append(
                f"edge {u} {int(network.indices[k])} "
                f"{float(network.edge_length[k])!r} {float(network.edge_time[k])!r}"
            )
    path.write_text("\n".join(lines) + "\n")
