"""The road-network TravelModel backend.

:class:`RoadNetworkTravelModel` plugs a directed :class:`~repro.roadnet.
graph.RoadNetwork` into the planner's :class:`~repro.spatial.travel.
TravelModel` protocol.  Point-to-point semantics:

* both endpoints **snap** to their nearest network node (Euclidean,
  deterministic smallest-id tie-break);
* the network contributes the **fastest directed path** between the
  snapped nodes — time is the path's travel time, distance the length of
  that same path (not the shortest-length path: couriers drive the fast
  route and the odometer follows);
* the off-network *access* and *egress* legs (point ↔ snapped node) are
  straight lines at the model's base ``speed``.

The resulting costs are **asymmetric** (one-way streets, per-direction
speeds) and **non-metric in time** (a fast arterial detour can beat the
"direct" side-street time), which is exactly the regime the
reachability/sequence layers must survive; distances still dominate
Euclidean displacement whenever the graph's ``min_dilation >= 1``, so
:meth:`reach_bound` stays a finite linear bound and the planner keeps its
Euclidean index pruning.

Caching makes the model fast enough for per-event replanning:

* a **snap cache** (LRU, keyed by exact coordinates) — workers and tasks
  keep their coordinates across epochs, so snapping amortises to a dict
  lookup;
* a **row cache** (LRU over Dijkstra rows, the "landmarks" of the
  current epoch) — each replan touches a bounded set of snapped source
  nodes, and consecutive epochs touch almost the same set, so the
  many-to-many matrices of a steady replay are pure gathers.  A miss is
  one :func:`~repro.roadnet.dijkstra.dijkstra_row` over plain-list views
  of the graph (:meth:`RoadNetwork.csr_lists`) and of the active
  window's edge times (one list per window signature, kept beside the
  scaled arrays); both are built by the first cold row that needs them,
  so constructing a model or latching an epoch stays cheap.

Every cached value is a pure function of the network (and, with
time-dependent profiles, of the active speed-profile *window*), so cache
hits are bit-identical to cold computation — the property all
scalar/vectorized equivalence in the planner rests on.

Rush-hour support: pass ``edge_profiles`` (one
:class:`~repro.spatial.profiles.SpeedProfile` per edge class, with
``edge_class`` assigning each directed edge a class — e.g. arterials vs
local streets from :func:`~repro.roadnet.graph.classify_edges_by_speed`).
Edge travel *times* are divided by the class's multiplier active at the
epoch latched by :meth:`~RoadNetworkTravelModel.begin_epoch`; edge lengths
never change, but the *fastest path* (and hence the reported distance,
the length of that path) may differ per window.  Dijkstra rows are keyed
on ``(node, window signature)`` in the same LRU, where the signature is
the tuple of active multipliers — windows that happen to share all
multipliers (e.g. the same rush hour on consecutive days) share rows.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.dijkstra import dijkstra_row
from repro.roadnet.graph import RoadNetwork
from repro.spatial.geometry import Point, euclidean_distance
from repro.spatial.index import SpatialIndex
from repro.spatial.profiles import SpeedProfile
from repro.spatial.travel import TravelModel, _coords, _points_of

__all__ = ["RoadNetworkTravelModel"]


class RoadNetworkTravelModel(TravelModel):
    """Travel distances/times over a directed road network.

    Parameters
    ----------
    network:
        The road graph.
    speed:
        Straight-line speed of the access/egress legs (also the fallback
        notion of "speed" inherited from the protocol; network legs carry
        their own per-edge times).
    row_cache_size:
        Maximum number of cached Dijkstra rows (one per distinct snapped
        source node).
    snap_cache_size:
        Maximum number of cached coordinate→node snaps.
    edge_profiles:
        Optional per-edge-class speed profiles (rush hour).  ``None``
        keeps the static backend exactly as before.
    edge_class:
        Per-edge class indices into ``edge_profiles`` (aligned with the
        network's CSR edge arrays).  ``None`` with profiles puts every
        edge in class 0.
    """

    def __init__(
        self,
        network: RoadNetwork,
        speed: float = 1.0,
        row_cache_size: int = 1024,
        snap_cache_size: int = 65536,
        edge_profiles: Optional[Sequence[SpeedProfile]] = None,
        edge_class: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(speed=speed)
        if network.num_nodes == 0:
            raise ValueError("road network has no nodes")
        self.network = network
        self.edge_profiles: Optional[Tuple[SpeedProfile, ...]] = (
            tuple(edge_profiles) if edge_profiles else None
        )
        if self.edge_profiles is not None:
            if edge_class is None:
                edge_class = np.zeros(network.num_edges, dtype=np.int64)
            else:
                edge_class = np.asarray(edge_class, dtype=np.int64)
                if len(edge_class) != network.num_edges:
                    raise ValueError("edge_class must align with network edges")
                if edge_class.size and (
                    edge_class.min() < 0
                    or edge_class.max() >= len(self.edge_profiles)
                ):
                    raise ValueError("edge_class indices outside edge_profiles")
        self.edge_class = edge_class if self.edge_profiles is not None else None
        #: Active window signature (the multiplier per class) and the
        #: matching scaled edge-time array; ``()`` / the network's own
        #: times for static models.  Scaled arrays are memoised per
        #: signature — recurring windows (tomorrow's rush hour) are free.
        self._window_sig: Tuple[float, ...] = ()
        self._edge_time: np.ndarray = network.edge_time
        self._edge_time_by_sig: Dict[Tuple[float, ...], np.ndarray] = {}
        #: The same edge times per signature as plain lists — what the
        #: Dijkstra kernel iterates.  Filled by the first cold row of a
        #: window, not here and not by ``begin_epoch``.
        self._edge_time_lists: Dict[Tuple[float, ...], List[float]] = {}
        cell = float(np.mean(network.edge_length)) if network.num_edges else 1.0
        self._nodes_index: SpatialIndex = SpatialIndex(cell_size=max(cell, 1e-9))
        for node in range(network.num_nodes):
            self._nodes_index.insert(node, network.node_point(node))
        self._row_cache_size = max(int(row_cache_size), 1)
        self._snap_cache_size = max(int(snap_cache_size), 1)
        #: node + window signature -> (times, lengths) Dijkstra row.
        self._row_cache: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._snap_cache: "OrderedDict[Tuple[float, float], Tuple[int, float]]" = OrderedDict()
        #: Cache diagnostics (read by the perf smoke benchmarks and
        #: exported through ``cache_stats`` by the observability layer).
        self.row_cache_hits = 0
        self.row_cache_misses = 0
        self.snap_cache_hits = 0
        self.snap_cache_misses = 0
        #: Optional :class:`repro.obs.Tracer` recording a span per cold
        #: Dijkstra row (attached by the platform when observability is
        #: on; None keeps the hot path span-free).
        self._tracer = None
        dilation = network.min_dilation
        #: Euclidean-displacement factor per unit of travel distance: any
        #: path of network length L has straight-line displacement at most
        #: ``L / min(1, min_dilation)``; access/egress legs are straight
        #: lines, hence factor 1.  Exactly 1.0 for generated networks.
        #: Zero-length edges between distinct nodes (dilation 0) admit
        #: unbounded displacement per unit length, so no finite bound
        #: exists — the factor degrades to inf (full-scan pruning).
        if dilation >= 1.0:
            self._reach_factor = 1.0
        elif dilation > 0.0:
            self._reach_factor = 1.0 / dilation
        else:
            self._reach_factor = float("inf")
        #: One-entry memo of the last coordinate-block request:
        #: ``TravelMatrix`` asks for the distance and the time block of the
        #: same coordinates back to back, and the snap/row-gather pass is
        #: the expensive part — one pass serves both.  Scoped to the
        #: active profile window (reset on window changes).
        self._last_blocks = None
        #: One-entry ``(now, boundary)`` memo of ``next_profile_boundary``:
        #: reachability and sequence enumeration each ask once per
        #: refreshed worker, all with the epoch's ``now``.  A pure function
        #: of ``now`` over immutable profiles, so it never goes stale.
        self._last_boundary: Optional[Tuple[float, float]] = None
        if self.edge_profiles is not None:
            self.begin_epoch(0.0)

    # ------------------------------------------------------------------ #
    # Epoch clock (speed-profile windows)
    # ------------------------------------------------------------------ #
    def begin_epoch(self, now: float) -> None:
        """Latch the per-class multipliers active at ``now``.

        Same-window calls are free; a window change swaps in the scaled
        edge-time array of the new signature (memoised per signature) and
        drops the coordinate-block memo.  Cached Dijkstra rows are keyed
        on the signature, so rows of recurring windows survive in the LRU.
        """
        if self.edge_profiles is None:
            return
        sig = tuple(profile.multiplier_at(now) for profile in self.edge_profiles)
        if sig == self._window_sig:
            return
        self._window_sig = sig
        self._last_blocks = None
        scaled = self._edge_time_by_sig.get(sig)
        if scaled is None:
            multiplier = np.asarray(sig, dtype=np.float64)[self.edge_class]
            scaled = self.network.edge_time / multiplier
            self._edge_time_by_sig[sig] = scaled
        self._edge_time = scaled

    def next_profile_boundary(self, now: float) -> float:
        if self.edge_profiles is None:
            return float("inf")
        memo = self._last_boundary
        if memo is not None and memo[0] == now:
            return memo[1]
        boundary = min(profile.next_boundary(now) for profile in self.edge_profiles)
        self._last_boundary = (now, boundary)
        return boundary

    # ------------------------------------------------------------------ #
    # Snapping
    # ------------------------------------------------------------------ #
    def snap(self, point: Point) -> Tuple[int, float]:
        """``(node, access_distance)`` of the nearest network node.

        Deterministic: equal-distance candidates resolve to the smallest
        node id, independent of index bucket order.
        """
        key = (point.x, point.y)
        cache = self._snap_cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self.snap_cache_hits += 1
            return hit
        self.snap_cache_misses += 1
        radius = self._nodes_index.cell_size
        best: Optional[Tuple[float, int]] = None
        while best is None:
            for node in self._nodes_index.query_radius(point, radius):
                candidate = (
                    euclidean_distance(self.network.node_point(node), point),
                    node,
                )
                if best is None or candidate < best:
                    best = candidate
            radius *= 2.0
        # Any node outside the scanned radius is farther than the found
        # best (distance > radius >= best), so `best` is the global
        # nearest.
        result = (best[1], best[0])
        cache[key] = result
        if len(cache) > self._snap_cache_size:
            cache.popitem(last=False)
        return result

    def _snap_arrays(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        nodes = np.empty(len(xs), dtype=np.int64)
        access = np.empty(len(xs), dtype=np.float64)
        for i in range(len(xs)):
            nodes[i], access[i] = self.snap(Point(float(xs[i]), float(ys[i])))
        return nodes, access

    # ------------------------------------------------------------------ #
    # Shortest-path rows
    # ------------------------------------------------------------------ #
    def _row(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(times, lengths)`` Dijkstra row from ``node``.

        Keyed on ``(node, window signature)``: the fastest paths of one
        speed-profile window are useless in another, but windows sharing
        every multiplier (a recurring rush hour) share rows.  Static
        models carry the empty signature, keeping one row per node.
        """
        cache = self._row_cache
        key = (node, self._window_sig)
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self.row_cache_hits += 1
            return hit
        self.row_cache_misses += 1
        edge_time = self._edge_time_lists.get(self._window_sig)
        if edge_time is None:
            edge_time = self._edge_time.tolist()
            self._edge_time_lists[self._window_sig] = edge_time
        tracer = self._tracer
        if tracer is not None:
            with tracer.span("roadnet.dijkstra_row", node=node):
                row = dijkstra_row(self.network, node, edge_time=edge_time)
        else:
            row = dijkstra_row(self.network, node, edge_time=edge_time)
        cache[key] = row
        if len(cache) > self._row_cache_size:
            cache.popitem(last=False)
        return row

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a tracer for cold-row spans."""
        self._tracer = tracer

    def cache_stats(self) -> Dict[str, int]:
        """Current hit/miss counters of both LRUs (cumulative since the
        last ``clear_caches``)."""
        return {
            "row_hits": self.row_cache_hits,
            "row_misses": self.row_cache_misses,
            "snap_hits": self.snap_cache_hits,
            "snap_misses": self.snap_cache_misses,
        }

    def clear_caches(self) -> None:
        """Drop the snap and row caches (e.g. between benchmark phases)."""
        self._row_cache.clear()
        self._snap_cache.clear()
        self._last_blocks = None
        self._last_boundary = None
        self.row_cache_hits = 0
        self.row_cache_misses = 0
        self.snap_cache_hits = 0
        self.snap_cache_misses = 0

    # ------------------------------------------------------------------ #
    # Scalar primitives
    # ------------------------------------------------------------------ #
    def distance(self, origin: Point, destination: Point) -> float:
        na, access = self.snap(origin)
        nb, egress = self.snap(destination)
        lengths = self._row(na)[1]
        # Same association order as the vectorized kernel:
        # (access + network) + egress.
        return float(access + lengths[nb] + egress)

    def time(self, origin: Point, destination: Point) -> float:
        na, access = self.snap(origin)
        nb, egress = self.snap(destination)
        times = self._row(na)[0]
        return float(access / self.speed + times[nb] + egress / self.speed)

    # ------------------------------------------------------------------ #
    # Vectorized kernel
    # ------------------------------------------------------------------ #
    def _net_blocks(
        self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
    ):
        ax, ay = np.asarray(ax), np.asarray(ay)
        bx, by = np.asarray(bx), np.asarray(by)
        key = (ax.tobytes(), ay.tobytes(), bx.tobytes(), by.tobytes())
        if self._last_blocks is not None and self._last_blocks[0] == key:
            return self._last_blocks[1]
        a_nodes, a_access = self._snap_arrays(ax, ay)
        b_nodes, b_access = self._snap_arrays(bx, by)
        net_t = np.empty((len(a_nodes), len(b_nodes)), dtype=np.float64)
        net_l = np.empty_like(net_t)
        for i, node in enumerate(a_nodes.tolist()):
            row_t, row_l = self._row(node)
            net_t[i] = row_t[b_nodes]
            net_l[i] = row_l[b_nodes]
        blocks = (a_access, b_access, net_t, net_l)
        self._last_blocks = (key, blocks)
        return blocks

    def distance_matrix(self, ax, ay, bx, by):
        a_access, b_access, _, net_l = self._net_blocks(ax, ay, bx, by)
        return a_access[:, None] + net_l + b_access[None, :]

    def time_matrix(self, ax, ay, bx, by, dist=None):
        a_access, b_access, net_t, _ = self._net_blocks(ax, ay, bx, by)
        return (a_access / self.speed)[:, None] + net_t + (b_access / self.speed)[None, :]

    def pairwise(self, origins, destinations, dest_coords=None):
        # One snap/gather pass feeding both matrices (the base class would
        # run the kernel twice); identical floats, half the work.
        ax, ay = _coords(_points_of(origins))
        if dest_coords is not None:
            bx, by = dest_coords
        else:
            bx, by = _coords(_points_of(destinations))
        a_access, b_access, net_t, net_l = self._net_blocks(ax, ay, bx, by)
        dist = a_access[:, None] + net_l + b_access[None, :]
        time = (a_access / self.speed)[:, None] + net_t + (b_access / self.speed)[None, :]
        return dist, time

    # ------------------------------------------------------------------ #
    def reach_bound(self, reach: float) -> float:
        """Euclidean radius covering travel chains of total length ``reach``.

        Linear (``reach * factor``), so it bounds multi-leg chains as the
        contract requires; the factor is exactly 1.0 whenever the graph's
        ``min_dilation >= 1`` (all generated networks), keeping the bound
        bit-identical to the Euclidean default.  Networks with zero-length
        edges between distinct nodes have no finite bound and return inf.

        The bound is window-independent under rush-hour profiles: any
        reported distance is the length of a real network path (whichever
        path is time-fastest in the active window), and ``min_dilation``
        bounds displacement per unit length for *every* path, so the same
        factor covers every window.
        """
        if math.isinf(self._reach_factor):
            return float("inf")
        return reach * self._reach_factor
