"""Travel-cost models: the paper's ``td(a, b)`` and ``c(a, b)`` functions.

Definition 3 and the reachability constraints use two primitives: travel
*distance* ``td(a, b)`` and travel *time* ``c(a, b)``.  The paper treats the
road network abstractly; this module turns that abstraction into a small
pluggable protocol so the whole planning stack — travel matrices,
reachability, sequence enumeration, the incremental replan engine, the
platform — runs unchanged over straight-line models, street-grid
approximations, or a real road network
(:class:`repro.roadnet.RoadNetworkTravelModel`).

A travel model provides three layers:

* **Scalar primitives** — :meth:`TravelModel.distance` and
  :meth:`TravelModel.time`, the reference semantics every other layer must
  agree with bit-for-bit.
* **Vectorized kernel** — :meth:`TravelModel.distance_matrix` /
  :meth:`TravelModel.time_matrix` over coordinate arrays.  The built-in
  models implement them with the exact IEEE-754 operation sequence of the
  scalar primitives, so vectorized planning is *provably* a pure
  optimisation; a model may return ``None`` to request the cached scalar
  fallback instead.
* **Locality bound** — :meth:`TravelModel.reach_bound` maps a travel-distance
  budget to a Euclidean radius guaranteed to contain it, which is what keeps
  the incremental engine's dirty balls sound under non-Euclidean travel.
* **Epoch clock** — :meth:`TravelModel.begin_epoch` /
  :meth:`TravelModel.next_profile_boundary`, the hooks time-dependent
  models (:class:`repro.spatial.timedep.TimeDependentTravelModel`, the
  road-network backend with rush-hour profiles) use to latch the speed
  profile of the current decision point and to tell the caching layers
  when their cached travel costs stop being valid.  Static models keep the
  no-op defaults, so nothing changes for them.

The entity-level helpers :meth:`pairwise` and :meth:`legs` wrap the
kernel for callers holding workers / tasks rather than coordinate arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.spatial.geometry import Point, euclidean_distance, manhattan_distance


def _points_of(entities) -> list:
    """Locations of a sequence of workers/tasks (plain Points pass through)."""
    return [getattr(entity, "location", entity) for entity in entities]


def _coords(points) -> Tuple[np.ndarray, np.ndarray]:
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    return xs, ys


class LegPricer:
    """Re-prices frozen-epoch leg times at their true departure windows.

    Produced by :meth:`TravelModel.leg_pricer`.  ``ratio_and_slack(t)``
    returns, for a leg departing at absolute time ``t``:

    * the factor converting a leg time priced at the latched epoch
      multiplier into one priced at ``t``'s window — exactly ``1.0``
      (and hence bit-for-bit no-op) while ``t`` stays inside the latched
      window;
    * the distance from ``t`` to the next profile boundary, which callers
      min-accumulate into their reuse horizons: shift every departure by
      less than that slack and every window assignment (hence every
      priced leg) is unchanged.
    """

    __slots__ = ("profile", "latched")

    def __init__(self, profile, latched: float) -> None:
        self.profile = profile
        self.latched = latched

    def ratio_and_slack(self, depart: float) -> Tuple[float, float]:
        multiplier = self.profile.multiplier_at(depart)
        ratio = 1.0 if multiplier == self.latched else self.latched / multiplier
        return ratio, self.profile.next_boundary(depart) - depart


class TravelModel(ABC):
    """Abstract travel model exposing distance and time between locations."""

    def __init__(self, speed: float = 1.0) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed

    # ------------------------------------------------------------------ #
    # Epoch clock (time-dependent models; static models keep the no-ops)
    # ------------------------------------------------------------------ #
    def begin_epoch(self, now: float) -> None:
        """Latch the travel costs of the decision point at ``now``.

        Time-dependent models freeze the speed-profile window active at
        ``now`` so that every cost evaluated until the next call uses one
        consistent multiplier (frozen-at-departure semantics; see
        :mod:`repro.spatial.timedep`).  The planner, the incremental
        engine and the platform call this at every decision point; the
        call is idempotent for a fixed ``now``.  Static models ignore it.
        """

    def next_profile_boundary(self, now: float) -> float:
        """First time strictly after ``now`` at which travel costs may change.

        The caching layers clamp every validity horizon to this value:
        a reachable set / sequence set / travel row computed at ``now`` may
        be reused only on ``[now, next_profile_boundary(now))``.  Static
        models return ``inf`` (costs never change), keeping every cache
        exactly as durable as before.
        """
        return float("inf")

    def leg_pricer(self, now: float) -> Optional["LegPricer"]:
        """Optional per-leg departure-window pricer for the epoch at ``now``.

        ``None`` (the default, and the only value static models ever
        return) keeps the frozen-at-departure semantics: every leg of a
        sequence is priced at the multiplier latched by
        :meth:`begin_epoch`.  Time-dependent models may instead return a
        :class:`LegPricer`, which lets the sequence enumerator re-price
        each leg in the speed-profile window in force at that leg's
        *departure* on the simulated clock — matching what the platform
        actually pays, since it dispatches one task at a time and
        re-latches the epoch at every departure.  Models whose profile is
        uniform must return ``None`` so the per-leg path is bit-for-bit
        the frozen path.
        """
        return None

    # ------------------------------------------------------------------ #
    # Scalar primitives (the reference semantics)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def distance(self, origin: Point, destination: Point) -> float:
        """Travel distance ``td(a, b)``."""

    def time(self, origin: Point, destination: Point) -> float:
        """Travel time ``c(a, b) = td(a, b) / speed``."""
        return self.distance(origin, destination) / self.speed

    # ------------------------------------------------------------------ #
    # Vectorized kernel (optional; None requests the scalar fallback)
    # ------------------------------------------------------------------ #
    def distance_matrix(
        self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
    ) -> Optional[np.ndarray]:
        """|A|×|B| travel-distance matrix for coordinate arrays.

        Implementations must be bit-for-bit consistent with
        :meth:`distance` (same IEEE-754 operation sequence): the planner
        mixes scalar and vectorized paths freely and relies on them
        producing identical floats.  Return ``None`` (the default) to make
        callers evaluate the scalar primitive per pair instead.
        """
        return None

    def time_matrix(
        self,
        ax: np.ndarray,
        ay: np.ndarray,
        bx: np.ndarray,
        by: np.ndarray,
        dist: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """|A|×|B| travel-time matrix; ``dist`` may carry the distances.

        The default handles every model that keeps the base-class relation
        ``time = distance / speed``; models overriding :meth:`time` must
        either override this too or accept the scalar fallback.
        """
        if type(self).time is not TravelModel.time:
            return None
        if dist is None:
            dist = self.distance_matrix(ax, ay, bx, by)
        if dist is None:
            return None
        return dist / self.speed

    # ------------------------------------------------------------------ #
    # Entity-level protocol (workers / tasks / points)
    # ------------------------------------------------------------------ #
    def pairwise(
        self,
        origins: Sequence,
        destinations: Sequence,
        dest_coords: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distance, time)`` matrices between two entity sequences.

        ``origins`` / ``destinations`` may be workers, tasks, or plain
        :class:`Point` objects.  Uses the vectorized kernel when the model
        provides one and falls back to exact per-pair scalar evaluation
        otherwise, so the result is always bit-identical to the scalar
        primitives.

        ``dest_coords`` optionally carries the destinations' already
        extracted ``(x, y)`` float64 arrays; callers holding them (the
        per-epoch :class:`~repro.spatial.travel_matrix.TravelMatrix`)
        skip one coordinate-array rebuild per call.  The arrays must
        match ``destinations`` element for element.
        """
        pts_a = _points_of(origins)
        ax, ay = _coords(pts_a)
        if dest_coords is not None:
            bx, by = dest_coords
        else:
            bx, by = _coords(_points_of(destinations))
        dist = self.distance_matrix(ax, ay, bx, by)
        time = None if dist is None else self.time_matrix(ax, ay, bx, by, dist=dist)
        if dist is None or time is None:
            pts_b = _points_of(destinations)
        if dist is None:
            dist = np.empty((len(pts_a), len(pts_b)), dtype=np.float64)
            for i, a in enumerate(pts_a):
                for j, b in enumerate(pts_b):
                    dist[i, j] = self.distance(a, b)
            time = self.time_matrix(ax, ay, bx, by, dist=dist)
        if time is None:
            time = np.empty((len(pts_a), len(pts_b)), dtype=np.float64)
            for i, a in enumerate(pts_a):
                for j, b in enumerate(pts_b):
                    time[i, j] = self.time(a, b)
        return dist, time

    def legs(
        self, origins: Sequence, destinations: Sequence
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Task→task leg matrices (alias of :meth:`pairwise` by default).

        Kept as a separate protocol entry so models whose worker→task and
        task→task costs differ (e.g. different access rules) can split
        them without touching callers.
        """
        return self.pairwise(origins, destinations)

    # ------------------------------------------------------------------ #
    # Locality bound
    # ------------------------------------------------------------------ #
    def reach_bound(self, reach: float) -> float:
        """Euclidean radius covering every travel chain of total length ``reach``.

        Contract: for any chain of legs ``a_0 → a_1 → … → a_k`` with
        ``sum(distance(a_i, a_i+1)) <= reach``, the straight-line distance
        from ``a_0`` to ``a_k`` must be ``<= reach_bound(reach)``.  The
        incremental engine's dirty balls rely on this to over-approximate
        travel-distance balls with Euclidean ones.

        The default returns ``reach`` unchanged, which is sound whenever
        ``distance(a, b) >= euclidean(a, b)`` (true for the built-in
        Euclidean and Manhattan models, and for road networks whose edge
        lengths are at least the straight-line segment lengths).  Models
        violating that property must override this — returning
        ``float("inf")`` is always sound and merely disables the
        geometric pruning.
        """
        return reach


class EuclideanTravelModel(TravelModel):
    """Straight-line travel at constant speed (the paper's default)."""

    def distance(self, origin: Point, destination: Point) -> float:
        return euclidean_distance(origin, destination)

    def distance_matrix(self, ax, ay, bx, by):
        dx = ax[:, None] - bx[None, :]
        dy = ay[:, None] - by[None, :]
        # Same operation sequence as geometry.euclidean_distance: the
        # results are bit-identical to the scalar path.
        return np.sqrt(dx * dx + dy * dy)


class ManhattanTravelModel(TravelModel):
    """City-block travel at constant speed, approximating a street grid."""

    def distance(self, origin: Point, destination: Point) -> float:
        return manhattan_distance(origin, destination)

    def distance_matrix(self, ax, ay, bx, by):
        dx = ax[:, None] - bx[None, :]
        dy = ay[:, None] - by[None, :]
        return np.abs(dx) + np.abs(dy)
