"""Time-dependent travel: any base model scaled by a rush-hour profile.

:class:`TimeDependentTravelModel` wraps an arbitrary
:class:`~repro.spatial.travel.TravelModel` and divides its travel *times*
by the :class:`~repro.spatial.profiles.SpeedProfile` multiplier active at
the current planning epoch; travel *distances* are the base model's
unchanged (congestion slows couriers down, it does not move the streets).

Frozen-at-departure semantics
-----------------------------
The model is *clocked*: :meth:`begin_epoch` latches the profile window of
the current decision point, and every travel time evaluated until the next
``begin_epoch`` uses that single multiplier — including later legs of a
multi-task sequence whose departures would fall past a boundary.  This is
the standard frozen-at-departure approximation, and it is what keeps every
validity predicate in the form ``now + legs < bound`` with ``legs``
constant inside the window, so the whole static-model correctness stack
(validity horizons, dirty balls, bit-for-bit incremental replay) applies
per window.  The planner re-latches at every decision point and the
incremental engine clamps its horizons to
:meth:`~repro.spatial.travel.TravelModel.next_profile_boundary`, so the
approximation self-corrects at each boundary: plans computed in the old
window are re-planned from true positions in the new one.

Bit-for-bit guarantees carry over from the base model: scalar and
vectorized paths divide the identical base floats by the identical
multiplier, so they remain bit-identical to each other, and a uniform
(boundary-free) profile at multiplier ``1.0`` is *literally* the base
model — same floats, same horizons, same assignments.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.spatial.profiles import SpeedProfile
from repro.spatial.travel import LegPricer, TravelModel

__all__ = ["TimeDependentTravelModel"]


class TimeDependentTravelModel(TravelModel):
    """Scale a base model's travel times by the profile at the epoch time.

    Parameters
    ----------
    base:
        The wrapped travel model (any backend: Euclidean, Manhattan,
        road-network, custom).
    profile:
        The speed multiplier over the day.
    now:
        Initial epoch time (the planner re-latches via
        :meth:`begin_epoch` at every decision point).
    """

    def __init__(
        self, base: TravelModel, profile: SpeedProfile, now: float = 0.0
    ) -> None:
        super().__init__(speed=base.speed)
        self.base = base
        self.profile = profile
        #: Euclidean-ball inflation for reach bounds, see :meth:`reach_bound`.
        self._bound_factor = 1.0 / min(1.0, profile.min_multiplier)
        self._epoch_now: float = now
        self._multiplier: float = profile.multiplier_at(now)
        #: One-entry ``(now, boundary)`` memo of ``next_profile_boundary``
        #: (asked once or twice per refreshed worker with the epoch's
        #: ``now``; a pure function of ``now``).
        self._last_boundary: Optional[Tuple[float, float]] = None
        base.begin_epoch(now)

    # ------------------------------------------------------------------ #
    # Epoch protocol
    # ------------------------------------------------------------------ #
    @property
    def multiplier(self) -> float:
        """The latched speed multiplier of the current epoch."""
        return self._multiplier

    def begin_epoch(self, now: float) -> None:
        """Latch the profile window active at ``now`` (and forward to base)."""
        self.base.begin_epoch(now)
        self._epoch_now = now
        self._multiplier = self.profile.multiplier_at(now)

    def next_profile_boundary(self, now: float) -> float:
        """Travel costs change at the profile's (or the base's) next boundary."""
        memo = self._last_boundary
        if memo is not None and memo[0] == now:
            return memo[1]
        boundary = min(
            self.profile.next_boundary(now), self.base.next_profile_boundary(now)
        )
        self._last_boundary = (now, boundary)
        return boundary

    def leg_pricer(self, now: float) -> Optional[LegPricer]:
        """Per-leg departure-window pricer (PR 10).

        Returns a pricer that converts this epoch's frozen leg times into
        the multiplier active at each leg's simulated departure — the cost
        the platform actually pays, since execution dispatches one task at
        a time and re-latches the epoch at every departure.

        ``None`` — keeping the frozen semantics, which are then already
        exact — when the profile is uniform (no boundaries, so every
        departure shares the latched multiplier bit-for-bit), or when the
        wrapped base model is itself time-dependent (a scalar ratio cannot
        re-price the base component; the frozen approximation plus its
        boundary clamp remains the sound fallback there).
        """
        if self.profile._uniform:
            return None
        if self.base.next_profile_boundary(now) != float("inf"):
            return None
        return LegPricer(self.profile, self._multiplier)

    # ------------------------------------------------------------------ #
    # Scalar primitives
    # ------------------------------------------------------------------ #
    def distance(self, origin, destination) -> float:
        return self.base.distance(origin, destination)

    def time(self, origin, destination) -> float:
        return self.base.time(origin, destination) / self._multiplier

    # ------------------------------------------------------------------ #
    # Vectorized kernel (inherits the base's, scaled elementwise — IEEE-754
    # division by the same scalar keeps scalar/vector bit-equality).
    # ------------------------------------------------------------------ #
    def distance_matrix(self, ax, ay, bx, by) -> Optional[np.ndarray]:
        return self.base.distance_matrix(ax, ay, bx, by)

    def time_matrix(self, ax, ay, bx, by, dist=None) -> Optional[np.ndarray]:
        base_time = self.base.time_matrix(ax, ay, bx, by, dist=dist)
        if base_time is None:
            return None
        return base_time / self._multiplier

    def pairwise(self, origins, destinations, dest_coords=None):
        # Delegate to the base's pairwise (which may fuse distance and time
        # passes, e.g. the road-network snap/row gather) and scale times.
        dist, time = self.base.pairwise(origins, destinations, dest_coords=dest_coords)
        return dist, time / self._multiplier

    # ------------------------------------------------------------------ #
    def reach_bound(self, reach: float) -> float:
        """Conservative Euclidean cover for travel chains of length ``reach``.

        Distances are the base model's, so the base bound already satisfies
        the chain contract at every instant; the extra division by the
        profile's minimum multiplier (a no-op unless the profile dips below
        ``1``) additionally covers base models whose reported distances
        co-vary with their times, at the cost of slightly wider dirty
        balls and index queries — over-approximation is always sound here.
        """
        return self.base.reach_bound(reach) * self._bound_factor
