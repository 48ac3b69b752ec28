"""Worker entity with a dynamic availability window (Definition 2)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

from repro.spatial.geometry import Point


@dataclass(frozen=True)
class AvailabilityWindow:
    """A contiguous time period during which a worker accepts tasks.

    The paper lets availability windows "vary in duration and may include
    specific start and end times" and change dynamically due to breaks or
    shifts; a worker therefore carries a list of these windows.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"availability window end ({self.end}) must be after start ({self.start})")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        """Whether ``time`` falls inside this window."""
        return self.start <= time < self.end

    def remaining(self, now: float) -> float:
        """Time left in the window measured from ``now`` (0 if outside)."""
        if now >= self.end:
            return 0.0
        return self.end - max(now, self.start)

    def overlaps(self, other: "AvailabilityWindow") -> bool:
        """Whether two windows share any time."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Worker:
    """An online worker ``w = (l, d, on, off)``.

    Attributes
    ----------
    worker_id:
        Unique identifier.
    location:
        Current location ``w.l`` from which the next task sequence starts.
    reachable_distance:
        Maximum distance ``w.d`` the worker travels for a task.
    on_time, off_time:
        Online and offline times ``w.on`` / ``w.off``.  Together they form
        the worker's primary availability window.
    windows:
        Optional additional availability windows within ``[on, off]``; if
        empty, the worker is available for the whole ``[on, off]`` period.
    speed:
        Travel speed used to turn distances into travel times.
    """

    worker_id: int
    location: Point
    reachable_distance: float
    on_time: float
    off_time: float
    windows: tuple = field(default=())
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.off_time <= self.on_time:
            raise ValueError(
                f"worker {self.worker_id}: off time ({self.off_time}) must be after on time ({self.on_time})"
            )
        if self.reachable_distance <= 0:
            raise ValueError(f"worker {self.worker_id}: reachable distance must be positive")
        if self.speed <= 0:
            raise ValueError(f"worker {self.worker_id}: speed must be positive")
        for window in self.windows:
            if window.start < self.on_time or window.end > self.off_time:
                raise ValueError(
                    f"worker {self.worker_id}: availability window {window} exceeds [on, off]"
                )

    # ------------------------------------------------------------------ #
    @property
    def available_time(self) -> float:
        """The paper's ``off - on``: total span the worker could work."""
        return self.off_time - self.on_time

    def availability_windows(self) -> List[AvailabilityWindow]:
        """Concrete availability windows (defaults to the whole [on, off])."""
        if self.windows:
            return list(self.windows)
        return [AvailabilityWindow(self.on_time, self.off_time)]

    # Hot per epoch: no AvailabilityWindow and no nested call per call; the
    # default [on, off) window is inlined with the same float expressions.
    def is_available(self, now: float) -> bool:
        """Whether the worker can accept a task at ``now`` (window-aware)."""
        if not self.on_time <= now < self.off_time:
            return False
        if not self.windows:
            return True
        return any(window.contains(now) for window in self.windows)

    def availability_remaining(self, now: float) -> float:
        """Remaining time in the current (or next) availability window.

        This is the paper's ``T_w``: the horizon within which new tasks must
        be completable for this worker.
        """
        if not self.windows:
            if self.on_time <= now < self.off_time:
                return self.off_time - max(now, self.on_time)
            if self.on_time > now:
                return max(0.0, self.off_time - self.on_time)
            return 0.0
        remaining = 0.0
        for window in self.windows:
            if window.contains(now):
                return window.remaining(now)
            if window.start > now:
                remaining = max(remaining, window.duration)
        return remaining

    # ------------------------------------------------------------------ #
    def moved_to(self, location: Point) -> "Worker":
        """Return a copy of this worker relocated to ``location``."""
        return replace(self, location=location)

    def with_windows(self, windows: List[AvailabilityWindow]) -> "Worker":
        """Return a copy of this worker with new availability windows."""
        return replace(self, windows=tuple(windows))

    def __hash__(self) -> int:
        return hash(self.worker_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Worker):
            return NotImplemented
        return self.worker_id == other.worker_id
