"""Points, bounding boxes and distance metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class Point:
    """A 2-D location.

    Coordinates are interpreted by the distance function in use: planar
    kilometres for :func:`euclidean_distance` / :func:`manhattan_distance`,
    or (longitude, latitude) degrees for :func:`haversine_distance`.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in the same planar units."""
        return euclidean_distance(self, other)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def __reduce__(self):
        # Every checkpoint pickles a point per worker, task and plan:
        # constructor arguments pickle smaller and faster than the
        # default field dict.
        return (Point, (self.x, self.y))


def euclidean_distance(a: Point, b: Point) -> float:
    """Straight-line distance between two planar points.

    Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot`` so the
    scalar path is bit-for-bit identical to the NumPy-vectorized travel
    matrices (``hypot`` implementations may differ in the last ulp).
    """
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def manhattan_distance(a: Point, b: Point) -> float:
    """L1 (city-block) distance between two planar points."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def haversine_distance(a: Point, b: Point) -> float:
    """Great-circle distance in kilometres for (longitude, latitude) points."""
    lon1, lat1, lon2, lat2 = map(math.radians, (a.x, a.y, b.x, b.y))
    dlon = lon2 - lon1
    dlat = lat2 - lat1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise ValueError("bounding box maxima must not be smaller than minima")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside or on the boundary of this box."""
        return self.min_x <= point.x <= self.max_x and self.min_y <= point.y <= self.max_y

    def clamp(self, point: Point) -> Point:
        """Project ``point`` onto the nearest location inside the box."""
        return Point(
            min(max(point.x, self.min_x), self.max_x),
            min(max(point.y, self.min_y), self.max_y),
        )

    def expand(self, margin: float) -> "BoundingBox":
        """Return a box grown by ``margin`` on every side."""
        return BoundingBox(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether two boxes overlap (boundary contact counts)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "BoundingBox":
        """Smallest box containing every point in ``points``."""
        points = list(points)
        if not points:
            raise ValueError("cannot build a bounding box from an empty point set")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(min(xs), min(ys), max(xs), max(ys))
