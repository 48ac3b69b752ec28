"""Spatial substrate: geometry, uniform grids, spatial index, travel models.

The assignment component of DATA-WA reasons about worker reachability
(travel distance and travel time between locations) and the prediction
component partitions the study region into disjoint uniform grid cells.
This package provides both, plus the per-epoch travel matrices behind the
vectorized reachability kernel and a grid-bucket spatial index (the road
network snaps points to nodes with it).
"""

from repro.spatial.geometry import (
    BoundingBox,
    Point,
    euclidean_distance,
    haversine_distance,
    manhattan_distance,
)
from repro.spatial.grid import GridCell, GridSpec
from repro.spatial.index import SpatialIndex
from repro.spatial.profiles import SpeedProfile
from repro.spatial.timedep import TimeDependentTravelModel
from repro.spatial.travel import TravelModel, EuclideanTravelModel, ManhattanTravelModel
from repro.spatial.travel_matrix import TravelMatrix

__all__ = [
    "TravelMatrix",
    "SpeedProfile",
    "TimeDependentTravelModel",
    "Point",
    "BoundingBox",
    "euclidean_distance",
    "manhattan_distance",
    "haversine_distance",
    "GridSpec",
    "GridCell",
    "SpatialIndex",
    "TravelModel",
    "EuclideanTravelModel",
    "ManhattanTravelModel",
]
