"""Road-network travel: directed graphs, shortest paths, a TravelModel backend.

The paper treats the road network abstractly (travel time = distance /
speed).  This subsystem makes it concrete: a lightweight directed road
graph in CSR form (:class:`RoadNetwork`, with synthetic grid/radial
generators and an edge-list file loader), single-source shortest-path
rows (:mod:`repro.roadnet.dijkstra`), and
:class:`RoadNetworkTravelModel` — a drop-in
:class:`~repro.spatial.travel.TravelModel` backend that snaps workers and
tasks to their nearest network node and serves asymmetric, non-metric
travel times through the same vectorized kernel the Euclidean planner
uses.  :mod:`repro.roadnet.scenario` builds complete road-network
workloads for the simulation platform.
"""

from repro.roadnet.dijkstra import dijkstra_row
from repro.roadnet.graph import (
    RoadNetwork,
    classify_edges_by_speed,
    grid_network,
    load_edge_list,
    radial_network,
    save_edge_list,
)
from repro.roadnet.model import RoadNetworkTravelModel
from repro.roadnet.scenario import (
    roadnet_city,
    roadnet_rushhour,
    roadnet_workload,
    rush_hour_edge_profiles,
)

__all__ = [
    "RoadNetwork",
    "grid_network",
    "radial_network",
    "load_edge_list",
    "save_edge_list",
    "classify_edges_by_speed",
    "dijkstra_row",
    "RoadNetworkTravelModel",
    "roadnet_city",
    "roadnet_workload",
    "roadnet_rushhour",
    "rush_hour_edge_profiles",
]
