"""Traffic-network substrate: road graphs, generators, and serialization.

The paper (§III-A) models the traffic network as an undirected graph
``N(R, E)`` whose vertices are atomic road segments and whose edges are
the adjacency relation between segments.  :class:`TrafficNetwork` is the
immutable in-memory representation used by every other subsystem.
"""

from repro.network.graph import Road, RoadKind, TrafficNetwork
from repro.network.generators import (
    grid_network,
    line_network,
    random_geometric_network,
    ring_radial_network,
    scale_free_network,
    star_network,
)
from repro.network.io import (
    network_from_dict,
    network_from_json,
    network_to_dict,
    network_to_json,
)
from repro.network.routing import (
    RouteWeight,
    shortest_route,
    travel_time_minutes,
)

__all__ = [
    "RouteWeight",
    "shortest_route",
    "travel_time_minutes",
    "Road",
    "RoadKind",
    "TrafficNetwork",
    "grid_network",
    "line_network",
    "random_geometric_network",
    "ring_radial_network",
    "scale_free_network",
    "star_network",
    "network_from_dict",
    "network_from_json",
    "network_to_dict",
    "network_to_json",
]
