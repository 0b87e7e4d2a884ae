"""Routing utilities over the road graph.

Shortest paths with pluggable edge weights.  Used by the trajectory
substrate (workers commute along routes, not random walks), by query
workload generators, and available to downstream users who want travel
time estimates out of a speed field.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetworkError, RoadNotFoundError
from repro.network.graph import TrafficNetwork


class RouteWeight(str, enum.Enum):
    """Edge-cost convention for routing.

    Routing happens on the *road* graph (roads are vertices), so the
    cost of traversing an edge ``(i, j)`` is attributed to entering road
    ``j``.
    """

    #: Every transition costs 1 (fewest road segments).
    HOPS = "hops"
    #: Transition into road j costs j's length (shortest distance).
    LENGTH = "length"
    #: Transition into road j costs j's length / speed (fastest route,
    #: needs a speed field).
    TIME = "time"


def _entry_costs(
    network: TrafficNetwork,
    weight: RouteWeight,
    speeds_kmh: Optional[np.ndarray],
) -> np.ndarray:
    if weight is RouteWeight.HOPS:
        return np.ones(network.n_roads)
    lengths = np.array([road.length_km for road in network.roads])
    if weight is RouteWeight.LENGTH:
        return lengths
    if weight is RouteWeight.TIME:
        if speeds_kmh is None:
            raise NetworkError("TIME routing needs a speeds_kmh field")
        speeds = np.asarray(speeds_kmh, dtype=np.float64)
        if speeds.shape != (network.n_roads,):
            raise NetworkError(
                f"speeds_kmh must have shape ({network.n_roads},), got {speeds.shape}"
            )
        if np.any(speeds <= 0):
            raise NetworkError("speeds must be positive for TIME routing")
        return lengths / speeds  # hours
    raise NetworkError(f"unknown weight {weight!r}")  # pragma: no cover


def shortest_route(
    network: TrafficNetwork,
    source: int,
    target: int,
    weight: RouteWeight = RouteWeight.HOPS,
    speeds_kmh: Optional[np.ndarray] = None,
) -> Tuple[List[int], float]:
    """Cheapest road sequence from ``source`` to ``target``.

    Args:
        network: Road graph.
        source: Start road.
        target: Destination road.
        weight: Edge-cost convention.
        speeds_kmh: Current speed field (required for TIME).

    Returns:
        ``(roads, cost)`` — the route including both endpoints, and its
        total cost (0.0 when source == target).

    Raises:
        RoadNotFoundError: On invalid endpoints.
        NetworkError: When no route exists.
    """
    n = network.n_roads
    for node in (source, target):
        if not 0 <= node < n:
            raise RoadNotFoundError(node)
    costs = _entry_costs(network, weight, speeds_kmh)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    previous: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        for v in network.neighbors(u):
            candidate = d + costs[v]
            if candidate < dist[v]:
                dist[v] = candidate
                previous[v] = u
                heapq.heappush(heap, (candidate, v))
    if not np.isfinite(dist[target]):
        raise NetworkError(
            f"no route between roads {source} and {target}"
        )
    route = [target]
    node = target
    while node != source:
        node = previous[node]
        route.append(node)
    route.reverse()
    return route, float(dist[target])


def travel_time_minutes(
    network: TrafficNetwork,
    route: Sequence[int],
    speeds_kmh: np.ndarray,
    include_first: bool = True,
) -> float:
    """Travel time along an explicit route under a speed field.

    Args:
        network: Road graph.
        route: Consecutive roads (each pair must be adjacent).
        speeds_kmh: Current speed per road.
        include_first: Count the first road's traversal too (default) or
            only the entered roads.

    Returns:
        Minutes to drive the route.
    """
    speeds = np.asarray(speeds_kmh, dtype=np.float64)
    if speeds.shape != (network.n_roads,):
        raise NetworkError(
            f"speeds_kmh must have shape ({network.n_roads},), got {speeds.shape}"
        )
    if np.any(speeds <= 0):
        raise NetworkError("speeds must be positive")
    if not route:
        raise NetworkError("route must not be empty")
    for a, b in zip(route, route[1:]):
        if not network.are_adjacent(int(a), int(b)):
            raise NetworkError(f"roads {a} and {b} are not adjacent on the route")
    roads = list(route) if include_first else list(route)[1:]
    hours = sum(
        network.road_at(int(r)).length_km / speeds[int(r)] for r in roads
    )
    return 60.0 * hours
