"""Unit tests for repro.network.routing and routed trajectories."""

import numpy as np
import pytest

import repro
from repro.errors import DatasetError, NetworkError, RoadNotFoundError
from repro.network.routing import (
    RouteWeight,
    shortest_route,
    travel_time_minutes,
)
from repro.traffic.trajectories import TrajectoryGenerator, extract_road_speeds


class TestShortestRoute:
    def test_hops_on_line(self, line_net):
        route, cost = shortest_route(line_net, 0, 4)
        assert route == [0, 1, 2, 3, 4]
        assert cost == 4.0

    def test_source_equals_target(self, line_net):
        route, cost = shortest_route(line_net, 3, 3)
        assert route == [3]
        assert cost == 0.0

    def test_route_roads_adjacent(self, grid_net):
        route, _ = shortest_route(grid_net, 0, 24)
        for a, b in zip(route, route[1:]):
            assert grid_net.are_adjacent(a, b)

    def test_no_route_raises(self):
        roads = [repro.Road(road_id=f"r{i}") for i in range(3)]
        net = repro.TrafficNetwork(roads, [("r0", "r1")])
        with pytest.raises(NetworkError, match="no route"):
            shortest_route(net, 0, 2)

    def test_invalid_endpoint(self, line_net):
        with pytest.raises(RoadNotFoundError):
            shortest_route(line_net, 0, 99)

    def test_time_weight_avoids_jam(self):
        # Square 0-1-3 / 0-2-3; road 1 is jammed -> route via road 2.
        net = repro.grid_network(2, 2)
        speeds = np.array([50.0, 2.0, 50.0, 50.0])
        route, _ = shortest_route(
            net, 0, 3, weight=RouteWeight.TIME, speeds_kmh=speeds
        )
        assert route == [0, 2, 3]

    def test_time_weight_requires_speeds(self, line_net):
        with pytest.raises(NetworkError, match="needs"):
            shortest_route(line_net, 0, 2, weight=RouteWeight.TIME)

    def test_length_weight(self, line_net):
        route, cost = shortest_route(line_net, 0, 2, weight=RouteWeight.LENGTH)
        # Entering roads 1 and 2, each 0.5 km.
        assert cost == pytest.approx(1.0)


class TestTravelTime:
    def test_known_route(self, line_net):
        speeds = np.full(6, 30.0)  # 0.5 km at 30 km/h = 1 minute/road
        minutes = travel_time_minutes(line_net, [0, 1, 2], speeds)
        assert minutes == pytest.approx(3.0)

    def test_exclude_first(self, line_net):
        speeds = np.full(6, 30.0)
        minutes = travel_time_minutes(line_net, [0, 1, 2], speeds, include_first=False)
        assert minutes == pytest.approx(2.0)

    def test_non_adjacent_rejected(self, line_net):
        with pytest.raises(NetworkError):
            travel_time_minutes(line_net, [0, 3], np.full(6, 30.0))

    def test_empty_route_rejected(self, line_net):
        with pytest.raises(NetworkError):
            travel_time_minutes(line_net, [], np.full(6, 30.0))

    def test_congestion_slows_route(self, line_net):
        free = travel_time_minutes(line_net, [0, 1, 2], np.full(6, 60.0))
        jammed_speeds = np.full(6, 60.0)
        jammed_speeds[1] = 10.0
        jammed = travel_time_minutes(line_net, [0, 1, 2], jammed_speeds)
        assert jammed > free


class TestRoutedTrajectories:
    def test_route_is_followed_in_order(self, grid_net):
        generator = TrajectoryGenerator(
            grid_net, np.full(grid_net.n_roads, 36.0), seed=1,
            gps_noise_fraction=0.0, fix_interval_s=5.0,
        )
        route, _ = shortest_route(grid_net, 0, 24)
        trace = generator.drive_route("v0", route)
        visited = trace.roads_visited()
        assert visited == route

    def test_extracted_speeds_match_field(self, line_net):
        speeds = np.array([20.0, 40.0, 60.0, 30.0, 50.0, 25.0])
        generator = TrajectoryGenerator(
            line_net, speeds, gps_noise_fraction=0.0, fix_interval_s=2.0, seed=2
        )
        trace = generator.drive_route("v0", [0, 1, 2, 3, 4, 5])
        observed = extract_road_speeds(line_net, trace, min_dwell_s=10.0)
        for road, value in observed.items():
            assert value == pytest.approx(speeds[road], rel=0.2)

    def test_invalid_routes(self, line_net):
        generator = TrajectoryGenerator(
            line_net, np.full(6, 30.0), seed=3
        )
        with pytest.raises(DatasetError):
            generator.drive_route("v0", [])
        with pytest.raises(DatasetError):
            generator.drive_route("v0", [0, 3])

    def test_single_road_route(self, line_net):
        generator = TrajectoryGenerator(
            line_net, np.full(6, 30.0), seed=4, gps_noise_fraction=0.0
        )
        trace = generator.drive_route("v0", [2])
        assert set(trace.roads_visited()) == {2}
        # 0.5 km at 30 km/h = 60 s.
        assert trace.duration_s == pytest.approx(60.0, abs=10.0)
