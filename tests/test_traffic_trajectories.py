"""Unit tests for repro.traffic.trajectories."""

import numpy as np
import pytest

import repro
from repro.errors import DatasetError
from repro.traffic.trajectories import (
    Trajectory,
    TrajectoryGenerator,
    TrajectoryPoint,
    extract_road_speeds,
)


def uniform_speeds(net, kmh=36.0):
    return np.full(net.n_roads, float(kmh))


class TestTrajectoryTypes:
    def test_point_validation(self):
        with pytest.raises(DatasetError):
            TrajectoryPoint(timestamp_s=-1, road_index=0, offset_km=0)
        with pytest.raises(DatasetError):
            TrajectoryPoint(timestamp_s=0, road_index=0, offset_km=-1)

    def test_trajectory_requires_sorted_times(self):
        points = (
            TrajectoryPoint(10, 0, 0.0),
            TrajectoryPoint(5, 0, 0.1),
        )
        with pytest.raises(DatasetError, match="non-decreasing"):
            Trajectory("v0", points)

    def test_roads_visited_collapses_runs(self):
        points = tuple(
            TrajectoryPoint(float(t), road, 0.0)
            for t, road in enumerate([0, 0, 1, 1, 2, 1])
        )
        trajectory = Trajectory("v0", points)
        assert trajectory.roads_visited() == [0, 1, 2, 1]
        assert trajectory.duration_s == 5.0


class TestTrajectoryGenerator:
    def test_validation(self, line_net):
        with pytest.raises(DatasetError):
            TrajectoryGenerator(line_net, np.ones(3))
        with pytest.raises(DatasetError):
            TrajectoryGenerator(line_net, np.zeros(6))
        with pytest.raises(DatasetError):
            TrajectoryGenerator(line_net, uniform_speeds(line_net), fix_interval_s=0)

    def test_drive_produces_monotone_timestamps(self, grid_net):
        generator = TrajectoryGenerator(
            grid_net, uniform_speeds(grid_net), seed=1
        )
        trace = generator.drive("v0", 0, duration_s=300)
        times = [p.timestamp_s for p in trace.points]
        assert times == sorted(times)
        assert trace.duration_s == pytest.approx(300.0)

    def test_vehicle_moves_between_roads(self, grid_net):
        # 36 km/h = 10 m/s; local roads are 0.5 km, so the vehicle
        # crosses several roads in 5 minutes.
        generator = TrajectoryGenerator(
            grid_net, uniform_speeds(grid_net, 36.0), seed=2,
            gps_noise_fraction=0.0,
        )
        trace = generator.drive("v0", 0, duration_s=300)
        assert len(trace.roads_visited()) >= 3

    def test_consecutive_roads_are_adjacent(self, grid_net):
        generator = TrajectoryGenerator(
            grid_net, uniform_speeds(grid_net), seed=3, gps_noise_fraction=0.0
        )
        trace = generator.drive("v0", 5, duration_s=400)
        visited = trace.roads_visited()
        for a, b in zip(visited, visited[1:]):
            assert grid_net.are_adjacent(a, b) or a == b

    def test_offsets_within_road_length(self, grid_net):
        generator = TrajectoryGenerator(
            grid_net, uniform_speeds(grid_net), seed=4
        )
        trace = generator.drive("v0", 2, duration_s=200)
        for point in trace.points:
            assert 0 <= point.offset_km <= grid_net.road_at(point.road_index).length_km

    def test_fleet_sizes(self, grid_net):
        generator = TrajectoryGenerator(grid_net, uniform_speeds(grid_net), seed=5)
        traces = generator.fleet(4, duration_s=60)
        assert len(traces) == 4
        assert len({t.vehicle_id for t in traces}) == 4

    def test_fleet_start_roads(self, grid_net):
        generator = TrajectoryGenerator(grid_net, uniform_speeds(grid_net), seed=6)
        traces = generator.fleet(2, duration_s=60, start_roads=[3, 7])
        assert traces[0].points[0].road_index == 3
        assert traces[1].points[0].road_index == 7
        with pytest.raises(DatasetError):
            generator.fleet(2, duration_s=60, start_roads=[1])


class TestSpeedExtraction:
    def test_recovers_true_speed_noiseless(self, line_net):
        speeds = np.full(6, 30.0)
        generator = TrajectoryGenerator(
            line_net, speeds, fix_interval_s=5.0, gps_noise_fraction=0.0, seed=7
        )
        trace = generator.drive("v0", 0, duration_s=120)
        observed = extract_road_speeds(line_net, trace)
        assert observed  # crossed at least one road usably
        for road, value in observed.items():
            assert value == pytest.approx(30.0, rel=0.05)

    def test_heterogeneous_speeds_recovered(self, line_net):
        speeds = np.array([20.0, 40.0, 60.0, 30.0, 50.0, 25.0])
        generator = TrajectoryGenerator(
            line_net, speeds, fix_interval_s=2.0, gps_noise_fraction=0.0, seed=8
        )
        trace = generator.drive("v0", 0, duration_s=400)
        observed = extract_road_speeds(line_net, trace, min_dwell_s=10.0)
        for road, value in observed.items():
            assert value == pytest.approx(speeds[road], rel=0.15)

    def test_short_dwell_discarded(self, line_net):
        points = (
            TrajectoryPoint(0.0, 0, 0.0),
            TrajectoryPoint(1.0, 0, 0.01),  # 1 s on road 0: below min dwell
            TrajectoryPoint(2.0, 1, 0.0),
            TrajectoryPoint(30.0, 1, 0.2),
        )
        observed = extract_road_speeds(line_net, Trajectory("v0", points))
        assert 0 not in observed
        assert 1 in observed

    def test_zero_displacement_discarded(self, line_net):
        points = (
            TrajectoryPoint(0.0, 0, 0.1),
            TrajectoryPoint(60.0, 0, 0.1),
        )
        observed = extract_road_speeds(line_net, Trajectory("v0", points))
        assert observed == {}

    def test_observations_aggregate_cleanly(self, grid_net):
        """Trajectory-derived answers flow into the standard aggregator."""
        speeds = uniform_speeds(grid_net, 45.0)
        generator = TrajectoryGenerator(
            grid_net, speeds, gps_noise_fraction=0.01, seed=10
        )
        traces = generator.fleet(8, duration_s=300)
        observations = {}
        for trace in traces:
            for road, speed in extract_road_speeds(grid_net, trace).items():
                observations.setdefault(road, []).append(speed)
        road, values = max(observations.items(), key=lambda kv: len(kv[1]))
        aggregated = repro.aggregate_answers(values)
        assert aggregated == pytest.approx(45.0, rel=0.15)
