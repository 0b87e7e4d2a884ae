"""Vehicle trajectories: GPS traces over the road network.

Real crowdsourced speeds come from phone GPS traces — a worker travels
along roads and her device samples positions every few seconds; the
platform derives a per-road travel speed from consecutive fixes (paper
§VII-A: "the traveling speed can be calculated within a short period of
time").  This module provides:

* :class:`Trajectory` / :class:`TrajectoryPoint` — a map-matched trace
  (each fix already carries its road id, as a spatial crowdsourcing
  platform like gMission would produce);
* :class:`TrajectoryGenerator` — simulates vehicles random-walking
  routes over the network, moving at the ground-truth speed of each road
  they traverse, with GPS noise on the fixes;
* :func:`extract_road_speeds` — the platform-side reduction of a trace
  to per-road speed observations (distance / time between fixes).

Together with :class:`~repro.crowd.market.CrowdMarket` this closes the
gap between "oracle point reads" and realistic trace-derived probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.network.graph import TrafficNetwork


@dataclass(frozen=True)
class TrajectoryPoint:
    """One GPS fix, already map-matched to a road.

    Attributes:
        timestamp_s: Seconds since the start of the trace.
        road_index: Road the fix lies on.
        offset_km: Distance travelled along that road so far.
    """

    timestamp_s: float
    road_index: int
    offset_km: float

    def __post_init__(self) -> None:
        if self.timestamp_s < 0:
            raise DatasetError("timestamp must be >= 0")
        if self.offset_km < 0:
            raise DatasetError("offset must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """A map-matched GPS trace of one vehicle.

    Attributes:
        vehicle_id: Trace identifier.
        points: Fixes ordered by timestamp.
    """

    vehicle_id: str
    points: Tuple[TrajectoryPoint, ...]

    def __post_init__(self) -> None:
        if not self.vehicle_id:
            raise DatasetError("vehicle_id must be non-empty")
        times = [p.timestamp_s for p in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise DatasetError(
                f"trajectory {self.vehicle_id!r}: timestamps must be non-decreasing"
            )

    @property
    def n_points(self) -> int:
        """Number of GPS fixes."""
        return len(self.points)

    @property
    def duration_s(self) -> float:
        """Trace duration in seconds (0 for < 2 fixes)."""
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].timestamp_s - self.points[0].timestamp_s

    def roads_visited(self) -> List[int]:
        """Distinct roads in visit order."""
        visited: List[int] = []
        for point in self.points:
            if not visited or visited[-1] != point.road_index:
                visited.append(point.road_index)
        return visited


class TrajectoryGenerator:
    """Simulates vehicles driving random routes at ground-truth speeds.

    Args:
        network: Road graph.
        true_speeds_kmh: Current true speed per road (e.g. one slot of a
            simulated :class:`~repro.traffic.history.SpeedHistory`).
        fix_interval_s: Seconds between GPS fixes.
        gps_noise_fraction: Relative noise on each fix's along-road
            offset (models position error).
        seed: RNG seed.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        true_speeds_kmh: np.ndarray,
        fix_interval_s: float = 10.0,
        gps_noise_fraction: float = 0.02,
        seed: Optional[int] = None,
    ) -> None:
        true_speeds_kmh = np.asarray(true_speeds_kmh, dtype=np.float64)
        if true_speeds_kmh.shape != (network.n_roads,):
            raise DatasetError(
                f"true_speeds_kmh must have shape ({network.n_roads},), "
                f"got {true_speeds_kmh.shape}"
            )
        if np.any(true_speeds_kmh <= 0):
            raise DatasetError("true speeds must be positive")
        if fix_interval_s <= 0:
            raise DatasetError("fix_interval_s must be positive")
        if gps_noise_fraction < 0:
            raise DatasetError("gps_noise_fraction must be >= 0")
        self._network = network
        self._speeds = true_speeds_kmh
        self._fix_interval = fix_interval_s
        self._noise = gps_noise_fraction
        self._rng = np.random.default_rng(seed)

    def drive(
        self,
        vehicle_id: str,
        start_road: int,
        duration_s: float,
    ) -> Trajectory:
        """Simulate one vehicle for ``duration_s`` seconds.

        The vehicle traverses its current road at that road's true
        speed; on reaching the end it turns onto a uniformly random
        adjacent road (or U-turns on a dead end).

        Returns:
            The map-matched :class:`Trajectory`.
        """
        if not 0 <= start_road < self._network.n_roads:
            raise DatasetError(f"start road {start_road} outside the network")
        if duration_s <= 0:
            raise DatasetError("duration_s must be positive")

        points: List[TrajectoryPoint] = []
        road = start_road
        offset_km = 0.0
        clock = 0.0
        points.append(self._fix(clock, road, offset_km))
        while clock < duration_s:
            step = min(self._fix_interval, duration_s - clock)
            clock += step
            speed_kms = self._speeds[road] / 3600.0
            offset_km += speed_kms * step
            length = self._network.road_at(road).length_km
            while offset_km >= length:
                offset_km -= length
                neighbors = self._network.neighbors(road)
                if neighbors:
                    road = int(
                        neighbors[int(self._rng.integers(len(neighbors)))]
                    )
                # A dead-end road simply loops (U-turn).
                length = self._network.road_at(road).length_km
            points.append(self._fix(clock, road, offset_km))
        return Trajectory(vehicle_id=vehicle_id, points=tuple(points))

    def drive_route(
        self,
        vehicle_id: str,
        route: Sequence[int],
    ) -> Trajectory:
        """Drive an explicit road sequence (a commute) at true speeds.

        The vehicle traverses each road of ``route`` in order at that
        road's current speed; the trace ends when the last road is
        completed.  Consecutive roads must be adjacent.

        Args:
            vehicle_id: Trace identifier.
            route: Road indices to follow (non-empty).

        Returns:
            The map-matched :class:`Trajectory`.

        Raises:
            DatasetError: On an empty or non-adjacent route.
        """
        if not route:
            raise DatasetError("route must not be empty")
        for a, b in zip(route, route[1:]):
            if not self._network.are_adjacent(int(a), int(b)):
                raise DatasetError(
                    f"route roads {a} and {b} are not adjacent"
                )
        points: List[TrajectoryPoint] = []
        clock = 0.0
        leg = 0
        road = int(route[0])
        offset_km = 0.0
        points.append(self._fix(clock, road, offset_km))
        while True:
            speed_kms = self._speeds[road] / 3600.0
            length = self._network.road_at(road).length_km
            step = self._fix_interval
            clock += step
            offset_km += speed_kms * step
            while offset_km >= length:
                offset_km -= length
                leg += 1
                if leg >= len(route):
                    # Final fix at the end of the last road.
                    points.append(self._fix(clock, road, length))
                    return Trajectory(vehicle_id=vehicle_id, points=tuple(points))
                road = int(route[leg])
                length = self._network.road_at(road).length_km
            points.append(self._fix(clock, road, offset_km))

    def fleet(
        self,
        n_vehicles: int,
        duration_s: float,
        start_roads: Optional[Sequence[int]] = None,
    ) -> List[Trajectory]:
        """Simulate several vehicles with random (or given) start roads."""
        if n_vehicles <= 0:
            raise DatasetError("n_vehicles must be positive")
        if start_roads is not None and len(start_roads) != n_vehicles:
            raise DatasetError("start_roads must have one entry per vehicle")
        trajectories = []
        for v in range(n_vehicles):
            start = (
                int(start_roads[v])
                if start_roads is not None
                else int(self._rng.integers(self._network.n_roads))
            )
            trajectories.append(self.drive(f"v{v}", start, duration_s))
        return trajectories

    def _fix(self, clock: float, road: int, offset_km: float) -> TrajectoryPoint:
        noisy_offset = offset_km
        if self._noise > 0:
            length = self._network.road_at(road).length_km
            noisy_offset += float(self._rng.normal(0.0, self._noise * length))
            noisy_offset = float(np.clip(noisy_offset, 0.0, length))
        return TrajectoryPoint(
            timestamp_s=clock, road_index=road, offset_km=noisy_offset
        )


def extract_road_speeds(
    network: TrafficNetwork,
    trajectory: Trajectory,
    min_dwell_s: float = 5.0,
) -> Dict[int, float]:
    """Per-road speed observations from one trace.

    For every maximal run of consecutive fixes on the same road, the
    speed is the along-road distance covered divided by the elapsed
    time.  Runs shorter than ``min_dwell_s`` (or with no displacement)
    are discarded — too noisy to use.  When a road is visited several
    times, the duration-weighted mean is reported.

    Returns:
        Mapping road index → observed speed (km/h).
    """
    if min_dwell_s < 0:
        raise DatasetError("min_dwell_s must be >= 0")
    totals: Dict[int, Tuple[float, float]] = {}  # road -> (time, distance)
    run_start = 0
    points = trajectory.points
    for k in range(1, len(points) + 1):
        if k < len(points) and points[k].road_index == points[run_start].road_index:
            continue
        run = points[run_start:k]
        run_start = k
        if len(run) < 2:
            continue
        elapsed = run[-1].timestamp_s - run[0].timestamp_s
        distance = run[-1].offset_km - run[0].offset_km
        if elapsed < min_dwell_s or distance <= 0:
            continue
        road = run[0].road_index
        prev_time, prev_dist = totals.get(road, (0.0, 0.0))
        totals[road] = (prev_time + elapsed, prev_dist + distance)
    return {
        road: 3600.0 * distance / elapsed
        for road, (elapsed, distance) in totals.items()
        if elapsed > 0
    }
