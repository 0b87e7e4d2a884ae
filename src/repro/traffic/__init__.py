"""Traffic ground-truth substrate.

The paper trains RTF on three months of 5-minute speed records crawled
from the Hong Kong PSI portal.  That feed is not available offline, so
this package implements a generative simulator with the same two
statistical properties the paper's model captures:

* **periodicity** — every road has a daily profile over 288 five-minute
  slots, with road-specific stability (σ);
* **correlation** — adjacent roads share congestion through a spatially
  smoothed fluctuation field, plus incident shocks that spread along
  the graph.

The simulator output (:class:`~repro.traffic.history.SpeedHistory`) is a
drop-in substitute for the crawled record: days × slots × roads.
"""

from repro.traffic.profiles import (
    N_SLOTS_PER_DAY,
    SLOT_MINUTES,
    DailyProfile,
    ProfileKind,
    build_profile,
    random_profiles,
    slot_of_time,
    time_of_slot,
)
from repro.traffic.detectors import DetectorDeployment, DetectorPlacement
from repro.traffic.history import SpeedHistory
from repro.traffic.incidents import Incident, IncidentModel
from repro.traffic.simulator import SimulationConfig, TrafficSimulator
from repro.traffic.trajectories import (
    Trajectory,
    TrajectoryGenerator,
    TrajectoryPoint,
    extract_road_speeds,
)

__all__ = [
    "DetectorDeployment",
    "DetectorPlacement",
    "Trajectory",
    "TrajectoryGenerator",
    "TrajectoryPoint",
    "extract_road_speeds",
    "N_SLOTS_PER_DAY",
    "SLOT_MINUTES",
    "DailyProfile",
    "ProfileKind",
    "build_profile",
    "random_profiles",
    "slot_of_time",
    "time_of_slot",
    "SpeedHistory",
    "Incident",
    "IncidentModel",
    "SimulationConfig",
    "TrafficSimulator",
]
