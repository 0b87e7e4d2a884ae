"""Incident detection: catching accidental variance with sparse probes.

The paper motivates CrowdRTSE with the failure of periodicity-only
methods on *accidental* traffic variance (§I).  This example injects a
severe incident into one test day, answers the same query with and
without crowdsourcing, and raises an alarm on roads whose estimated
speed falls far below the periodic expectation.

Run:  python examples/incident_detection.py
"""

import numpy as np

import repro

# Build a city and simulate a clean history plus one incident day.
network = repro.ring_radial_network(120, seed=42)
profiles = repro.random_profiles(network, seed=43)
config = repro.SimulationConfig(n_days=25, slot_start=96, n_slots=12, seed=44)
simulator = repro.TrafficSimulator(network, profiles, config)

INCIDENT_ROAD = 17
incident = repro.Incident(
    road_index=INCIDENT_ROAD,
    day=24,
    start_slot=3,
    duration_slots=8,
    severity=0.65,
    spread_hops=2,
)
history = simulator.simulate(incidents=[incident])
train, test = history.split_days(24)
slot = 102  # mid-incident

system = repro.CrowdRTSE.fit(network, train, slots=[slot])
params = system.model.slot(slot)

# Query the whole incident neighbourhood.
affected = [INCIDENT_ROAD] + list(network.neighbors(INCIDENT_ROAD))
queried = sorted(set(affected) | set(range(0, network.n_roads, 7)))

pool = repro.WorkerPool.cover_all_roads(network, workers_per_road=10, seed=45)
costs = repro.uniform_random_costs(network, 1, 5, seed=46)
market = repro.CrowdMarket(network, pool, costs, rng=np.random.default_rng(47))
truth = repro.truth_oracle_for(test, day=0, slot=slot)

result = system.answer_query(
    repro.EstimationRequest(
        queried=queried,
        slot=slot,
        budget=25,
    ),
    market=market, truth=truth,
)

print(f"incident on r{INCIDENT_ROAD}: true speed "
      f"{truth(INCIDENT_ROAD):.1f} km/h vs periodic "
      f"{params.mu[INCIDENT_ROAD]:.1f} km/h\n")

# Alarm rule: estimated speed < 70% of the periodic expectation.
ALARM_FRACTION = 0.7
print("road     periodic  estimate  truth    alarm")
print("-" * 48)
alarms = []
for road in queried:
    estimate = result.full_field_kmh[road]
    expected = params.mu[road]
    alarm = estimate < ALARM_FRACTION * expected
    if alarm:
        alarms.append(road)
    if road in affected or alarm:
        flag = "  *ALARM*" if alarm else ""
        print(
            f"r{road:<7} {expected:7.1f}  {estimate:8.1f}  {truth(road):6.1f} {flag}"
        )

hits = [r for r in alarms if r in affected]
print(f"\nalarms on {len(alarms)} roads; {len(hits)} inside the true "
      f"incident zone of {len(affected)} roads")

# The periodicity-only baseline never alarms — it cannot see incidents.
per_alarms = [
    r for r in queried if params.mu[r] < ALARM_FRACTION * params.mu[r]
]
print(f"periodicity-only baseline alarms: {len(per_alarms)} (structurally zero)")
