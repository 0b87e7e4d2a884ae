"""Uncertainty-aware route planning on top of CrowdRTSE.

A navigation service wants the fastest route between two roads *and* an
honest time estimate.  This example:

1. answers a realtime query over the candidate corridor,
2. computes the GMRF posterior variance of every estimated speed,
3. picks the fastest route under the estimated field,
4. reports the route's travel time with a confidence band, and
5. shows where one extra probe would shrink the uncertainty the most.

Run:  python examples/uncertainty_aware_routing.py
"""

import numpy as np

import repro
from repro.core.uncertainty import (
    confidence_intervals,
    most_uncertain_roads,
)
from repro.network.routing import RouteWeight, shortest_route, travel_time_minutes

# World + offline stage.
data = repro.build_semisyn(
    repro.SemiSynConfig(
        n_roads=120, n_queried=20, n_train_days=20, n_test_days=4,
        n_slots=8, seed=55,
    )
)
system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
params = system.model.slot(data.slot)

ORIGIN, DESTINATION = 3, 97

# Query the roads along plausible routes (hop-shortest corridor + ring).
corridor, _ = shortest_route(data.network, ORIGIN, DESTINATION)
queried = sorted(set(corridor) | set(data.queried))

market = repro.CrowdMarket(
    data.network, data.pool, data.cost_model, rng=np.random.default_rng(1)
)
truth = repro.truth_oracle_for(data.test_history, day=0, slot=data.slot)
result = system.answer_query(
    repro.EstimationRequest(
        queried=queried,
        slot=data.slot,
        budget=25,
        warm_start=False,
    ),
    market=market, truth=truth,
)
field = result.full_field_kmh

# Fastest route under the estimated field vs the periodic field.
est_route, _ = shortest_route(
    data.network, ORIGIN, DESTINATION, RouteWeight.TIME, speeds_kmh=field
)
per_route, _ = shortest_route(
    data.network, ORIGIN, DESTINATION, RouteWeight.TIME, speeds_kmh=params.mu
)
true_speeds = np.array([truth(r) for r in range(data.n_roads)])

est_minutes = travel_time_minutes(data.network, est_route, true_speeds)
per_minutes = travel_time_minutes(data.network, per_route, true_speeds)
print(f"route r{ORIGIN} -> r{DESTINATION}")
print(f"  via crowd-informed field : {len(est_route)} roads, "
      f"true time {est_minutes:.1f} min")
print(f"  via periodic field only  : {len(per_route)} roads, "
      f"true time {per_minutes:.1f} min")

# Confidence band of the chosen route's predicted time.
low, high = confidence_intervals(
    data.network, params, result.probes, field, z=1.96
)
pred = travel_time_minutes(data.network, est_route, field)
slow = travel_time_minutes(data.network, est_route, np.maximum(low, 1.0))
fast = travel_time_minutes(data.network, est_route, high)
print(f"\npredicted time {pred:.1f} min "
      f"(95% band {fast:.1f} .. {slow:.1f} min; true {est_minutes:.1f})")

# Where would one more probe help most?
top = most_uncertain_roads(data.network, params, result.probes, k=5)
print("\nmost uncertain roads after this round (posterior std, km/h):")
for road, variance in top.items():
    on_route = "on route" if road in est_route else ""
    print(f"  r{road:<4} ±{np.sqrt(variance):5.2f}  {on_route}")

# Probe the most uncertain on-route road and show the band tighten.
candidates = [r for r in top if r in est_route] or list(top)
extra_road = candidates[0]
extra_probe, _ = market.probe([extra_road], truth)
probes2 = dict(result.probes)
probes2.update(extra_probe)
refined = repro.propagate(data.network, params, probes2)
low2, high2 = confidence_intervals(
    data.network, params, probes2, refined.speeds, z=1.96
)
width_before = float(np.mean(high - low))
width_after = float(np.mean(high2 - low2))
print(f"\nafter one extra probe on r{extra_road}: mean CI width "
      f"{width_before:.2f} -> {width_after:.2f} km/h")
