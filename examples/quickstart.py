"""Quickstart: the full CrowdRTSE loop in ~40 lines.

Builds a small semi-synthetic city, trains the RTF model offline, then
answers one realtime traffic-speed query online: OCS selects the roads
to crowdsource, the simulated market probes them, and GSP propagates the
probes into estimates for the queried roads.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro

# ----------------------------------------------------------------------
# Offline stage: build the world and train the model (Fig. 1, blue box).
# ----------------------------------------------------------------------
data = repro.build_semisyn(
    repro.SemiSynConfig(
        n_roads=150,
        n_queried=20,
        n_train_days=20,
        n_test_days=5,
        n_slots=12,
        seed=7,
    )
)
print(f"dataset : {data.summary()}")

system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
print(f"model   : fitted RTF for slot {data.slot} on {data.n_roads} roads")

# ----------------------------------------------------------------------
# Online stage: one query (Fig. 1, green box).
# ----------------------------------------------------------------------
market = repro.CrowdMarket(
    data.network, data.pool, data.cost_model, rng=np.random.default_rng(0)
)
truth = repro.truth_oracle_for(data.test_history, day=0, slot=data.slot)

result = system.answer_query(
    repro.EstimationRequest(
        queried=data.queried,
        slot=data.slot,
        budget=30,
        theta=data.theta,
        selector="hybrid",
        warm_start=False,
    ),
    market=market, truth=truth,
)

print(
    f"query   : {len(data.queried)} roads, budget 30 -> crowdsourced "
    f"{len(result.selection.selected)} roads for {result.budget_spent} units"
)

truths = np.array([truth(q) for q in data.queried])
mape = repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
fer = repro.false_estimation_rate(result.estimates_kmh, truths)
print(f"quality : MAPE {mape:.3f}, FER {fer:.3f}")

# Compare against the periodicity-only answer the paper calls "Per".
periodic = system.model.slot(data.slot).mu[list(data.queried)]
per_mape = repro.mean_absolute_percentage_error(periodic, truths)
print(f"baseline: Per MAPE {per_mape:.3f} (GSP should be lower)")

print("\nroad      estimate   truth")
for road, estimate in list(zip(data.queried, result.estimates_kmh))[:8]:
    print(f"r{road:<8} {estimate:7.1f}   {truth(road):7.1f}")
