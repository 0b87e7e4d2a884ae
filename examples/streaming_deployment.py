"""Streaming deployment: mobile workers, drifting traffic, online model.

The most realistic scenario this library supports in one loop:

* workers random-walk the network between slots (`MobilityModel`), so
  the candidate set R^w changes every query;
* the RTF model is refreshed after each day with exponential forgetting
  (`OnlineRTFUpdater`), tracking drift without refitting, and published
  to the system's model store as a new version (`ModelStore.publish`);
* concurrent queries in a slot are pooled into one crowdsourcing round
  (one `EstimationRequest` over the union of their roads);
* the terminal dashboard renders the congestion strip and solver
  sparklines (`repro.viz`).

Run:  python examples/streaming_deployment.py
"""

import numpy as np

import repro
from repro.core.online_update import OnlineRTFUpdater
from repro.crowd.mobility import MobilityModel
from repro.experiments.workloads import QueryPattern, query_stream
from repro.viz import congestion_strip, convergence_sparkline

# ----------------------------------------------------------------------
# World + offline fit.
# ----------------------------------------------------------------------
data = repro.build_semisyn(
    repro.SemiSynConfig(
        n_roads=120, n_queried=15, n_train_days=20, n_test_days=6,
        n_slots=8, seed=33,
    )
)
system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
updater = OnlineRTFUpdater(
    data.network, system.model.slot(data.slot), learning_rate=0.1
)

# Mobile worker fleet: 400 workers random-walking the city.
pool = repro.WorkerPool.random_distribution(
    data.network, n_workers=400, seed=34
)
mobility = MobilityModel(data.network, move_probability=0.4, seed=35)

free_flow = np.array([road.free_flow_kmh for road in data.network.roads])
print(f"deployment on {data.n_roads} roads, {pool.n_workers} mobile workers\n")

for day in range(data.test_history.n_days):
    # Workers moved overnight; R^w is different today.
    pool = mobility.step(pool)
    market = repro.CrowdMarket(
        data.network, pool, data.cost_model, rng=np.random.default_rng(day)
    )
    truth = repro.truth_oracle_for(data.test_history, day, data.slot)

    # Three concurrent queries: a hotspot, a corridor, a uniform scatter.
    rng = np.random.default_rng(100 + day)
    queries = [
        query_stream(data.network, QueryPattern.HOTSPOT, 10, 1, seed=day)[0],
        query_stream(data.network, QueryPattern.CORRIDOR, 10, 1, seed=day + 50)[0],
        query_stream(data.network, QueryPattern.UNIFORM, 10, 1, seed=day + 99)[0],
    ]
    union = sorted({int(road) for query in queries for road in query})
    shared = system.answer_query(
        repro.EstimationRequest(
            queried=union, slot=data.slot, budget=30
        ),
        market=market,
        truth=truth,
    )

    all_truths = np.array([truth(r) for r in range(data.n_roads)])
    mape = repro.mean_absolute_percentage_error(
        shared.full_field_kmh, all_truths
    )
    strip = congestion_strip(shared.full_field_kmh, free_flow, width=60)
    spark = convergence_sparkline(shared.gsp.max_delta_history)
    print(f"day {day}: |R^w|={len(market.candidate_roads())} "
          f"probes={len(shared.probes)} spend={shared.budget_spent} "
          f"full-field MAPE={mape:.3f}")
    print(f"  congestion |{strip}|")
    print(f"  gsp deltas {spark}")

    # End of day: absorb today's observations and publish them as the
    # store's next version; tomorrow's queries read it.
    refreshed = updater.update(all_truths)
    system.store.publish([refreshed])

print("\nmodel refreshed after each day; final sigma mean "
      f"{updater.current().sigma.mean():.2f} km/h over "
      f"{updater.n_updates} updates; store version {system.store.version}")
