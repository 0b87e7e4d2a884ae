"""City monitoring: a realtime dashboard loop over consecutive slots.

Simulates a morning of city-wide monitoring: every 5-minute slot a new
query arrives, the crowd is re-probed under a fixed per-slot budget, and
the dashboard tracks estimation quality and spend.  Demonstrates the
multi-slot API (one RTF slot per 5-minute interval) and the budget
ledger.

Run:  python examples/city_monitoring.py
"""

import numpy as np

import repro
from repro.traffic.profiles import time_of_slot

data = repro.build_semisyn(
    repro.SemiSynConfig(
        n_roads=120,
        n_queried=18,
        n_train_days=20,
        n_test_days=3,
        n_slots=10,
        slot_start_hour=7,
        seed=21,
    )
)

# Fit the model for every slot of the monitored window (offline).
slots = list(data.train_history.global_slots)
system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=slots)
print(f"monitoring {len(data.queried)} roads over {len(slots)} slots "
      f"({data.n_roads}-road network)\n")

BUDGET_PER_SLOT = 20
DAY = 0

print("time   slot  |R^c|  spent  GSP MAPE  Per MAPE  worst road")
print("-" * 62)
total_spent = 0
gsp_series, per_series = [], []
for slot in slots:
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(slot),
    )
    truth = repro.truth_oracle_for(data.test_history, DAY, slot)
    result = system.answer_query(
        repro.EstimationRequest(
            queried=data.queried,
            slot=slot,
            budget=BUDGET_PER_SLOT,
            warm_start=False,
        ),
        market=market, truth=truth,
    )
    truths = np.array([truth(q) for q in data.queried])
    gsp_mape = repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
    per = system.model.slot(slot).mu[list(data.queried)]
    per_mape = repro.mean_absolute_percentage_error(per, truths)
    gsp_series.append(gsp_mape)
    per_series.append(per_mape)
    total_spent += result.budget_spent

    ape = np.abs(result.estimates_kmh - truths) / truths
    worst = data.queried[int(np.argmax(ape))]
    hour, minute = time_of_slot(slot)
    print(
        f"{hour:02d}:{minute:02d}  {slot:<5} {len(result.selection.selected):<6}"
        f"{result.budget_spent:<6} {gsp_mape:.4f}    {per_mape:.4f}    "
        f"r{worst} ({ape.max():.0%})"
    )

print("-" * 62)
print(
    f"morning summary: GSP MAPE {np.mean(gsp_series):.4f} vs Per "
    f"{np.mean(per_series):.4f}; total spend {total_spent} units "
    f"({total_spent / len(slots):.1f}/slot)"
)
