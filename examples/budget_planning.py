"""Budget planning: how much crowdsourcing budget does a city need?

An operator wants to pick the smallest budget K whose estimation quality
is acceptable, and to see how much of that quality comes from OCS's
clever selection versus spending alone.  This sweeps budgets and
selection strategies (Hybrid vs Random) and prints the paper's Fig. 3
style series plus the coverage view of Table III.

Run:  python examples/budget_planning.py
"""

import numpy as np

import repro
from repro.eval.coverage import coverage_report

data = repro.build_semisyn(
    repro.SemiSynConfig(
        n_roads=150,
        n_queried=25,
        n_train_days=20,
        n_test_days=6,
        n_slots=12,
        budgets=(15, 30, 45, 60, 75),
        seed=11,
    )
)
system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])

print(f"dataset: {data.summary()}\n")
print("K    selector  MAPE    FER     1-hop  2-hop  |R^c|")
print("-" * 55)

for budget in data.budgets:
    for selector in ("hybrid", "random"):
        estimates_all, truths_all = [], []
        coverage = {}
        n_selected = 0
        for day in range(data.test_history.n_days):
            market = repro.CrowdMarket(
                data.network, data.pool, data.cost_model,
                rng=np.random.default_rng(100 + day),
            )
            truth = repro.truth_oracle_for(data.test_history, day, data.slot)
            result = system.answer_query(
                repro.EstimationRequest(
                    queried=data.queried,
                    slot=data.slot,
                    budget=budget,
                    selector=selector,
                    rng=np.random.default_rng(200 + day),
                    warm_start=False,
                ),
                market=market, truth=truth,
            )
            estimates_all.append(result.estimates_kmh)
            truths_all.append(np.array([truth(q) for q in data.queried]))
            coverage = coverage_report(
                data.network, result.selection.selected, data.queried
            )
            n_selected = len(result.selection.selected)
        estimates = np.concatenate(estimates_all)
        truths = np.concatenate(truths_all)
        mape = repro.mean_absolute_percentage_error(estimates, truths)
        fer = repro.false_estimation_rate(estimates, truths)
        print(
            f"{budget:<4} {selector:<9} {mape:.4f}  {fer:.4f}  "
            f"{coverage[1]:<6} {coverage[2]:<6} {n_selected}"
        )

print(
    "\nReading: Hybrid reaches the same quality as Random with a much\n"
    "smaller budget — the gap is the value of solving OCS well (paper\n"
    "Fig. 3d).  Pick the smallest K where MAPE flattens."
)
