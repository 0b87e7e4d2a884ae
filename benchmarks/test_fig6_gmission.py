"""Figure 6 bench: MAPE / FER on the gMission-like dataset.

Benchmarks a full online query on the worker-scarce instance and
regenerates the quality series, asserting the paper's finding that the
semi-synthesized patterns carry over: GSP stays competitive with the
correlation-only baselines at every budget.
"""


from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.experiments import figure6
from repro.experiments.common import ExperimentScale, market_for

QUICK = ExperimentScale.QUICK


def test_fig6_full_query(benchmark, gmission, gmission_system):
    """Benchmark the full online loop (OCS -> probe -> GSP) on gMission."""
    truth = truth_oracle_for(gmission.test_history, 0, gmission.slot)

    def answer():
        market = market_for(gmission, seed=5)
        return gmission_system.answer_query(
            EstimationRequest(
                queried=gmission.queried,
                slot=gmission.slot,
                budget=max(gmission.budgets),
            ),
            market=market,
            truth=truth,
        )

    result = benchmark(answer)
    assert set(result.selection.selected) <= set(gmission.worker_roads)


def test_fig6_quality_shapes(benchmark):
    cells = benchmark.pedantic(
        figure6.run, kwargs=dict(scale=QUICK, n_trials=3), rounds=1, iterations=1
    )
    smallest = min(c.budget for c in cells)
    at_small = {c.estimator: c.summary.mape for c in cells if c.budget == smallest}
    # Same pattern as Fig. 3 a1: GSP beats the correlation-only methods.
    assert at_small["GSP"] <= at_small["LASSO"] + 0.02
    assert at_small["GSP"] <= at_small["GRMC"] + 0.02

    gsp = sorted(
        (c.budget, c.summary.mape) for c in cells if c.estimator == "GSP"
    )
    # Quality improves (or holds) with budget.
    assert gsp[-1][1] <= gsp[0][1] + 0.03
