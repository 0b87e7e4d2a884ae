"""Ablation bench: cross-slot budget allocation and posterior uncertainty.

DESIGN.md S29/S30 extensions: the σ-need allocation study, and the cost
of exact posterior variances (which power the confidence bands).
"""

import numpy as np

from repro.core.request import EstimationRequest
from repro.core.uncertainty import conditional_variances
from repro.datasets import truth_oracle_for
from repro.experiments import allocation_study
from repro.experiments.common import ExperimentScale, market_for

QUICK = ExperimentScale.QUICK


def test_allocation_study(benchmark):
    rows = benchmark.pedantic(
        allocation_study.run,
        kwargs=dict(scale=QUICK, n_slots=3, total_budget=45, n_trials=2),
        rounds=1,
        iterations=1,
    )
    by_policy = {r.policy: r for r in rows}
    assert set(by_policy) == {"uniform", "need-based"}
    # Identical total spend, comparable or better quality.
    assert by_policy["need-based"].total_budget == by_policy["uniform"].total_budget
    assert by_policy["need-based"].mape <= by_policy["uniform"].mape + 0.03


def test_posterior_variance_cost(benchmark, semisyn, semisyn_system):
    """Benchmark the exact variance computation on the QUICK network."""
    params = semisyn_system.model.slot(semisyn.slot)
    market = market_for(semisyn, seed=3)
    truth = truth_oracle_for(semisyn.test_history, 0, semisyn.slot)
    result = semisyn_system.answer_query(
        EstimationRequest(
            queried=semisyn.queried,
            slot=semisyn.slot,
            budget=min(semisyn.budgets),
        ),
        market=market,
        truth=truth,
    )
    variances = benchmark(
        conditional_variances, semisyn.network, params, result.probes
    )
    assert np.all(variances >= 0)
    for road in result.probes:
        assert variances[road] == 0.0


def test_more_probes_reduce_total_uncertainty(benchmark, semisyn, semisyn_system):
    params = semisyn_system.model.slot(semisyn.slot)
    truth = truth_oracle_for(semisyn.test_history, 0, semisyn.slot)

    def totals():
        out = []
        for budget in (min(semisyn.budgets), max(semisyn.budgets)):
            market = market_for(semisyn, seed=4)
            result = semisyn_system.answer_query(
                EstimationRequest(
                    queried=semisyn.queried,
                    slot=semisyn.slot,
                    budget=budget,
                ),
                market=market,
                truth=truth,
            )
            variances = conditional_variances(
                semisyn.network, params, result.probes
            )
            out.append(float(variances.sum()))
        return out

    small_budget_total, large_budget_total = benchmark.pedantic(
        totals, rounds=1, iterations=1
    )
    assert large_budget_total <= small_budget_total + 1e-6
