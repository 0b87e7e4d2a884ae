"""Ablation bench: GSP iterative propagation vs the exact sparse solve.

GSP's fixed point equals the GMRF conditional mean (verified here with a
tolerance assertion); the bench compares the wall-clock of Alg. 5
against one direct sparse linear solve — the trade the paper implicitly
makes by choosing propagation.
"""

import numpy as np
import pytest

from repro.core.exact_inference import exact_conditional_mean, gsp_optimality_gap
from repro.core.gsp import GSPConfig, propagate
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.experiments.common import market_for


@pytest.fixture(scope="module")
def probes(semisyn, semisyn_system):
    market = market_for(semisyn, seed=13)
    truth = truth_oracle_for(semisyn.test_history, 0, semisyn.slot)
    result = semisyn_system.answer_query(
        EstimationRequest(
            queried=semisyn.queried,
            slot=semisyn.slot,
            budget=semisyn.budgets[1],
        ),
        market=market,
        truth=truth,
    )
    return result.probes


def test_gsp_propagation_speed(benchmark, semisyn, semisyn_system, probes):
    params = semisyn_system.model.slot(semisyn.slot)
    config = GSPConfig(epsilon=1e-6, max_sweeps=3000)
    result = benchmark(propagate, semisyn.network, params, probes, config)
    assert result.converged
    gap = gsp_optimality_gap(semisyn.network, params, probes, result.speeds)
    assert gap < 1e-3  # GSP lands on the exact optimum


def test_exact_sparse_solve_speed(benchmark, semisyn, semisyn_system, probes):
    params = semisyn_system.model.slot(semisyn.slot)
    speeds = benchmark(
        exact_conditional_mean, semisyn.network, params, probes
    )
    assert np.all(np.isfinite(speeds))
    for road, value in probes.items():
        assert speeds[road] == value
