"""Ablation bench: GSP update schedules (DESIGN.md §4 item 2).

Benchmarks propagation under the paper's BFS ordering, the
layer-parallel Jacobi variant (§VI parallelization), random order and
plain index order.  All schedules must reach the same fixed point; the
bench quantifies the sweep counts.
"""

import numpy as np
import pytest

from repro.core.gsp import GSPConfig, GSPSchedule, propagate
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.experiments.common import ExperimentScale, market_for

QUICK = ExperimentScale.QUICK


@pytest.fixture(scope="module")
def world(semisyn, semisyn_system):
    market = market_for(semisyn, seed=9)
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
    return semisyn, semisyn_system, result.probes


@pytest.mark.parametrize("schedule", list(GSPSchedule))
def test_ablation_gsp_schedule(benchmark, schedule, world):
    semisyn, system, probes = world
    params = system.model.slot(semisyn.slot)
    config = GSPConfig(schedule=schedule, seed=3, epsilon=1e-6, max_sweeps=3000)

    result = benchmark(propagate, semisyn.network, params, probes, config)
    assert result.converged
    # The result records its own provenance — assert on it instead of
    # re-deriving which path config resolution picked.
    assert result.schedule is schedule
    assert result.kernel is config.resolved_kernel()
    assert result.sweeps == len(result.max_delta_history)

    reference = propagate(
        semisyn.network, params, probes, GSPConfig(epsilon=1e-10, max_sweeps=5000)
    )
    assert np.allclose(result.speeds, reference.speeds, atol=1e-3)
