"""Ablation bench: GSP update orders (DESIGN.md §4 item 2).

Benchmarks propagation under every row of the ablation table: the
engine's two schedules (the paper's BFS ordering and the layer-parallel
Jacobi variant of §VI) and the three orders that only the ablation runs
(colour groups, random order, plain index order).  All orders must reach
the same fixed point; the bench quantifies the sweep counts.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.gsp import GSPConfig, GSPSchedule, propagate
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.experiments.ablations import _ablation_orders, _gauss_seidel
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


@pytest.mark.parametrize(
    "variant", [s.value for s in GSPSchedule] + ["bfs-colored", "random", "index"]
)
def test_ablation_gsp_schedule(benchmark, variant, world):
    semisyn, system, probes = world
    params = system.model.slot(semisyn.slot)
    config = GSPConfig(epsilon=1e-6, max_sweeps=3000)

    if variant in {s.value for s in GSPSchedule}:
        schedule = GSPSchedule(variant)
        engine_config = dataclasses.replace(config, schedule=schedule)
        result = benchmark(propagate, semisyn.network, params, probes, engine_config)
        assert result.converged
        # The result records its own provenance.
        assert result.schedule is schedule
        assert result.kernel is engine_config.kernel
        assert result.sweeps == len(result.max_delta_history)
        speeds = result.speeds
    else:
        order = _ablation_orders(semisyn.network, probes)[variant]
        speeds, sweeps = benchmark(
            _gauss_seidel, semisyn.network, params, probes, order, config
        )
        assert sweeps < config.max_sweeps

    reference = propagate(
        semisyn.network, params, probes, GSPConfig(epsilon=1e-10, max_sweeps=5000)
    )
    assert np.allclose(speeds, reference.speeds, atol=1e-3)
