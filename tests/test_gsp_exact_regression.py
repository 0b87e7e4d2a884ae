"""Regression: GSP (both kernels) vs the exact GMRF solve, golden-pinned.

A 12-road world small enough to eyeball is solved three ways — exact
sparse solve, reference per-node GSP, vectorized GSP — and all three are
pinned to hard-coded golden speeds.  Any numerical drift in the Eq. 18
update, the CSR compilation, or the exact system assembly shows up here
before it can silently move the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.exact_inference import exact_conditional_mean, gsp_optimality_gap
from repro.core.gsp import GSPConfig, GSPEngine, GSPKernel, GSPSchedule
from repro.core.rtf import RTFSlot

#: Exact conditional mean of the world below, computed once at pin time
#: (scipy spsolve); observed roads 0 and 5 keep their probed values.
GOLDEN_SPEEDS = np.array(
    [
        25.0,
        36.787605544184,
        42.400836496029,
        56.986267557168,
        67.629191220892,
        62.0,
        40.441990540578,
        37.768115073234,
        46.232340416438,
        34.825886021247,
        53.93693711086,
        53.649478077363,
    ]
)

OBSERVED = {0: 25.0, 5: 62.0}


@pytest.fixture(scope="module")
def world():
    network = repro.ring_radial_network(12, n_rings=1, n_radials=4, seed=2)
    rng = np.random.default_rng(2024)
    params = RTFSlot(
        slot=7,
        mu=rng.uniform(30.0, 70.0, network.n_roads),
        sigma=rng.uniform(1.0, 4.0, network.n_roads),
        rho=rng.uniform(0.1, 0.9, network.n_edges),
    )
    return network, params


class TestGoldenOracle:
    def test_world_shape_is_pinned(self, world):
        network, _ = world
        assert network.n_roads == 12
        assert network.n_edges == 20

    def test_exact_solve_matches_golden(self, world):
        network, params = world
        exact = exact_conditional_mean(network, params, OBSERVED)
        assert np.allclose(exact, GOLDEN_SPEEDS, atol=1e-8)

    @pytest.mark.parametrize(
        "schedule,kernel",
        [
            (GSPSchedule.BFS, GSPKernel.REFERENCE),
            (GSPSchedule.BFS, GSPKernel.VECTORIZED),
            (GSPSchedule.BFS_PARALLEL, GSPKernel.REFERENCE),
            (GSPSchedule.BFS_PARALLEL, GSPKernel.VECTORIZED),
        ],
    )
    def test_gsp_lands_on_golden_optimum(self, world, schedule, kernel):
        network, params = world
        config = GSPConfig(
            epsilon=1e-11, max_sweeps=5000, schedule=schedule, kernel=kernel
        )
        result = GSPEngine(network).propagate(params, OBSERVED, config)
        assert result.converged
        assert result.kernel is kernel
        assert result.schedule is schedule
        assert np.allclose(result.speeds, GOLDEN_SPEEDS, atol=1e-7)
        assert gsp_optimality_gap(network, params, OBSERVED, result.speeds) < 1e-7
