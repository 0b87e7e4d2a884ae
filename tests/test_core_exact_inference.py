"""Unit tests for repro.core.exact_inference (the GSP oracle)."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.core.exact_inference import (
    conditional_system,
    exact_conditional_mean,
    gsp_optimality_gap,
    pseudo_objective,
)
from repro.core.gsp import GSPConfig, GSPSchedule, propagate
from repro.core.rtf import RTFSlot


def flat_slot(net, mu=50.0, sigma=3.0, rho=0.6):
    return RTFSlot(
        0,
        np.full(net.n_roads, float(mu)),
        np.full(net.n_roads, float(sigma)),
        np.full(net.n_edges, float(rho)),
    )


class TestConditionalSystem:
    def test_no_observations_solution_is_mu(self, grid_net):
        params = flat_slot(grid_net)
        speeds = exact_conditional_mean(grid_net, params, {})
        assert np.allclose(speeds, params.mu)

    def test_observed_values_kept(self, grid_net):
        params = flat_slot(grid_net)
        speeds = exact_conditional_mean(grid_net, params, {3: 30.0})
        assert speeds[3] == 30.0

    def test_system_is_symmetric_positive_definite(self, grid_net):
        params = flat_slot(grid_net)
        matrix, _, _ = conditional_system(grid_net, params, {0: 40.0})
        dense = matrix.toarray()
        assert np.allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_invalid_observation(self, grid_net):
        params = flat_slot(grid_net)
        with pytest.raises(ModelError):
            exact_conditional_mean(grid_net, params, {99: 40.0})
        with pytest.raises(ModelError):
            exact_conditional_mean(grid_net, params, {0: -4.0})

    def test_all_observed(self, line_net):
        params = flat_slot(line_net)
        observed = {i: 40.0 + i for i in range(6)}
        speeds = exact_conditional_mean(line_net, params, observed)
        assert np.allclose(speeds, [40, 41, 42, 43, 44, 45])


class TestGSPMatchesExact:
    """GSP's fixed point equals the exact GMRF conditional mean."""

    def test_flat_grid(self, grid_net):
        params = flat_slot(grid_net, rho=0.8)
        observed = {0: 25.0, 24: 75.0}
        gsp = propagate(
            grid_net, params, observed, GSPConfig(epsilon=1e-11, max_sweeps=6000)
        )
        gap = gsp_optimality_gap(grid_net, params, observed, gsp.speeds)
        assert gap < 1e-6

    def test_heterogeneous_world(self, small_world):
        net = small_world["network"]
        params = small_world["params"]
        observed = {
            0: float(params.mu[0] * 0.6),
            9: float(params.mu[9] * 1.3),
            21: float(params.mu[21] * 0.9),
        }
        gsp = propagate(
            net, params, observed, GSPConfig(epsilon=1e-11, max_sweeps=8000)
        )
        gap = gsp_optimality_gap(net, params, observed, gsp.speeds)
        assert gap < 1e-5

    @pytest.mark.parametrize(
        "schedule", [GSPSchedule.BFS, GSPSchedule.BFS_PARALLEL]
    )
    def test_every_schedule_reaches_exact_optimum(self, grid_net, schedule):
        params = flat_slot(grid_net, rho=0.5)
        observed = {12: 20.0}
        gsp = propagate(
            grid_net,
            params,
            observed,
            GSPConfig(epsilon=1e-11, max_sweeps=8000, schedule=schedule),
        )
        gap = gsp_optimality_gap(grid_net, params, observed, gsp.speeds)
        assert gap < 1e-6

    def test_gap_detects_bad_solution(self, grid_net):
        params = flat_slot(grid_net)
        observed = {0: 30.0}
        wrong = params.mu.copy()
        wrong[0] = 30.0
        wrong[1] = 999.0
        gap = gsp_optimality_gap(grid_net, params, observed, wrong)
        assert gap > 100

    def test_gap_shape_check(self, grid_net):
        params = flat_slot(grid_net)
        with pytest.raises(ModelError):
            gsp_optimality_gap(grid_net, params, {}, np.ones(3))


class TestExactVsLikelihood:
    def test_exact_solution_maximizes_pseudo_objective(self, small_world):
        """No perturbation can improve the single-count joint objective
        (the one Eq. 18's update actually maximizes)."""
        net = small_world["network"]
        params = small_world["params"]
        observed = {2: float(params.mu[2] * 0.8)}
        speeds = exact_conditional_mean(net, params, observed)
        base = pseudo_objective(net, params, speeds)
        rng = np.random.default_rng(0)
        for road in rng.choice(net.n_roads, size=10, replace=False):
            if int(road) in observed:
                continue
            for delta in (-0.5, 0.5):
                perturbed = speeds.copy()
                perturbed[int(road)] += delta
                assert pseudo_objective(net, params, perturbed) <= base + 1e-9
        # Random joint perturbations cannot improve it either (global
        # optimum of a concave quadratic).
        for _ in range(5):
            perturbed = speeds + rng.normal(scale=0.3, size=net.n_roads)
            for r in observed:
                perturbed[r] = speeds[r]
            assert pseudo_objective(net, params, perturbed) <= base + 1e-9

    def test_pseudo_objective_is_half_edge_weighted_eq5(self, grid_net):
        """Relationship to Eq. 5: same periodic term, half the edge term."""
        params = flat_slot(grid_net, rho=0.4)
        rng = np.random.default_rng(1)
        speeds = params.mu + rng.normal(scale=2.0, size=grid_net.n_roads)
        eq5 = params.log_likelihood(grid_net, speeds)
        single = pseudo_objective(grid_net, params, speeds)
        # eq5 = periodic + 2*corr ; single = periodic + corr.
        periodic = -float(np.sum(((speeds - params.mu) / params.sigma) ** 2))
        corr_single = single - periodic
        assert eq5 == pytest.approx(periodic + 2 * corr_single, rel=1e-9)
