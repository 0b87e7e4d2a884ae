"""Unit tests for repro.core.gsp."""

import numpy as np
import pytest

import repro
from repro.errors import ConvergenceError, ModelError
from repro.core.gsp import GSPConfig, GSPKernel, GSPSchedule, propagate
from repro.core.rtf import RTFSlot


def flat_slot(net, mu=50.0, sigma=3.0, rho=0.8, slot=0):
    return RTFSlot(
        slot=slot,
        mu=np.full(net.n_roads, float(mu)),
        sigma=np.full(net.n_roads, float(sigma)),
        rho=np.full(net.n_edges, float(rho)),
    )


class TestConfig:
    def test_invalid_epsilon(self):
        with pytest.raises(ModelError):
            GSPConfig(epsilon=0)

    def test_invalid_sweeps(self):
        with pytest.raises(ModelError):
            GSPConfig(max_sweeps=0)

    def test_auto_kernel_resolution(self):
        for schedule in (
            GSPSchedule.BFS,
            GSPSchedule.BFS_PARALLEL,
            GSPSchedule.BFS_COLORED,
            GSPSchedule.INDEX,
        ):
            assert (
                GSPConfig(schedule=schedule).resolved_kernel()
                is GSPKernel.VECTORIZED
            )
        assert (
            GSPConfig(schedule=GSPSchedule.RANDOM).resolved_kernel()
            is GSPKernel.REFERENCE
        )
        assert (
            GSPConfig(kernel=GSPKernel.REFERENCE).resolved_kernel()
            is GSPKernel.REFERENCE
        )

    def test_vectorized_kernel_rejects_gauss_seidel_schedules(self):
        config = GSPConfig(schedule=GSPSchedule.RANDOM, kernel=GSPKernel.VECTORIZED)
        with pytest.raises(ModelError):
            config.resolved_kernel()
        fixed_order = GSPConfig(schedule=GSPSchedule.BFS, kernel=GSPKernel.VECTORIZED)
        assert fixed_order.resolved_kernel() is GSPKernel.VECTORIZED


class TestPropagation:
    def test_no_observations_returns_means(self, line_net):
        params = flat_slot(line_net)
        result = propagate(line_net, params, {})
        assert np.allclose(result.speeds, params.mu)
        assert result.converged

    def test_observed_roads_clamped(self, line_net):
        params = flat_slot(line_net)
        result = propagate(line_net, params, {2: 30.0})
        assert result.speeds[2] == 30.0

    def test_probe_pulls_neighbours(self, line_net):
        params = flat_slot(line_net, mu=50.0)
        result = propagate(line_net, params, {2: 30.0})
        # Neighbours of the probe move towards it; distant roads less so.
        assert result.speeds[1] < 50.0
        assert result.speeds[3] < 50.0
        assert abs(result.speeds[5] - 50.0) < abs(result.speeds[3] - 50.0)

    def test_all_observed_short_circuits(self, line_net):
        params = flat_slot(line_net)
        observed = {i: 40.0 + i for i in range(6)}
        result = propagate(line_net, params, observed)
        assert result.sweeps == 0
        assert np.allclose(result.speeds, [40, 41, 42, 43, 44, 45])

    def test_probe_equal_to_mean_changes_nothing(self, line_net):
        params = flat_slot(line_net, mu=50.0)
        result = propagate(line_net, params, {0: 50.0})
        assert np.allclose(result.speeds, 50.0)

    def test_mu_offsets_respected(self, line_net):
        # mu_ij != 0: the propagated value carries the offset.
        mu = np.array([60.0, 50.0, 40.0, 30.0, 20.0, 10.0])
        params = RTFSlot(0, mu, np.full(6, 3.0), np.full(5, 0.9))
        result = propagate(line_net, params, {0: 66.0})
        # Road 1 should shift up from 50 by roughly the same +6 shock,
        # attenuated by its own prior.
        assert 50.0 < result.speeds[1] < 60.0

    def test_invalid_observed_index(self, line_net):
        with pytest.raises(ModelError):
            propagate(line_net, flat_slot(line_net), {9: 40.0})

    def test_invalid_observed_value(self, line_net):
        with pytest.raises(ModelError):
            propagate(line_net, flat_slot(line_net), {0: -1.0})

    def test_strict_convergence_raises(self, line_net):
        params = flat_slot(line_net)
        config = GSPConfig(epsilon=1e-12, max_sweeps=1, strict=True)
        with pytest.raises(ConvergenceError):
            propagate(line_net, params, {0: 20.0}, config)

    def test_delta_history_decreasing_overall(self, grid_net):
        params = flat_slot(grid_net)
        result = propagate(grid_net, params, {0: 20.0, 24: 80.0})
        deltas = result.max_delta_history
        assert deltas[-1] < deltas[0]
        assert result.converged

    def test_result_records_provenance(self, grid_net):
        params = flat_slot(grid_net)
        observed = {0: 20.0}
        sequential = propagate(grid_net, params, observed)
        assert sequential.schedule is GSPSchedule.BFS
        assert sequential.kernel is GSPKernel.VECTORIZED
        assert sequential.sweeps == len(sequential.max_delta_history)
        oracle = propagate(
            grid_net, params, observed, GSPConfig(kernel=GSPKernel.REFERENCE)
        )
        assert oracle.schedule is GSPSchedule.BFS
        assert oracle.kernel is GSPKernel.REFERENCE
        config = GSPConfig(schedule=GSPSchedule.BFS_COLORED)
        fused = propagate(grid_net, params, observed, config)
        assert fused.schedule is GSPSchedule.BFS_COLORED
        assert fused.kernel is GSPKernel.VECTORIZED


class TestFixedPoint:
    def test_result_satisfies_eq18(self, small_world):
        """At convergence every free road satisfies the Eq. 18 update."""
        net = small_world["network"]
        params = small_world["params"]
        observed = {0: float(params.mu[0] * 0.7), 7: float(params.mu[7] * 1.2)}
        config = GSPConfig(epsilon=1e-10, max_sweeps=2000)
        result = propagate(net, params, observed, config)
        speeds = result.speeds
        for i in range(net.n_roads):
            if i in observed:
                continue
            num = params.mu[i] / params.sigma[i] ** 2
            den = 1.0 / params.sigma[i] ** 2
            for j in net.neighbors(i):
                var = params.pairwise_sigma(net, i, j) ** 2
                num += (speeds[j] + params.mu[i] - params.mu[j]) / var
                den += 1.0 / var
            assert speeds[i] == pytest.approx(num / den, abs=1e-6)

    def test_fixed_point_maximizes_conditional_likelihood(self, small_world):
        net = small_world["network"]
        params = small_world["params"]
        observed = {3: float(params.mu[3] * 0.8)}
        result = propagate(net, params, observed, GSPConfig(epsilon=1e-10, max_sweeps=2000))
        speeds = result.speeds.copy()
        road = int(net.neighbors(3)[0])
        base = params.conditional_log_likelihood(net, road, speeds)
        for delta in (-1.0, 1.0):
            perturbed = speeds.copy()
            perturbed[road] += delta
            assert params.conditional_log_likelihood(net, road, perturbed) < base


class TestSchedules:
    @pytest.mark.parametrize("schedule", list(GSPSchedule))
    def test_all_schedules_reach_same_fixed_point(self, grid_net, schedule):
        params = flat_slot(grid_net, rho=0.7)
        observed = {0: 30.0, 24: 70.0}
        reference = propagate(
            grid_net, params, observed, GSPConfig(epsilon=1e-10, max_sweeps=3000)
        )
        result = propagate(
            grid_net,
            params,
            observed,
            GSPConfig(epsilon=1e-10, max_sweeps=3000, schedule=schedule, seed=5),
        )
        assert result.converged
        assert np.allclose(result.speeds, reference.speeds, atol=1e-6)

    def test_bfs_converges_at_least_as_fast_as_index(self, small_world):
        net = small_world["network"]
        params = small_world["params"]
        observed = {0: float(params.mu[0] * 0.6)}
        config_kwargs = dict(epsilon=1e-8, max_sweeps=3000)
        bfs = propagate(net, params, observed, GSPConfig(schedule=GSPSchedule.BFS, **config_kwargs))
        index = propagate(net, params, observed, GSPConfig(schedule=GSPSchedule.INDEX, **config_kwargs))
        assert bfs.sweeps <= index.sweeps + 2
