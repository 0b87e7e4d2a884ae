"""Unit tests for repro.core.correlation."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.core.correlation import road_road_correlation_matrix
from repro.experiments.ablations import _reciprocal_correlation_matrix


class TestRoadRoadMatrix:
    def test_adjacent_equals_rho(self, line_net):
        rho = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        corr = road_road_correlation_matrix(line_net, rho)
        for e, (i, j) in enumerate(line_net.edges):
            assert corr[i, j] == pytest.approx(rho[e])

    def test_path_product_on_line(self, line_net):
        rho = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        corr = road_road_correlation_matrix(line_net, rho)
        assert corr[0, 2] == pytest.approx(0.9 * 0.8)
        assert corr[0, 5] == pytest.approx(0.9 * 0.8 * 0.7 * 0.6 * 0.5)

    def test_diagonal_is_one(self, grid_net, rng):
        rho = rng.uniform(0.3, 0.9, grid_net.n_edges)
        corr = road_road_correlation_matrix(grid_net, rho)
        assert np.allclose(np.diag(corr), 1.0)

    def test_symmetric(self, grid_net, rng):
        rho = rng.uniform(0.3, 0.9, grid_net.n_edges)
        corr = road_road_correlation_matrix(grid_net, rho)
        assert np.allclose(corr, corr.T)

    def test_values_in_unit_interval(self, grid_net, rng):
        rho = rng.uniform(0.0, 1.0, grid_net.n_edges)
        corr = road_road_correlation_matrix(grid_net, rho)
        assert np.all(corr >= 0.0)
        assert np.all(corr <= 1.0 + 1e-12)

    def test_chooses_max_product_path(self):
        # Square: 0-1-3 (products 0.9*0.9=0.81) vs 0-2-3 (0.5*0.5=0.25).
        net = repro.grid_network(2, 2)
        # Edges sorted (0,1),(0,2),(1,3),(2,3).
        rho = np.zeros(net.n_edges)
        rho[net.edge_id(0, 1)] = 0.9
        rho[net.edge_id(1, 3)] = 0.9
        rho[net.edge_id(0, 2)] = 0.5
        rho[net.edge_id(2, 3)] = 0.5
        corr = road_road_correlation_matrix(net, rho)
        assert corr[0, 3] == pytest.approx(0.81)

    def test_zero_rho_edge_blocks_path(self, line_net):
        rho = np.array([0.9, 0.0, 0.7, 0.6, 0.5])
        corr = road_road_correlation_matrix(line_net, rho)
        assert corr[0, 2] == 0.0
        assert corr[0, 1] == pytest.approx(0.9)

    def test_disconnected_pairs_zero(self):
        roads = [repro.Road(road_id=f"r{i}") for i in range(3)]
        net = repro.TrafficNetwork(roads, [("r0", "r1")])
        corr = road_road_correlation_matrix(net, np.array([0.8]))
        assert corr[0, 2] == 0.0
        assert corr[2, 2] == 1.0

    def test_rho_one_edges(self, line_net):
        corr = road_road_correlation_matrix(line_net, np.ones(5))
        assert corr[0, 5] == pytest.approx(1.0, abs=1e-9)

    def test_bad_rho_shape(self, line_net):
        with pytest.raises(ModelError):
            road_road_correlation_matrix(line_net, np.ones(3))

    def test_bad_rho_range(self, line_net):
        with pytest.raises(ModelError):
            road_road_correlation_matrix(line_net, np.full(5, 1.2))

    def test_nan_rho_rejected(self, line_net):
        # NaN fails no range comparison; read as a cut edge it would
        # silently zero every correlation across it.
        rho = np.full(5, 0.9)
        rho[2] = np.nan
        with pytest.raises(ModelError, match="finite"):
            road_road_correlation_matrix(line_net, rho)


class TestReciprocalMode:
    """The paper-literal ``1/rho`` transform, kept only by the ablation."""

    def test_matches_log_on_line(self, line_net):
        # Unique paths: both modes must agree exactly.
        rho = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        log_corr = road_road_correlation_matrix(line_net, rho)
        rec_corr = _reciprocal_correlation_matrix(line_net, rho)
        assert np.allclose(log_corr, rec_corr)

    def test_log_mode_never_worse(self, rng):
        # The exact transform maximizes the product, so its correlations
        # dominate the reciprocal heuristic's everywhere.
        net = repro.grid_network(4, 4)
        rho = rng.uniform(0.1, 0.95, net.n_edges)
        log_corr = road_road_correlation_matrix(net, rho)
        rec_corr = _reciprocal_correlation_matrix(net, rho)
        assert np.all(log_corr >= rec_corr - 1e-9)

    def test_modes_can_disagree(self):
        # Two paths 0 -> 3: direct edge with rho 0.30 (reciprocal weight
        # 3.33) vs two-hop 0.9*0.9 = 0.81 (reciprocal weight 2.22).
        # Reciprocal picks the two-hop path too here; build a case where
        # they differ: one-hop rho 0.5 (weight 2.0) vs two hops of 0.9
        # (weight 2.22, product 0.81 > 0.5).
        roads = [repro.Road(road_id=f"r{i}") for i in range(3)]
        net = repro.TrafficNetwork(
            roads, [("r0", "r2"), ("r0", "r1"), ("r1", "r2")]
        )
        rho = np.zeros(net.n_edges)
        rho[net.edge_id(0, 2)] = 0.5
        rho[net.edge_id(0, 1)] = 0.9
        rho[net.edge_id(1, 2)] = 0.9
        log_corr = road_road_correlation_matrix(net, rho)
        rec_corr = _reciprocal_correlation_matrix(net, rho)
        assert log_corr[0, 2] == pytest.approx(0.81)
        assert rec_corr[0, 2] == pytest.approx(0.5)

    def test_symmetric_and_unit_diagonal(self, rng):
        net = repro.grid_network(3, 3)
        rho = rng.uniform(0.2, 0.9, net.n_edges)
        corr = _reciprocal_correlation_matrix(net, rho)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
