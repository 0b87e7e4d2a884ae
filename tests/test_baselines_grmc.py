"""Unit tests for the GRMC baseline field."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.baselines.grmc import graph_laplacian, grmc_field


class TestGraphLaplacian:
    def test_row_sums_zero(self, grid_net):
        lap = graph_laplacian(grid_net).toarray()
        assert np.allclose(lap.sum(axis=1), 0.0)

    def test_diagonal_is_degree(self, grid_net):
        lap = graph_laplacian(grid_net).toarray()
        for i in range(grid_net.n_roads):
            assert lap[i, i] == grid_net.degree(i)

    def test_positive_semidefinite(self, grid_net):
        lap = graph_laplacian(grid_net).toarray()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() > -1e-9

    def test_no_edges(self):
        net = repro.TrafficNetwork([repro.Road(road_id="a")], [])
        lap = graph_laplacian(net)
        assert lap.shape == (1, 1)
        assert lap.nnz == 0

    def test_smoothness_quadratic_form(self, line_net):
        lap = graph_laplacian(line_net).toarray()
        smooth = np.linspace(0, 1, 6)
        rough = np.array([0, 1, 0, 1, 0, 1.0])
        assert smooth @ lap @ smooth < rough @ lap @ rough


class TestGRMCField:
    def test_config_validation(self, line_net):
        samples = np.ones((5, 6))
        for bad in ({"rank": 0}, {"reg": -1}, {"gamma": -1},
                    {"n_iterations": 0}, {"v_sweeps": 0}):
            with pytest.raises(ModelError):
                grmc_field(line_net, samples, {}, **bad)

    def test_probes_pass_through(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        probes = {1: 33.0, 8: 71.0}
        field = grmc_field(net, samples, probes, n_iterations=5)
        assert field[1] == pytest.approx(33.0)
        assert field[8] == pytest.approx(71.0)

    def test_output_positive_and_finite(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        field = grmc_field(net, samples, {0: 40.0}, n_iterations=5)
        assert np.all(np.isfinite(field))
        assert np.all(field > 0)

    def test_completes_low_rank_structure(self):
        """On exactly low-rank data GRMC should recover hidden entries."""
        net = repro.grid_network(4, 4)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(30, 2))
        v = rng.normal(size=(net.n_roads, 2))
        matrix = 50 + u @ v.T
        matrix = np.maximum(matrix, 5.0)
        history, current = matrix[:-1], matrix[-1]
        probes = {i: float(current[i]) for i in range(0, net.n_roads, 2)}
        field = grmc_field(
            net, history, probes, rank=4, reg=0.01, gamma=0.0, n_iterations=30
        )
        hidden = [i for i in range(net.n_roads) if i not in probes]
        errors = np.abs(field[hidden] - current[hidden]) / current[hidden]
        baseline = np.abs(history.mean(axis=0)[hidden] - current[hidden]) / current[hidden]
        assert errors.mean() < baseline.mean()

    def test_deterministic_given_seed(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        a = grmc_field(net, samples, {0: 45.0}, seed=1, n_iterations=4)
        b = grmc_field(net, samples, {0: 45.0}, seed=1, n_iterations=4)
        assert np.allclose(a, b)

    def test_graph_regularization_smooths(self, small_world):
        """Higher gamma should pull adjacent estimates together."""
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        lap = graph_laplacian(net).toarray()
        rough = grmc_field(net, samples, {0: 20.0}, gamma=0.0, n_iterations=8, seed=2)
        smooth = grmc_field(net, samples, {0: 20.0}, gamma=50.0, n_iterations=8, seed=2)
        # Compare the deviation fields (estimates minus history mean).
        mean = samples.mean(axis=0)
        dev_rough = rough - mean
        dev_smooth = smooth - mean
        assert dev_smooth @ lap @ dev_smooth <= dev_rough @ lap @ dev_rough + 1e-6
