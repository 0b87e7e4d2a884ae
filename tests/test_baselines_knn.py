"""Unit tests for the temporal k-NN baseline."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.baselines.knn_temporal import knn_field


class TestTemporalKNN:
    def test_config_validation(self, line_net):
        samples = np.ones((5, 6))
        with pytest.raises(ModelError):
            knn_field(line_net, samples, {}, k=0)
        with pytest.raises(ModelError):
            knn_field(line_net, samples, {}, epsilon=0)

    def test_no_probes_returns_mean(self, line_net):
        samples = np.random.default_rng(0).uniform(30, 70, (10, 6))
        field = knn_field(line_net, samples, {})
        assert np.allclose(field, samples.mean(axis=0))

    def test_probes_pass_through(self, line_net):
        samples = np.random.default_rng(1).uniform(30, 70, (10, 6))
        field = knn_field(line_net, samples, {2: 44.0})
        assert field[2] == pytest.approx(44.0)

    def test_finds_matching_day(self, line_net, rng):
        """When today's probes exactly match one historical day, k=1
        returns that day everywhere."""
        samples = rng.uniform(30, 70, (12, 6))
        target_day = 7
        probes = {0: float(samples[target_day, 0]), 3: float(samples[target_day, 3])}
        field = knn_field(line_net, samples, probes, k=1)
        free = [1, 2, 4, 5]
        assert np.allclose(field[free], samples[target_day, free], atol=1e-6)

    def test_k_clamped_to_history(self, line_net, rng):
        samples = rng.uniform(30, 70, (4, 6))
        field = knn_field(line_net, samples, {0: 50.0}, k=50)
        assert np.all(np.isfinite(field))

    def test_beats_mean_on_regime_days(self, line_net, rng):
        """History with two regimes: probes identify today's regime, so
        kNN beats the global mean."""
        slow = 30 + rng.normal(0, 1, (10, 6))
        fast = 60 + rng.normal(0, 1, (10, 6))
        samples = np.vstack([slow, fast])
        today = 60 + rng.normal(0, 1, 6)
        probes = {0: float(today[0])}
        field = knn_field(line_net, samples, probes, k=3)
        free = list(range(1, 6))
        knn_err = np.abs(field[free] - today[free]).mean()
        mean_err = np.abs(samples.mean(axis=0)[free] - today[free]).mean()
        assert knn_err < mean_err
