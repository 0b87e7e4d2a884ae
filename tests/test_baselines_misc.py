"""Unit tests for the Per and hop-weighted fields and the probe reader."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.baselines import (
    hop_weighted_field,
    observed_probes,
    per_field,
    periodic_field,
)


class TestObservedProbes:
    def test_observed_arrays_sorted_and_aligned(self):
        indices, values = observed_probes({4: 44.0, 1: 11.0})
        assert list(indices) == [1, 4]
        assert list(values) == [11.0, 44.0]

    def test_no_probes(self):
        indices, values = observed_probes({})
        assert indices.shape == values.shape == (0,)


class TestPerField:
    def test_is_history_mean(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        np.testing.assert_array_equal(
            per_field(net, samples, {}), samples.mean(axis=0)
        )

    def test_ignores_probes(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        np.testing.assert_array_equal(
            per_field(net, samples, {0: 5.0}), per_field(net, samples, {})
        )

    def test_periodic_field_copies_model_mu(self, small_world):
        params = small_world["params"]
        field = periodic_field(params)
        np.testing.assert_array_equal(field, params.mu)
        field[0] = -1.0
        assert params.mu[0] != -1.0


class TestHopWeightedField:
    def test_config_validation(self, line_net):
        samples = np.full((8, 6), 50.0)
        with pytest.raises(ModelError):
            hop_weighted_field(line_net, samples, {}, decay=0.0)
        with pytest.raises(ModelError):
            hop_weighted_field(line_net, samples, {}, max_hops=0)

    def test_probes_pass_through(self, line_net):
        samples = np.full((8, 6), 50.0)
        field = hop_weighted_field(line_net, samples, {2: 30.0})
        assert field[2] == pytest.approx(30.0)

    def test_deviation_decays_with_distance(self, line_net):
        samples = np.full((8, 6), 50.0) + np.random.default_rng(0).normal(
            0, 0.5, (8, 6)
        )
        field = hop_weighted_field(
            line_net, samples, {0: 30.0}, decay=0.5, max_hops=3
        )
        mean = samples.mean(axis=0)
        pulls = np.abs(field - mean)
        assert pulls[1] > pulls[2] > pulls[3]
        assert field[5] == pytest.approx(mean[5])  # beyond max_hops

    def test_no_probes_returns_mean(self, line_net):
        samples = np.full((8, 6), 42.0)
        assert np.allclose(hop_weighted_field(line_net, samples, {}), 42.0)
