"""Unit tests for repro.core.rtf."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError, NotFittedError
from repro.core.rtf import (
    PAIR_VARIANCE_FLOOR,
    RTFModel,
    RTFSlot,
    network_fingerprint,
    params_signature,
)


def make_slot(net, slot=0, seed=0):
    rng = np.random.default_rng(seed)
    return RTFSlot(
        slot=slot,
        mu=rng.uniform(30, 70, net.n_roads),
        sigma=rng.uniform(2, 6, net.n_roads),
        rho=rng.uniform(0.2, 0.9, net.n_edges),
    )


class TestRTFSlotValidation:
    def test_valid(self, line_net):
        slot = make_slot(line_net)
        assert slot.n_roads == line_net.n_roads
        assert slot.n_edges == line_net.n_edges

    def test_sigma_positive(self, line_net):
        with pytest.raises(ModelError, match="positive"):
            RTFSlot(0, np.ones(6), np.zeros(6), np.full(5, 0.5))

    def test_rho_bounds(self, line_net):
        with pytest.raises(ModelError, match="rho"):
            RTFSlot(0, np.ones(6), np.ones(6), np.full(5, 1.5))

    def test_nan_rho_rejected(self, line_net):
        rho = np.full(5, 0.5)
        rho[2] = np.nan
        with pytest.raises(ModelError, match="rho"):
            RTFSlot(0, np.ones(6), np.ones(6), rho)

    def test_nan_rejected(self, line_net):
        mu = np.ones(6)
        mu[0] = np.nan
        with pytest.raises(ModelError, match="NaN"):
            RTFSlot(0, mu, np.ones(6), np.full(5, 0.5))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            RTFSlot(0, np.ones(4), np.ones(5), np.ones(3) * 0.5)

    def test_check_against_wrong_network(self, line_net, grid_net):
        slot = make_slot(line_net)
        with pytest.raises(ModelError):
            slot.check_against(grid_net)


class TestPairwiseQuantities:
    def test_edge_mu_antisymmetric_by_order(self, line_net):
        slot = make_slot(line_net, seed=1)
        edge_mu = slot.edge_mu(line_net)
        for e, (i, j) in enumerate(line_net.edges):
            assert edge_mu[e] == pytest.approx(slot.mu[i] - slot.mu[j])
            assert slot.pairwise_mu(line_net, j, i) == pytest.approx(-edge_mu[e])

    def test_edge_variance_formula(self, line_net):
        slot = make_slot(line_net, seed=2)
        var = slot.edge_variance(line_net)
        for e, (i, j) in enumerate(line_net.edges):
            si, sj, r = slot.sigma[i], slot.sigma[j], slot.rho[e]
            expected = si**2 + sj**2 - 2 * r * si * sj
            assert var[e] == pytest.approx(max(expected, PAIR_VARIANCE_FLOOR))

    def test_edge_variance_floored_at_rho_one(self, line_net):
        slot = RTFSlot(0, np.full(6, 50.0), np.full(6, 3.0), np.ones(5))
        var = slot.edge_variance(line_net)
        assert np.all(var >= PAIR_VARIANCE_FLOOR)

    def test_pairwise_sigma_matches_edge_variance(self, line_net):
        slot = make_slot(line_net, seed=3)
        var = slot.edge_variance(line_net)
        for e, (i, j) in enumerate(line_net.edges):
            assert slot.pairwise_sigma(line_net, i, j) == pytest.approx(
                np.sqrt(var[e])
            )

    def test_pairwise_on_non_adjacent_raises(self, line_net):
        slot = make_slot(line_net)
        with pytest.raises(repro.NetworkError):
            slot.pairwise_mu(line_net, 0, 5)


class TestLikelihood:
    def test_maximized_at_consistent_assignment(self, line_net):
        # With all mu equal and v = mu, both terms vanish: L = 0 (max).
        slot = RTFSlot(0, np.full(6, 50.0), np.full(6, 3.0), np.full(5, 0.5))
        at_mu = slot.log_likelihood(line_net, slot.mu)
        perturbed = slot.log_likelihood(line_net, slot.mu + 2.0 * np.arange(6))
        assert at_mu == pytest.approx(0.0)
        assert perturbed < at_mu

    def test_uniform_shift_only_hits_periodic_term(self, line_net):
        slot = RTFSlot(0, np.full(6, 50.0), np.full(6, 2.0), np.full(5, 0.5))
        shifted = slot.log_likelihood(line_net, slot.mu + 1.0)
        # Each road contributes (1/2)^2 = 0.25; correlation terms stay 0.
        assert shifted == pytest.approx(-6 * 0.25)

    def test_wrong_shape_rejected(self, line_net):
        slot = make_slot(line_net)
        with pytest.raises(ModelError):
            slot.log_likelihood(line_net, np.ones(3))

    def test_conditional_likelihood_peaks_at_eq18_value(self, line_net):
        slot = make_slot(line_net, seed=4)
        speeds = slot.mu.copy()
        road = 2
        # Scan candidate values; Eq. 18 optimum should dominate.
        neigh = line_net.neighbors(road)
        num = slot.mu[road] / slot.sigma[road] ** 2
        den = 1.0 / slot.sigma[road] ** 2
        for j in neigh:
            var = slot.pairwise_sigma(line_net, road, j) ** 2
            num += (speeds[j] + slot.mu[road] - slot.mu[j]) / var
            den += 1.0 / var
        best = num / den
        speeds[road] = best
        ll_best = slot.conditional_log_likelihood(line_net, road, speeds)
        for delta in (-2.0, -0.5, 0.5, 2.0):
            other = speeds.copy()
            other[road] = best + delta
            assert slot.conditional_log_likelihood(line_net, road, other) < ll_best


class TestRTFModel:
    def test_slots_sorted(self, line_net):
        model = RTFModel(line_net, [make_slot(line_net, 5), make_slot(line_net, 2)])
        assert model.slots == (2, 5)

    def test_duplicate_slot_rejected(self, line_net):
        with pytest.raises(ModelError, match="duplicate"):
            RTFModel(line_net, [make_slot(line_net, 1), make_slot(line_net, 1)])

    def test_empty_rejected(self, line_net):
        with pytest.raises(ModelError):
            RTFModel(line_net, [])

    def test_missing_slot_raises_not_fitted(self, line_net):
        model = RTFModel(line_net, [make_slot(line_net, 3)])
        with pytest.raises(NotFittedError):
            model.slot(7)

    def test_contains(self, line_net):
        model = RTFModel(line_net, [make_slot(line_net, 3)])
        assert 3 in model and 4 not in model

    def test_periodicity_weights(self, line_net):
        slot = make_slot(line_net, 3)
        model = RTFModel(line_net, [slot])
        weights = model.periodicity_weights(3, [1, 4])
        assert np.allclose(weights, slot.sigma[[1, 4]])

    def test_save_load_roundtrip(self, line_net, tmp_path):
        model = RTFModel(
            line_net, [make_slot(line_net, 1, seed=5), make_slot(line_net, 9, seed=6)]
        )
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = RTFModel.load(path, line_net)
        assert loaded.slots == model.slots
        for t in model.slots:
            assert np.allclose(loaded.slot(t).mu, model.slot(t).mu)
            assert np.allclose(loaded.slot(t).sigma, model.slot(t).sigma)
            assert np.allclose(loaded.slot(t).rho, model.slot(t).rho)

    def test_load_rejects_different_network(self, line_net, grid_net, tmp_path):
        """A saved file carries the network fingerprint and refuses a swap."""
        model = RTFModel(line_net, [make_slot(line_net, 1, seed=5)])
        path = tmp_path / "model.npz"
        model.save(path)
        with pytest.raises(ModelError, match="fingerprint"):
            RTFModel.load(path, grid_net)

    def test_load_rejects_same_size_different_edges(self, tmp_path):
        """Same road/edge counts but different wiring is still rejected."""
        ring = repro.ring_radial_network(12, n_rings=1, n_radials=4, seed=1)
        other = repro.ring_radial_network(12, n_rings=1, n_radials=4, seed=9)
        if other.edges == ring.edges:  # pragma: no cover - seed guard
            pytest.skip("seeds produced identical wiring")
        model = RTFModel(ring, [make_slot(ring, 1, seed=5)])
        path = tmp_path / "model.npz"
        model.save(path)
        with pytest.raises(ModelError, match="fingerprint"):
            RTFModel.load(path, other)

    def test_legacy_file_without_fingerprint_loads(self, line_net, tmp_path):
        """Files from before the fingerprint field keep loading."""
        model = RTFModel(line_net, [make_slot(line_net, 1, seed=5)])
        path = tmp_path / "model.npz"
        model.save(path)
        with np.load(path) as payload:
            stripped = {
                k: payload[k] for k in payload.files if k != "network_fingerprint"
            }
        np.savez_compressed(path, **stripped)
        loaded = RTFModel.load(path, line_net)
        assert loaded.slots == model.slots


class TestSignatures:
    def test_params_signature_deterministic(self, line_net):
        slot = make_slot(line_net, 3, seed=2)
        clone = RTFSlot(
            slot=3, mu=slot.mu.copy(), sigma=slot.sigma.copy(), rho=slot.rho.copy()
        )
        assert params_signature(slot) == params_signature(clone)

    def test_params_signature_changes_with_params(self, line_net):
        slot = make_slot(line_net, 3, seed=2)
        bumped = RTFSlot(
            slot=3, mu=slot.mu + 0.001, sigma=slot.sigma, rho=slot.rho
        )
        other_slot = RTFSlot(slot=4, mu=slot.mu, sigma=slot.sigma, rho=slot.rho)
        assert params_signature(bumped) != params_signature(slot)
        assert params_signature(other_slot) != params_signature(slot)

    def test_network_fingerprint_stable_and_discriminating(
        self, line_net, grid_net
    ):
        assert np.array_equal(
            network_fingerprint(line_net), network_fingerprint(line_net)
        )
        assert not np.array_equal(
            network_fingerprint(line_net), network_fingerprint(grid_net)
        )
