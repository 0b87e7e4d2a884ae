"""Unit tests for repro.core.online_update."""

import warnings

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.core.inference import empirical_slot_parameters
from repro.core.online_update import OnlineRTFUpdater
from repro.core.pipeline import CrowdRTSE
from repro.core.rtf import RTFModel, RTFSlot
from repro.core.store import ModelStore
from repro.stream import ProbeMessage, StreamConfig, StreamRefresher, slot_start_ts


def flat_slot(net, mu=50.0, sigma=3.0, rho=0.5, slot=0):
    return RTFSlot(
        slot=slot,
        mu=np.full(net.n_roads, float(mu)),
        sigma=np.full(net.n_roads, float(sigma)),
        rho=np.full(net.n_edges, float(rho)),
    )


class TestValidation:
    def test_bad_learning_rate(self, line_net):
        with pytest.raises(ModelError):
            OnlineRTFUpdater(line_net, flat_slot(line_net), learning_rate=0.0)
        with pytest.raises(ModelError):
            OnlineRTFUpdater(line_net, flat_slot(line_net), learning_rate=1.0)

    def test_sample_shape_checked(self, line_net):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net))
        with pytest.raises(ModelError):
            updater.update(np.ones(3))

    def test_sample_positivity_checked(self, line_net):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net))
        bad = np.full(6, 50.0)
        bad[2] = -1
        with pytest.raises(ModelError):
            updater.update(bad)


class TestUpdates:
    def test_mean_moves_towards_sample(self, line_net):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net, mu=50.0), 0.1)
        params = updater.update(np.full(6, 60.0))
        assert np.allclose(params.mu, 51.0)

    def test_parameters_stay_valid(self, line_net, rng):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net), 0.2)
        for _ in range(30):
            params = updater.update(rng.uniform(20, 90, 6))
        assert np.all(params.sigma > 0)
        assert np.all((params.rho >= 0) & (params.rho <= 1))

    def test_n_updates_counts(self, line_net):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net))
        updater.update_many([np.full(6, 50.0)] * 5)
        assert updater.n_updates == 5

    def test_converges_to_stream_statistics(self, line_net):
        """After many days the EW moments track the generating process."""
        rng = np.random.default_rng(3)
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net, mu=40.0), 0.05)
        true_mu = np.linspace(45, 70, 6)
        for _ in range(600):
            shared = rng.normal()
            sample = true_mu + 2.0 * shared + 1.0 * rng.normal(size=6)
            params = updater.update(sample)
        assert np.allclose(params.mu, true_mu, atol=1.5)
        # Total std: sqrt(4 + 1) ~ 2.24.
        assert np.allclose(params.sigma, np.sqrt(5.0), atol=0.8)
        # Shared factor induces rho = 4/5; EW moments with eta = 0.05
        # only remember ~20 effective days, so allow sampling noise.
        assert np.allclose(params.rho, 0.8, atol=0.25)
        assert params.rho.mean() == pytest.approx(0.8, abs=0.1)

    def test_tracks_regime_change(self, line_net):
        """Drift adaptation: the whole point of forgetting."""
        rng = np.random.default_rng(4)
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net, mu=50.0), 0.1)
        for _ in range(100):
            updater.update(30.0 + rng.normal(scale=1.0, size=6))
        params = updater.current()
        assert np.allclose(params.mu, 30.0, atol=2.0)

    def test_current_does_not_mutate(self, line_net):
        updater = OnlineRTFUpdater(line_net, flat_slot(line_net))
        a = updater.current()
        a.mu[0] = -999  # mutate the copy
        assert updater.current().mu[0] == 50.0

    def test_online_matches_empirical_in_expectation(self, small_world):
        """Streaming the history through the updater lands near the
        batch empirical fit (both estimate the same moments)."""
        net = small_world["network"]
        history = small_world["history"]
        slot = small_world["slot"]
        samples = history.slot_samples(slot)
        start = empirical_slot_parameters(net, samples[:4], slot)
        updater = OnlineRTFUpdater(net, start, learning_rate=0.1)
        for row in samples[4:]:
            online = updater.update(row)
        batch = empirical_slot_parameters(net, samples, slot)
        rel = np.abs(online.mu - batch.mu) / batch.mu
        assert np.median(rel) < 0.1


class TestUnfittedSlotAccounting:
    """Regression: observations for slots the model never fitted used to
    vanish silently; the stream refresher must count them and warn once."""

    @staticmethod
    def _readings(net, day, slot):
        return [
            ProbeMessage(
                road=road, day=day, slot=slot, speed_kmh=70.0,
                ts=slot_start_ts(day, slot) + 1.0, msg_id=f"{day}.{slot}.{road}",
            )
            for road in range(net.n_roads)
        ]

    def test_unfitted_slot_warns_once_and_counts(self, line_net):
        from repro import errors, obs

        def dropped():
            return (
                obs.get_metrics()
                .counter("stream.dropped", {"reason": "unfitted_slot"})
                .value
            )

        errors.reset_deprecation_warnings()
        obs.configure(metrics=True)
        system = CrowdRTSE(
            line_net,
            store=ModelStore(RTFModel(line_net, [flat_slot(line_net, slot=1)])),
        )
        config = StreamConfig(
            lateness_s=0.0, learning_rate=0.5, async_publish=False
        )
        try:
            obs.get_metrics().clear()
            with StreamRefresher(system, config) as refresher:
                with pytest.warns(RuntimeWarning, match="fitted slot range"):
                    refresher.ingest(
                        self._readings(line_net, 0, 1)
                        + self._readings(line_net, 0, 9)
                    )
                    refresher.drain()
                # The fitted slot still refreshed normally.
                assert system.store.current().slot(1).mu[0] == pytest.approx(60.0)
                assert refresher.stats.skipped_unfitted == 1
                assert dropped() == 1
                # Once per process: a second occurrence stays silent.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    refresher.ingest(self._readings(line_net, 1, 9))
                    refresher.drain()
                assert dropped() == 2
        finally:
            obs.disable_all()
            obs.get_metrics().clear()
            errors.reset_deprecation_warnings()
