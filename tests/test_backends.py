"""Core tests of the pluggable estimator-backend layer (repro.backends).

Covers the registry contract, the RTF+GSP backend's differential
equivalence with the default pipeline path, the offline-shim
equivalence with the wrapped baselines, snapshot state plumbing through
the store, backend-aware refresh (direct and via the streaming
refresher), and the pipeline's per-query backend dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import errors
from repro.backends import (
    BackendEstimate,
    EstimatorBackend,
    GMRFBackend,
    LSMRNBackend,
    OfflineBackend,
    RTFGSPBackend,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.baselines import EstimationContext, PeriodicEstimator


BUILTINS = ("gmrf", "grmc", "lasso", "lsmrn", "per", "rtf_gsp")


@pytest.fixture(scope="module")
def world(tiny_dataset):
    """A fitted system with every built-in backend attached."""
    data = tiny_dataset
    system = repro.CrowdRTSE.fit(
        data.network, data.train_history, slots=[data.slot]
    )
    for name in BUILTINS:
        if name != "rtf_gsp":
            system.attach_backend(name, history=data.train_history)
    from repro.backends.rtf_gsp import RTFGSPState

    system.attach_backend(
        "rtf_gsp",
        state=RTFGSPState(params={data.slot: system.model.slot(data.slot)}),
    )
    return {"data": data, "system": system}


def answer(world, seed=0, **overrides):
    data = world["data"]
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(seed),
    )
    truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
    kwargs = dict(
        budget=15,
        rng=np.random.default_rng(seed),
    )
    kwargs.update(overrides)
    return world["system"].answer_query(
        repro.EstimationRequest(
            queried=data.queried, slot=data.slot, warm_start=False, **kwargs
        ),
        market=market, truth=truth,
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(available_backends())

    def test_available_is_sorted(self):
        names = available_backends()
        assert list(names) == sorted(names)

    def test_create_unknown_raises(self, line_net):
        with pytest.raises(errors.BackendError, match="unknown backend"):
            create_backend("definitely_not_registered", line_net)

    def test_register_invalid_name_raises(self):
        with pytest.raises(errors.BackendError):
            register_backend("Bad Name!", RTFGSPBackend)

    def test_register_non_callable_raises(self):
        with pytest.raises(errors.BackendError):
            register_backend("notcallable", object())  # type: ignore[arg-type]

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(errors.BackendError, match="already registered"):
            register_backend("rtf_gsp", RTFGSPBackend)

    def test_unregister_unknown_raises(self):
        with pytest.raises(errors.BackendError):
            unregister_backend("definitely_not_registered")

    def test_register_create_unregister_roundtrip(self, line_net):
        class Custom(RTFGSPBackend):
            name = "custom_rtf"

        register_backend("custom_rtf", Custom)
        try:
            backend = create_backend("custom_rtf", line_net)
            assert isinstance(backend, Custom)
        finally:
            unregister_backend("custom_rtf")
        assert "custom_rtf" not in available_backends()

    def test_factory_name_mismatch_raises(self, line_net):
        register_backend("misnamed", RTFGSPBackend, replace=True)
        try:
            with pytest.raises(errors.BackendError, match="produced a backend"):
                create_backend("misnamed", line_net)
        finally:
            unregister_backend("misnamed")


class TestRTFGSPDifferential:
    def test_backend_matches_default_pipeline_field(self, world):
        """The extracted backend is the pipeline: same probes, same field."""
        result = answer(world)
        estimate = world["system"].estimate_with_backend(
            "rtf_gsp", result.probes, world["data"].slot
        )
        np.testing.assert_allclose(
            estimate.speeds, result.full_field_kmh, rtol=0, atol=1e-12
        )
        assert estimate.provenance["converged"] in (True, False)

    def test_answer_query_default_backend_tag(self, world):
        result = answer(world)
        assert result.backend == "rtf_gsp"
        assert result.gsp is not None

    def test_unknown_slot_raises_not_fitted(self, world):
        with pytest.raises(errors.NotFittedError):
            world["system"].estimate_with_backend(
                "rtf_gsp", {0: 40.0}, 999_999
            )


class TestOfflineShim:
    def test_per_backend_matches_estimator(self, world):
        """OfflineBackend('per') == PeriodicEstimator on the same window."""
        data = world["data"]
        result = answer(world)
        estimate = world["system"].estimate_with_backend(
            "per", result.probes, data.slot
        )
        state = world["system"].store.current().backend_state("per")
        context = EstimationContext(
            network=data.network,
            history_samples=state.slot_samples[data.slot],
            probes=dict(result.probes),
        )
        np.testing.assert_allclose(
            estimate.speeds, PeriodicEstimator().estimate(context)
        )
        assert estimate.provenance["estimator"].lower() == "per"

    def test_probes_pinned(self, world):
        # Every probe-consuming backend returns the probe verbatim on the
        # probed road ("per" is deliberately absent: the periodic
        # baseline ignores realtime observations by definition).
        data = world["data"]
        result = answer(world)
        for name in ("lasso", "grmc", "lsmrn", "gmrf"):
            estimate = world["system"].estimate_with_backend(
                name, result.probes, data.slot
            )
            for road, value in result.probes.items():
                assert estimate.speeds[int(road)] == pytest.approx(value), name


class TestStorePlumbing:
    def test_snapshot_carries_backend_names(self, world):
        snapshot = world["system"].store.current()
        assert set(BUILTINS) <= set(snapshot.backend_names)

    def test_backend_state_unknown_raises(self, world):
        snapshot = world["system"].store.current()
        with pytest.raises(errors.BackendError, match="attach_backend"):
            snapshot.backend_state("never_attached")

    def test_attach_publishes_new_version(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        before = system.store.version
        system.attach_backend("per", history=data.train_history)
        assert system.store.version == before + 1
        assert "per" in system.store.current().backend_names

    def test_attach_without_history_or_state_raises(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        with pytest.raises(errors.ModelError, match="needs a history"):
            system.attach_backend("per")

    def test_refresh_advances_backend_states(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        system.attach_backend("per", history=data.train_history)
        system.attach_backend("gmrf", history=data.train_history)
        old = system.store.current()
        old_per = old.backend_state("per")
        old_mu = old.backend_state("gmrf").mu[data.slot]
        day = data.test_history.values[0, :, :]
        slot_index = data.slot - data.test_history.slot_offset
        sample = day[slot_index]
        new = system.refresh({data.slot: sample}, learning_rate=0.25)
        # Old snapshot is immutable; the new one advanced both blobs.
        assert old.backend_state("per") is old_per
        new_per = new.backend_state("per")
        assert (
            new_per.slot_samples[data.slot].shape[0]
            == old_per.slot_samples[data.slot].shape[0] + 1
        )
        np.testing.assert_allclose(
            new.backend_state("gmrf").mu[data.slot],
            0.75 * old_mu + 0.25 * sample,
        )

    def test_pinned_snapshot_keeps_state_across_refresh(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        system.attach_backend("per", history=data.train_history)
        slot_index = data.slot - data.test_history.slot_offset
        sample = data.test_history.values[0, slot_index, :]
        with system.store.pinned() as pinned:
            state_before = pinned.backend_state("per")
            system.refresh({data.slot: sample})
            assert pinned.backend_state("per") is state_before

    def test_backend_artifacts_counted(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        system.attach_backend("gmrf", history=data.train_history)
        stats0 = system.store.stats.backend_derivations
        system.estimate_with_backend("gmrf", {0: 40.0}, data.slot)
        system.estimate_with_backend("gmrf", {0: 41.0}, data.slot)
        stats = system.store.stats
        assert stats.backend_derivations == stats0 + 1
        assert stats.backend_hits >= 1


class TestAnswerQueryDispatch:
    @pytest.mark.parametrize("name", ["per", "lsmrn", "gmrf"])
    def test_backend_answer_end_to_end(self, world, name):
        result = answer(world, backend=name)
        assert result.backend == name
        assert result.gsp is None
        assert result.full_field_kmh.shape == (
            world["data"].network.n_roads,
        )
        assert np.all(np.isfinite(result.estimates_kmh))

    def test_unattached_backend_raises(self, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(0),
        )
        truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
        with pytest.raises(errors.BackendError):
            system.answer_query(
                repro.EstimationRequest(
                    queried=data.queried,
                    slot=data.slot,
                    budget=15,
                    backend="lsmrn",
                    warm_start=False,
                ),
                market=market, truth=truth,
            )


class TestStreamRefreshIntegration:
    def test_slot_close_advances_backend_state(self, tiny_dataset):
        """Streamed observations refresh attached backends too."""
        from repro import stream as streaming

        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        system.attach_backend("per", history=data.train_history)
        old = system.store.current()
        old_days = old.backend_state("per").slot_samples[data.slot].shape[0]
        batches = streaming.synthesize_day_feed(
            data.test_history, 0, slots=[data.slot], coverage=1.0, seed=5
        )
        config = streaming.StreamConfig(async_publish=False, min_observed=1)
        with streaming.StreamRefresher(system, config) as refresher:
            for batch in batches:
                refresher.ingest(batch)
            refresher.drain()
        new = system.store.current()
        assert new.version > old.version
        assert (
            new.backend_state("per").slot_samples[data.slot].shape[0]
            == old_days + 1
        )


class TestTemplateContract:
    def test_estimate_output_contract_enforced(self, tiny_dataset):
        """A backend returning the wrong shape is caught by the template."""
        data = tiny_dataset

        class Broken(OfflineBackend):
            def _estimate(self, state, probes, slot, deadline):
                return np.zeros(3), {}

        backend = Broken(
            data.network, PeriodicEstimator(), name="broken_shape"
        )
        state = backend.fit(data.train_history, slots=[data.slot])
        with pytest.raises(errors.BackendError, match="shape"):
            backend.estimate(state, {0: 40.0}, data.slot)

    def test_invalid_probes_rejected(self, tiny_dataset):
        data = tiny_dataset
        backend = OfflineBackend(data.network, PeriodicEstimator(), name="per")
        state = backend.fit(data.train_history, slots=[data.slot])
        with pytest.raises(errors.BackendError, match="probe"):
            backend.estimate(state, {0: -5.0}, data.slot)
        with pytest.raises(errors.BackendError, match="probe"):
            backend.estimate(state, {data.network.n_roads + 7: 40.0}, data.slot)

    def test_refresh_learning_rate_validated(self, tiny_dataset):
        data = tiny_dataset
        backend = OfflineBackend(data.network, PeriodicEstimator(), name="per")
        state = backend.fit(data.train_history, slots=[data.slot])
        with pytest.raises(errors.BackendError, match="learning_rate"):
            backend.refresh(state, {}, learning_rate=1.5)

    def test_estimate_returns_backend_estimate(self, world):
        result = answer(world)
        estimate = world["system"].estimate_with_backend(
            "per", result.probes, world["data"].slot
        )
        assert isinstance(estimate, BackendEstimate)
        assert estimate.backend == "per"
        assert estimate.slot == world["data"].slot

    def test_fit_empty_slots_raises(self, tiny_dataset):
        data = tiny_dataset
        backend = OfflineBackend(data.network, PeriodicEstimator(), name="per")
        with pytest.raises(errors.BackendError, match="at least one slot"):
            backend.fit(data.train_history, slots=[])

    def test_subclasses_are_estimator_backends(self):
        for cls in (RTFGSPBackend, OfflineBackend, LSMRNBackend, GMRFBackend):
            assert issubclass(cls, EstimatorBackend)
