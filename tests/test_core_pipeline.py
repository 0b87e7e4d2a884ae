"""Unit/integration tests for repro.core.pipeline (CrowdRTSE facade)."""

import numpy as np
import pytest

import repro
from repro.core.store import ModelStore
from repro.errors import ModelError, SelectionError
from repro.datasets import truth_oracle_for


@pytest.fixture()
def market(tiny_dataset):
    return repro.CrowdMarket(
        tiny_dataset.network,
        tiny_dataset.pool,
        tiny_dataset.cost_model,
        rng=np.random.default_rng(0),
    )


@pytest.fixture()
def truth(tiny_dataset):
    return truth_oracle_for(tiny_dataset.test_history, 0, tiny_dataset.slot)


class TestFit:
    def test_fit_builds_model_and_table(self, tiny_dataset, tiny_system):
        assert tiny_dataset.slot in tiny_system.model
        n = tiny_dataset.n_roads
        snapshot = tiny_system.store.current()
        assert snapshot.correlation_matrix(tiny_dataset.slot).shape == (n, n)

    def test_network_mismatch_rejected(self, tiny_system, grid_net):
        with pytest.raises(ModelError):
            repro.CrowdRTSE(grid_net, tiny_system.model)

    def test_fit_publishes_store_version_1(self, tiny_system):
        assert tiny_system.store.version == 1
        assert tiny_system.store.current().slots == tiny_system.model.slots

    def test_fit_exposes_diagnostics(self, tiny_dataset, tiny_system):
        diags = tiny_system.fit_diagnostics
        assert diags is not None and tiny_dataset.slot in diags
        assert diags[tiny_dataset.slot].iterations >= 1


class TestLegacyConstruction:
    def test_model_becomes_store_version_1(self, tiny_dataset, tiny_system):
        """``CrowdRTSE(network, model)`` publishes the model, derives nothing."""
        system = repro.CrowdRTSE(tiny_dataset.network, tiny_system.model)
        assert system.store.version == 1
        assert system.store.current().slots == tiny_system.model.slots
        assert system.store.stats.correlation_derivations == 0
        assert system.fit_diagnostics is None


class TestRefresh:
    def test_refresh_publishes_new_version(
        self, tiny_dataset, tiny_system, market, truth
    ):
        # A fresh store over the fitted parameters, so the shared
        # session fixture's own store is left untouched.
        system = repro.CrowdRTSE(
            tiny_dataset.network, store=ModelStore(tiny_system.model)
        )
        local = tiny_dataset.test_history.local_slot(tiny_dataset.slot)
        mu_before = system.model.slot(tiny_dataset.slot).mu.copy()
        snapshot = system.refresh(
            {tiny_dataset.slot: tiny_dataset.test_history.day(0)[local]},
            learning_rate=0.3,
        )
        assert snapshot.version == 2
        assert system.store.version == 2
        assert not np.allclose(
            system.model.slot(tiny_dataset.slot).mu, mu_before
        )
        result = system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=15,
            ),
            market=market, truth=truth,
        )
        assert np.all(np.isfinite(result.estimates_kmh))

    def test_store_and_model_pair_rejected(self, tiny_dataset, tiny_system):
        with pytest.raises(ModelError, match="not both"):
            repro.CrowdRTSE(
                tiny_dataset.network,
                tiny_system.model,
                store=ModelStore(tiny_system.model),
            )


class TestBuildOCSInstance:
    def test_candidates_are_worker_roads(self, tiny_dataset, tiny_system, market):
        instance = tiny_system.build_ocs_instance(
            tiny_dataset.queried, tiny_dataset.slot, budget=20, market=market
        )
        assert instance.candidates == market.candidate_roads()
        assert instance.budget == 20

    def test_costs_match_cost_model(self, tiny_dataset, tiny_system, market):
        instance = tiny_system.build_ocs_instance(
            tiny_dataset.queried, tiny_dataset.slot, budget=20, market=market
        )
        expected = tiny_dataset.cost_model.costs_of(instance.candidates)
        assert np.allclose(instance.costs, expected)


class TestAnswerQuery:
    def test_basic_roundtrip(self, tiny_dataset, tiny_system, market, truth):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=20,
            ),
            market=market, truth=truth,
        )
        assert result.queried == tiny_dataset.queried
        assert result.estimates_kmh.shape == (len(tiny_dataset.queried),)
        assert np.all(result.estimates_kmh > 0)
        assert result.full_field_kmh.shape == (tiny_dataset.n_roads,)

    def test_budget_respected(self, tiny_dataset, tiny_system, market, truth):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=15,
            ),
            market=market, truth=truth,
        )
        assert result.budget_spent <= 15
        assert result.selection.cost <= 15

    def test_probed_roads_keep_probe_values(self, tiny_dataset, tiny_system, market, truth):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=20,
            ),
            market=market, truth=truth,
        )
        for road, value in result.probes.items():
            assert result.full_field_kmh[road] == pytest.approx(value)

    @pytest.mark.parametrize("selector", ["hybrid", "ratio", "objective", "random"])
    def test_all_selectors_work(self, tiny_dataset, tiny_system, market, truth, selector):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=15,
                selector=selector,
                rng=np.random.default_rng(1),
            ),
            market=market, truth=truth,
        )
        assert result.budget_spent <= 15

    def test_unknown_selector_rejected(self, tiny_dataset, tiny_system, market, truth):
        with pytest.raises(SelectionError, match="unknown selector"):
            tiny_system.answer_query(
                repro.EstimationRequest(
                    queried=tiny_dataset.queried,
                    slot=tiny_dataset.slot,
                    budget=15,
                    selector="genie",
                ),
                market=market, truth=truth,
            )

    def test_estimate_of_lookup(self, tiny_dataset, tiny_system, market, truth):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=20,
            ),
            market=market, truth=truth,
        )
        road = tiny_dataset.queried[3]
        assert result.estimate_of(road) == pytest.approx(
            result.estimates_kmh[3]
        )
        with pytest.raises(ModelError):
            result.estimate_of(10_000)

    def test_receipts_align_with_selection(self, tiny_dataset, tiny_system, market, truth):
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=25,
            ),
            market=market, truth=truth,
        )
        assert {r.road_index for r in result.receipts} == set(result.selection.selected)
        for receipt in result.receipts:
            assert receipt.paid == tiny_dataset.cost_model.cost_of(receipt.road_index)
            assert len(receipt.answers) == receipt.paid

    def test_estimation_beats_pure_periodicity_on_average(
        self, tiny_dataset, tiny_system
    ):
        """GSP answers should beat Per over the test days (the headline)."""
        gsp_errors, per_errors = [], []
        params = tiny_system.model.slot(tiny_dataset.slot)
        for day in range(tiny_dataset.test_history.n_days):
            market = repro.CrowdMarket(
                tiny_dataset.network,
                tiny_dataset.pool,
                tiny_dataset.cost_model,
                rng=np.random.default_rng(day),
            )
            truth = truth_oracle_for(tiny_dataset.test_history, day, tiny_dataset.slot)
            result = tiny_system.answer_query(
                repro.EstimationRequest(
                    queried=tiny_dataset.queried,
                    slot=tiny_dataset.slot,
                    budget=30,
                ),
                market=market, truth=truth,
            )
            truths = np.array([truth(q) for q in tiny_dataset.queried])
            gsp_errors.append(
                repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
            )
            per_errors.append(
                repro.mean_absolute_percentage_error(
                    params.mu[list(tiny_dataset.queried)], truths
                )
            )
        assert np.mean(gsp_errors) < np.mean(per_errors)
