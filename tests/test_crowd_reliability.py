"""Unit tests for data-driven cost / reliability estimation."""

import numpy as np
import pytest

import repro
from repro.errors import CrowdError
from repro.crowd.reliability import (
    collect_answer_history,
    estimate_costs_from_answers,
    estimate_worker_noise,
    required_answers,
)
from repro.datasets import truth_oracle_for


class TestEstimateWorkerNoise:
    def test_perfect_worker_zero_noise(self):
        assert estimate_worker_noise([50, 60], [50, 60]) == 0.0

    def test_known_noise_recovered(self, rng):
        truth = 60.0
        noise = 0.1
        answers = truth * (1 + rng.normal(0, noise, 500))
        estimated = estimate_worker_noise(answers, [truth] * 500)
        assert estimated == pytest.approx(noise, rel=0.15)

    def test_single_pair(self):
        assert estimate_worker_noise([55.0], [50.0]) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(CrowdError):
            estimate_worker_noise([], [])
        with pytest.raises(CrowdError):
            estimate_worker_noise([50], [50, 60])
        with pytest.raises(CrowdError):
            estimate_worker_noise([50], [0])


class TestRequiredAnswers:
    def test_zero_noise_needs_one(self):
        assert required_answers(0.0) == 1

    def test_inverse_square_law(self):
        # noise 0.1, target 0.05 -> n = (0.1/0.05)^2 = 4.
        assert required_answers(0.1, 0.05) == 4
        # noise 0.15 -> n = 9.
        assert required_answers(0.15, 0.05) == 9

    def test_capped(self):
        assert required_answers(1.0, 0.05, max_answers=10) == 10

    def test_monotone_in_noise(self):
        counts = [required_answers(s, 0.05) for s in (0.02, 0.05, 0.1, 0.2)]
        assert counts == sorted(counts)

    def test_validation(self):
        with pytest.raises(CrowdError):
            required_answers(-0.1)
        with pytest.raises(CrowdError):
            required_answers(0.1, target_relative_error=0)
        with pytest.raises(CrowdError):
            required_answers(0.1, max_answers=0)


class TestEstimateCostsFromAnswers:
    def test_noisy_roads_cost_more(self, line_net, rng):
        quiet = list(60 * (1 + rng.normal(0, 0.02, 40)))
        loud = list(60 * (1 + rng.normal(0, 0.25, 40)))
        model = estimate_costs_from_answers(
            line_net,
            {0: quiet, 1: loud},
            {0: 60.0, 1: 60.0},
        )
        assert model.cost_of(1) > model.cost_of(0)

    def test_default_for_unknown_roads(self, line_net):
        model = estimate_costs_from_answers(line_net, {}, {}, default_cost=7)
        assert all(model.cost_of(i) == 7 for i in range(6))

    def test_missing_truth_rejected(self, line_net):
        with pytest.raises(CrowdError):
            estimate_costs_from_answers(line_net, {0: [50.0]}, {})

    def test_unknown_road_rejected(self, line_net):
        with pytest.raises(CrowdError):
            estimate_costs_from_answers(line_net, {9: [50.0]}, {9: 50.0})

    def test_bad_default(self, line_net):
        with pytest.raises(CrowdError):
            estimate_costs_from_answers(line_net, {}, {}, default_cost=0)


class TestCollectAnswerHistory:
    def test_round_trip_from_market(self, tiny_dataset, tiny_system):
        """Receipts from real probes feed the cost estimator."""
        market = repro.CrowdMarket(
            tiny_dataset.network,
            tiny_dataset.pool,
            tiny_dataset.cost_model,
            rng=np.random.default_rng(1),
        )
        truth = truth_oracle_for(tiny_dataset.test_history, 0, tiny_dataset.slot)
        result = tiny_system.answer_query(
            repro.EstimationRequest(
                queried=tiny_dataset.queried,
                slot=tiny_dataset.slot,
                budget=25,
                warm_start=False,
            ),
            market=market, truth=truth,
        )
        answers, truths = collect_answer_history(result.receipts)
        assert set(answers) == set(result.selection.selected)
        model = estimate_costs_from_answers(
            tiny_dataset.network, answers, truths
        )
        lo, hi = model.cost_range
        assert 1 <= lo <= hi <= 10

    def test_multiple_receipts_concatenate(self, tiny_dataset, tiny_system):
        market = repro.CrowdMarket(
            tiny_dataset.network,
            tiny_dataset.pool,
            tiny_dataset.cost_model,
            rng=np.random.default_rng(2),
        )
        truth = truth_oracle_for(tiny_dataset.test_history, 1, tiny_dataset.slot)
        _, receipts_a = market.probe([0], truth)
        _, receipts_b = market.probe([0], truth)
        answers, _ = collect_answer_history(receipts_a + receipts_b)
        assert len(answers[0]) == 2 * tiny_dataset.cost_model.cost_of(0)
