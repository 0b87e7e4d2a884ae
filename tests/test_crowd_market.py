"""Unit tests for repro.crowd.market."""

import numpy as np
import pytest

import repro
from repro.errors import BudgetError, CrowdError, NoWorkersError
from repro.crowd.cost import CostModel
from repro.crowd.market import BudgetLedger, CrowdMarket
from repro.crowd.workers import WorkerPool


@pytest.fixture()
def setup(line_net):
    pool = WorkerPool.cover_all_roads(line_net, workers_per_road=3, seed=1)
    costs = CostModel(line_net, [2, 1, 3, 1, 2, 1])
    market = CrowdMarket(line_net, pool, costs, rng=np.random.default_rng(7))
    truth = lambda road: 40.0 + 5.0 * road  # noqa: E731
    return line_net, pool, costs, market, truth


class TestBudgetLedger:
    def test_charges_accumulate(self):
        ledger = BudgetLedger(10)
        ledger.charge(0, 3)
        ledger.charge(1, 4)
        assert ledger.spent == 7
        assert ledger.remaining == 3
        assert ledger.entries == ((0, 3), (1, 4))

    def test_overcharge_rejected(self):
        ledger = BudgetLedger(5)
        ledger.charge(0, 4)
        with pytest.raises(BudgetError, match="exceeds budget"):
            ledger.charge(1, 2)

    def test_invalid_budget(self):
        with pytest.raises(BudgetError):
            BudgetLedger(0)
        with pytest.raises(BudgetError):
            BudgetLedger(float("nan"))

    def test_invalid_amount(self):
        with pytest.raises(BudgetError):
            BudgetLedger(5).charge(0, 0)


class TestCrowdMarket:
    def test_candidate_roads(self, setup):
        _, pool, _, market, _ = setup
        assert market.candidate_roads() == pool.roads_with_workers()

    def test_probe_collects_cost_answers(self, setup):
        _, _, costs, market, truth = setup
        probes, receipts = market.probe([0, 2], truth)
        assert set(probes) == {0, 2}
        by_road = {r.road_index: r for r in receipts}
        assert len(by_road[0].answers) == costs.cost_of(0)
        assert len(by_road[2].answers) == costs.cost_of(2)

    def test_probe_values_near_truth(self, setup):
        _, _, _, market, truth = setup
        probes, _ = market.probe([3], truth)
        assert probes[3] == pytest.approx(truth(3), rel=0.25)

    def test_probe_charges_ledger(self, setup):
        _, _, costs, market, truth = setup
        ledger = BudgetLedger(10)
        market.probe([0, 1], truth, ledger)
        assert ledger.spent == costs.cost_of(0) + costs.cost_of(1)

    def test_probe_over_budget_raises(self, setup):
        _, _, _, market, truth = setup
        ledger = BudgetLedger(2)
        with pytest.raises(BudgetError):
            market.probe([0, 2], truth, ledger)

    def test_probe_road_without_workers(self, line_net):
        pool = WorkerPool.on_roads(line_net, [0], workers_per_road=2, seed=2)
        market = CrowdMarket(line_net, pool, CostModel(line_net, [1] * 6))
        with pytest.raises(NoWorkersError):
            market.probe([4], lambda r: 50.0)

    def test_bad_truth_rejected(self, setup):
        _, _, _, market, _ = setup
        with pytest.raises(CrowdError):
            market.probe([0], lambda r: 0.0)

    def test_workers_reused_when_fewer_than_cost(self, line_net):
        pool = WorkerPool.on_roads(line_net, [2], workers_per_road=1, seed=3)
        costs = CostModel(line_net, [1, 1, 4, 1, 1, 1])
        market = CrowdMarket(line_net, pool, costs, rng=np.random.default_rng(4))
        probes, receipts = market.probe([2], lambda r: 50.0)
        assert len(receipts[0].answers) == 4

    def test_more_answers_reduce_error(self, line_net):
        """Aggregating more answers gives a more accurate probe."""
        pool = WorkerPool.cover_all_roads(line_net, workers_per_road=20, seed=5)
        errors = {}
        for cost in (1, 10):
            costs = CostModel(line_net, [cost] * 6)
            trials = []
            for t in range(60):
                market = CrowdMarket(
                    line_net, pool, costs, rng=np.random.default_rng(t)
                )
                probes, _ = market.probe([0], lambda r: 60.0)
                trials.append(abs(probes[0] - 60.0))
            errors[cost] = np.mean(trials)
        assert errors[10] < errors[1]

    def test_receipt_records_truth(self, setup):
        _, _, _, market, truth = setup
        _, receipts = market.probe([1], truth)
        assert receipts[0].true_kmh == pytest.approx(truth(1))
