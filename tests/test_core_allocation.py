"""Unit tests for cross-slot budget allocation."""

import numpy as np
import pytest

import repro
from repro.errors import BudgetError
from repro.core.allocation import allocate_budget, slot_need
from repro.core.rtf import RTFModel, RTFSlot


def model_with_sigmas(net, sigmas_by_slot):
    slots = [
        RTFSlot(
            slot,
            np.full(net.n_roads, 50.0),
            np.asarray(sigma, dtype=float),
            np.full(net.n_edges, 0.5),
        )
        for slot, sigma in sigmas_by_slot.items()
    ]
    return RTFModel(net, slots)


class TestSlotNeed:
    def test_sums_queried_sigmas(self, line_net):
        model = model_with_sigmas(
            line_net, {1: [1, 2, 3, 4, 5, 6], 2: [2, 2, 2, 2, 2, 2]}
        )
        need = slot_need(model, [0, 2], [1, 2])
        assert need[1] == pytest.approx(1 + 3)
        assert need[2] == pytest.approx(4)

    def test_validation(self, line_net):
        model = model_with_sigmas(line_net, {1: [1] * 6})
        with pytest.raises(BudgetError):
            slot_need(model, [], [1])
        with pytest.raises(BudgetError):
            slot_need(model, [0], [])


class TestAllocateBudget:
    @pytest.fixture()
    def model(self, line_net):
        return model_with_sigmas(
            line_net,
            {
                1: [1.0] * 6,    # calm slot
                2: [3.0] * 6,    # volatile slot (3x need)
                3: [1.0] * 6,
            },
        )

    def test_sums_to_total(self, model):
        allocation = allocate_budget(model, [0, 1, 2], [1, 2, 3], total_budget=50)
        assert sum(allocation.values()) == 50

    def test_proportional_to_need(self, model):
        allocation = allocate_budget(model, [0, 1, 2], [1, 2, 3], total_budget=100)
        assert allocation[2] > allocation[1]
        assert allocation[2] == pytest.approx(60, abs=1)
        assert allocation[1] == pytest.approx(20, abs=1)

    def test_floor_respected(self, model):
        allocation = allocate_budget(
            model, [0], [1, 2, 3], total_budget=30, floor=5
        )
        assert all(v >= 5 for v in allocation.values())
        assert sum(allocation.values()) == 30

    def test_floor_exceeds_budget(self, model):
        with pytest.raises(BudgetError, match="exceeds"):
            allocate_budget(model, [0], [1, 2, 3], total_budget=10, floor=5)

    def test_equal_need_splits_evenly(self, line_net):
        model = model_with_sigmas(line_net, {1: [2.0] * 6, 2: [2.0] * 6})
        allocation = allocate_budget(model, [0, 1], [1, 2], total_budget=10)
        assert allocation[1] == allocation[2] == 5

    def test_invalid_budget(self, model):
        with pytest.raises(BudgetError):
            allocate_budget(model, [0], [1], total_budget=0)
        with pytest.raises(BudgetError):
            allocate_budget(model, [0], [1], total_budget=float("nan"))

    def test_end_to_end_with_fitted_model(self, tiny_dataset, tiny_system):
        """Allocation works straight off a fitted model (single slot)."""
        allocation = allocate_budget(
            tiny_system.model,
            tiny_dataset.queried,
            [tiny_dataset.slot],
            total_budget=40,
        )
        assert allocation == {tiny_dataset.slot: 40}
