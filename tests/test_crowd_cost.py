"""Unit tests for repro.crowd.cost."""

import numpy as np
import pytest

from repro.errors import BudgetError
from repro.crowd.cost import CostModel, uniform_random_costs


class TestCostModel:
    def test_valid(self, line_net):
        model = CostModel(line_net, [1, 2, 3, 4, 5, 6])
        assert model.cost_of(2) == 3
        assert model.cost_range == (1, 6)

    def test_wrong_shape(self, line_net):
        with pytest.raises(BudgetError):
            CostModel(line_net, [1, 2])

    def test_nonpositive_rejected(self, line_net):
        with pytest.raises(BudgetError):
            CostModel(line_net, [1, 0, 1, 1, 1, 1])

    def test_cost_of_out_of_range(self, line_net):
        model = CostModel(line_net, [1] * 6)
        with pytest.raises(BudgetError):
            model.cost_of(6)

    def test_costs_of_preserves_order(self, line_net):
        model = CostModel(line_net, [1, 2, 3, 4, 5, 6])
        assert list(model.costs_of([5, 0])) == [6, 1]

    @pytest.mark.parametrize("roads", [[0, -1], [6], [2, 7, 1]])
    def test_costs_of_out_of_range(self, line_net, roads):
        model = CostModel(line_net, [1, 2, 3, 4, 5, 6])
        with pytest.raises(BudgetError):
            model.costs_of(roads)

    def test_costs_of_empty(self, line_net):
        out = CostModel(line_net, [1] * 6).costs_of([])
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_costs_of_matches_cost_of(self, grid_net):
        model = uniform_random_costs(grid_net, seed=3)
        roads = np.random.default_rng(4).integers(0, grid_net.n_roads, 50)
        out = model.costs_of(roads)
        assert out.dtype == np.int64
        assert out.tolist() == [model.cost_of(int(r)) for r in roads]
        out[0] += 1  # a copy: the model's costs stay untouched
        assert model.cost_of(int(roads[0])) == out[0] - 1

    def test_total(self, line_net):
        model = CostModel(line_net, [1, 2, 3, 4, 5, 6])
        assert model.total([0, 1, 2]) == 6

    def test_costs_view_read_only(self, line_net):
        model = CostModel(line_net, [1] * 6)
        with pytest.raises(ValueError):
            model.costs[0] = 5


class TestUniformRandomCosts:
    def test_range_respected(self, grid_net):
        model = uniform_random_costs(grid_net, 1, 10, seed=1)
        lo, hi = model.cost_range
        assert lo >= 1 and hi <= 10

    def test_paper_c1_c2_ranges(self, grid_net):
        c1 = uniform_random_costs(grid_net, 1, 10, seed=2)
        c2 = uniform_random_costs(grid_net, 1, 5, seed=2)
        assert c1.cost_range[1] <= 10
        assert c2.cost_range[1] <= 5

    def test_deterministic(self, grid_net):
        a = uniform_random_costs(grid_net, 1, 10, seed=3)
        b = uniform_random_costs(grid_net, 1, 10, seed=3)
        assert np.array_equal(a.costs, b.costs)

    def test_invalid_range(self, grid_net):
        with pytest.raises(BudgetError):
            uniform_random_costs(grid_net, 5, 2)
        with pytest.raises(BudgetError):
            uniform_random_costs(grid_net, 0, 3)
