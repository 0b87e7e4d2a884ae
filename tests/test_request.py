"""The canonical EstimationRequest.

One request type crosses the pipeline, the serving layer, the workload
format and the CLI.  These tests pin its contract:

* construction-time validation (deadline) raises
  :class:`~repro.errors.ModelError`, not a deep solver error;
* ``answer_query`` takes only an :class:`EstimationRequest`: the removed
  ``answer_query(queried, slot, budget, ...)`` spelling is rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import errors
from repro.core.request import EstimationRequest
from repro.errors import ModelError


def _market(data, seed=0):
    return repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(seed),
    )


class TestConstruction:
    def test_normalizes_queried_slot_budget(self):
        req = EstimationRequest(
            queried=np.array([3, 1, 4]), slot=np.int64(93), budget=20
        )
        assert req.queried == (3, 1, 4)
        assert isinstance(req.slot, int) and req.slot == 93
        assert isinstance(req.budget, float) and req.budget == 20.0

    @pytest.mark.parametrize("deadline_s", [0, -0.5, float("nan")])
    def test_nonpositive_deadline_rejected(self, deadline_s):
        with pytest.raises(ModelError, match="deadline_s"):
            EstimationRequest(queried=(1,), slot=0, budget=5, deadline_s=deadline_s)

    def test_warm_start_argument_is_gone(self):
        with pytest.raises(TypeError, match="warm_start"):
            EstimationRequest(queried=(1,), slot=0, budget=5, **{"warm_start": False})


class TestBinding:
    def test_bound_fills_unset_fields(self, tiny_dataset):
        market = _market(tiny_dataset)
        truth = repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        )
        req = EstimationRequest(queried=(1, 2), slot=tiny_dataset.slot, budget=10)
        bound = req.bound(market, truth)
        assert bound.market is market and bound.truth is truth

    def test_bound_is_identity_when_complete(self, tiny_dataset):
        market = _market(tiny_dataset)
        truth = repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        )
        req = EstimationRequest(
            queried=(1, 2), slot=tiny_dataset.slot, budget=10,
            market=market, truth=truth,
        )
        assert req.bound(_market(tiny_dataset, 1), truth) is req


class TestAnswerQuerySpellings:
    def test_request_plus_legacy_args_rejected(self, tiny_system, tiny_dataset):
        req = EstimationRequest(
            queried=tiny_dataset.queried, slot=tiny_dataset.slot, budget=10
        )
        with pytest.raises(TypeError, match="slot"):
            tiny_system.answer_query(req, slot=tiny_dataset.slot)

    def test_non_request_rejected_naming_estimation_request(
        self, tiny_system, tiny_dataset
    ):
        truth = repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        )
        with pytest.raises(ModelError, match="EstimationRequest"):
            tiny_system.answer_query((1, 2, 3))
        with pytest.raises(ModelError, match="EstimationRequest"):
            tiny_system.answer_query(
                tiny_dataset.queried, market=_market(tiny_dataset), truth=truth
            )

    def test_missing_market_or_truth_rejected(self, tiny_system, tiny_dataset):
        req = EstimationRequest(
            queried=tiny_dataset.queried, slot=tiny_dataset.slot, budget=10
        )
        with pytest.raises(ModelError, match="market"):
            tiny_system.answer_query(req)

    def test_request_deadline_enforced(self, tiny_system, tiny_dataset):
        truth = repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        )
        req = EstimationRequest(
            queried=tiny_dataset.queried,
            slot=tiny_dataset.slot,
            budget=10,
            deadline_s=1e-9,
        )
        with pytest.raises(errors.QueryTimeoutError):
            tiny_system.answer_query(
                req, market=_market(tiny_dataset), truth=truth
            )
