"""Byte-stable answers: the served field depends only on parameters and probes.

Every propagation starts from the prior means μ, so the GSP answer is a
pure function of the pinned slot parameters and the probed speeds — the
GMRF conditional mean of the paper's §VI, reached by a fixed sweep
order.  These metamorphic checks pin that:

* the same request answered twice, with identically seeded markets,
  returns the same ``full_field_kmh`` bit for bit, also after other
  selections have run on the same slot;
* a coalesced duplicate served by :class:`~repro.serve.QueryService`
  equals its sequential ``answer_query`` answer bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.request import EstimationRequest
from repro.serve import QueryService, ServeConfig


@pytest.fixture()
def system(tiny_dataset):
    """A fresh fitted system per test, so no test sees another's answers."""
    return repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=[tiny_dataset.slot]
    )


def _market(data, seed):
    return repro.CrowdMarket(
        data.network, data.pool, data.cost_model, rng=np.random.default_rng(seed)
    )


def _request(data, *, budget=15, seed=3, market=None):
    return EstimationRequest(
        queried=data.queried,
        slot=data.slot,
        budget=budget,
        market=market if market is not None else _market(data, seed),
        truth=repro.truth_oracle_for(data.test_history, 0, data.slot),
    )


def _assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestAnswerQuery:
    def test_repeated_request_is_bit_identical(self, system, tiny_dataset):
        first = system.answer_query(_request(tiny_dataset))
        assert first.gsp.provenance.warm_start is False
        for budget in (15, 25, 15, 15):
            # A different budget buys a different R^c on the same slot
            # digest; it must not touch the next repeat's answer.
            answer = system.answer_query(_request(tiny_dataset, budget=budget))
            if budget == 25:
                assert frozenset(answer.probes) != frozenset(first.probes)
                continue
            assert answer.probes == first.probes
            _assert_bit_identical(answer.full_field_kmh, first.full_field_kmh)


class TestServe:
    def test_coalesced_duplicate_matches_sequential_answer(
        self, system, tiny_dataset
    ):
        data = tiny_dataset
        # One request object, one market: the duplicate shares the
        # leader's execution.
        request = _request(data, seed=21)
        service = QueryService(
            system, config=ServeConfig(num_workers=1), autostart=False
        )
        tickets = [service.submit(request) for _ in range(2)]
        service.start()
        leader, duplicate = [t.result(timeout=60) for t in tickets]
        service.close()
        assert duplicate.coalesced and not leader.coalesced

        sequential = system.answer_query(_request(data, seed=21))
        assert sequential.probes == duplicate.result.probes
        _assert_bit_identical(duplicate.full_field_kmh, sequential.full_field_kmh)
        _assert_bit_identical(leader.full_field_kmh, sequential.full_field_kmh)
