"""Ablation bench: extra baselines (temporal kNN, hop-weighted) vs GSP.

Not in the paper; isolates where GSP's advantage comes from.  kNN uses
probes + history without graph structure; HopW uses probes + graph
proximity without the statistical model.  GSP should beat both on MAPE.
"""

import numpy as np
import pytest

from repro.backends import OfflineBackend
from repro.baselines import hop_weighted_field, knn_field
from repro.core.request import EstimationRequest
from repro.eval.metrics import mean_absolute_percentage_error

#: The two extra baselines are not registered: the bench serves each
#: through an ``OfflineBackend`` built around its field function.
_EXTRA = {"kNN": knn_field, "HopW": hop_weighted_field}
_ESTIMATORS = ("GSP", "HopW", "kNN")


@pytest.fixture(scope="module")
def estimators(semisyn, semisyn_system):
    """Estimator name → ``probes -> field`` over the semisyn slot."""
    def offline(name, field_fn):
        backend = OfflineBackend(semisyn.network, field_fn, name=name.lower())
        state = backend.fit(semisyn.train_history, slots=[semisyn.slot])
        return lambda probes: backend.estimate(state, probes, semisyn.slot).speeds

    table = {name: offline(name, fn) for name, fn in _EXTRA.items()}
    table["GSP"] = lambda probes: semisyn_system.estimate_with_backend(
        "rtf_gsp", probes, semisyn.slot
    ).speeds
    return table


@pytest.fixture(scope="module")
def probes_and_truth(semisyn, semisyn_system):
    from repro.datasets import truth_oracle_for
    from repro.experiments.common import market_for

    market = market_for(semisyn, seed=31)
    truth = truth_oracle_for(semisyn.test_history, 0, semisyn.slot)
    result = semisyn_system.answer_query(
        EstimationRequest(
            queried=semisyn.queried,
            slot=semisyn.slot,
            budget=min(semisyn.budgets),
        ),
        market=market,
        truth=truth,
    )
    return result.probes, truth


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_extra_baseline_quality(benchmark, name, semisyn, estimators, probes_and_truth):
    probes, truth = probes_and_truth
    field = benchmark(estimators[name], probes)
    queried = list(semisyn.queried)
    truths = np.array([truth(q) for q in queried])
    mape = mean_absolute_percentage_error(field[queried], truths)
    assert mape < 0.6


def test_gsp_beats_structureless_baselines(
    benchmark, semisyn, estimators, probes_and_truth
):
    probes, truth = probes_and_truth
    queried = list(semisyn.queried)
    truths = np.array([truth(q) for q in queried])

    def compare():
        scores = {}
        for name in _ESTIMATORS:
            field = estimators[name](probes)
            scores[name] = mean_absolute_percentage_error(field[queried], truths)
        return scores

    scores = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert scores["GSP"] <= scores["kNN"] + 0.02
    assert scores["GSP"] <= scores["HopW"] + 0.02
