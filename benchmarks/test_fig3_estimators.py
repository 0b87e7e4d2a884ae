"""Figure 3 bench: estimation quality of GSP vs LASSO vs GRMC vs Per.

Benchmarks each estimator's backend (``rtf_gsp``, ``lasso``, ``grmc``,
``per``) on an identical probe set and regenerates the
quality grid's key shapes: GSP wins MAPE and FER at the smallest budget
(columns a1/a2), Hybrid selection beats Random for GSP (column d), and
the tuned θ never hurts at small K (column e).
"""

import numpy as np
import pytest

from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments import figure3
from repro.experiments.common import (
    ESTIMATOR_LABELS,
    ExperimentScale,
    attach_backends,
)

QUICK = ExperimentScale.QUICK

#: Figure label → backend name.
_BACKENDS = {label: name for name, label in ESTIMATOR_LABELS.items()}


@pytest.mark.parametrize("name", sorted(_BACKENDS))
def test_fig3_estimator_quality(benchmark, name, semisyn, semisyn_system, semisyn_probe):
    """Benchmark one estimator's backend on a realized probe set."""
    result, truth = semisyn_probe
    backend = _BACKENDS[name]
    attach_backends(semisyn_system, semisyn, [backend])

    def estimate():
        return semisyn_system.estimate_with_backend(
            backend, result.probes, semisyn.slot
        ).speeds

    field = benchmark(estimate)
    queried = list(semisyn.queried)
    truths = np.array([truth(q) for q in queried])
    mape = mean_absolute_percentage_error(field[queried], truths)
    assert mape < 0.6  # sanity: every estimator is in a sane range


def test_fig3_grid_shapes(benchmark):
    """Regenerate a reduced Figure 3 grid and check the paper's shapes."""
    budgets = (15, 45, 75)
    cells = benchmark.pedantic(
        figure3.run,
        kwargs=dict(
            scale=QUICK,
            n_trials=3,
            selectors=("hybrid", "random"),
            thetas=(0.92, 1.0),
            budgets=budgets,
        ),
        rounds=1,
        iterations=1,
    )
    smallest = min(budgets)

    # Columns a1/a2: GSP best MAPE and FER at the smallest budget.
    at_small = {
        c.estimator: c.summary
        for c in cells
        if c.selector == "hybrid" and c.theta == 0.92 and c.budget == smallest
    }
    assert at_small["GSP"].mape == min(s.mape for s in at_small.values())
    assert at_small["GSP"].fer == min(s.fer for s in at_small.values())

    # Row 3 (DAPE): GSP concentrates more mass in the lowest-error bin.
    assert at_small["GSP"].dape[0] >= at_small["GRMC"].dape[0]

    # Column d: Hybrid selection beats Random selection for GSP.
    gsp_small = {
        c.selector: c.summary.mape
        for c in cells
        if c.estimator == "GSP" and c.theta == 0.92 and c.budget == smallest
    }
    assert gsp_small["hybrid"] <= gsp_small["random"] + 0.02

    # Column e: the tuned θ does not hurt at small budget.
    gsp_theta = {
        c.theta: c.summary.mape
        for c in cells
        if c.estimator == "GSP" and c.selector == "hybrid" and c.budget == smallest
    }
    assert gsp_theta[0.92] <= gsp_theta[1.0] + 0.02

    # Effect of budget: GSP improves (or holds) as K grows.
    gsp_series = sorted(
        (c.budget, c.summary.mape)
        for c in cells
        if c.estimator == "GSP" and c.selector == "hybrid" and c.theta == 0.92
    )
    assert gsp_series[-1][1] <= gsp_series[0][1] + 0.02
