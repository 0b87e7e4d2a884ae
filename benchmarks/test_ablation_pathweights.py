"""Ablation bench: exact -log(rho) path weights vs the paper's 1/rho.

DESIGN.md §4 item 1.  Benchmarks both all-pairs table builds and
quantifies how far the paper's reciprocal heuristic falls from the true
product-maximizing correlations.
"""

import numpy as np
import pytest

from repro.core.correlation import road_road_correlation_matrix
from repro.experiments import ablations
from repro.experiments.common import ExperimentScale

QUICK = ExperimentScale.QUICK


@pytest.mark.parametrize(
    "build",
    [road_road_correlation_matrix, ablations._reciprocal_correlation_matrix],
    ids=["log", "reciprocal"],
)
def test_ablation_table_build_cost(benchmark, build, semisyn, semisyn_system):
    """Benchmark the all-pairs Γ_R build under each transform."""
    rho = semisyn_system.model.slot(semisyn.slot).rho
    corr = benchmark(build, semisyn.network, rho)
    assert corr.shape == (semisyn.n_roads, semisyn.n_roads)
    assert np.allclose(np.diag(corr), 1.0)


def test_ablation_pathweights_gap(benchmark):
    """The exact transform dominates; the measured gap is the ablation."""
    rows = benchmark.pedantic(
        ablations.path_weight_ablation, args=(QUICK,), rounds=1, iterations=1
    )
    values = {r.variant: r.value for r in rows}
    assert values["exact >= paper (should be ~1)"] >= 0.999
    assert values["max |Δcorr|"] >= 0.0
    assert values["mean |Δcorr|"] <= 0.2
