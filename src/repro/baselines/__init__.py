"""Baseline estimators the paper compares against (§VII-C).

Each baseline is a pure field function ``field(network, samples,
probes) -> speeds`` (:data:`FieldFn`); the registered backends ``per``,
``lasso`` and ``grmc`` serve them through
:class:`~repro.backends.offline.OfflineBackend`, so the paper's figures
score them through the same backend protocol as GSP (``rtf_gsp``).

* :func:`per_field` ("Per") — historical periodic means only.
* :func:`lasso_field` ("LASSO") — per-road L1 regression on the probed
  roads, solved with our own coordinate-descent lasso.
* :func:`grmc_field` ("GRMC") — graph-regularized matrix completion
  via alternating least squares with a Laplacian smoothness term.
* :func:`knn_field` and :func:`hop_weighted_field` — extra baselines
  used by the ablation benches (not in the paper, not registered).
"""

from repro.baselines.base import FieldFn, observed_probes
from repro.baselines.periodic import per_field, periodic_field
from repro.baselines.lasso import (
    LassoFieldModel,
    fit_lasso_field,
    lasso_coordinate_descent,
    lasso_coordinate_descent_multi,
    lasso_field,
)
from repro.baselines.grmc import graph_laplacian, grmc_field
from repro.baselines.hopweighted import hop_weighted_field
from repro.baselines.knn_temporal import knn_field

__all__ = [
    "FieldFn",
    "LassoFieldModel",
    "fit_lasso_field",
    "graph_laplacian",
    "grmc_field",
    "hop_weighted_field",
    "knn_field",
    "lasso_coordinate_descent",
    "lasso_coordinate_descent_multi",
    "lasso_field",
    "observed_probes",
    "per_field",
    "periodic_field",
]
