"""Pluggable estimator backends behind the serving stack.

The package defines the runtime :class:`EstimatorBackend` protocol
(``fit → refresh → estimate``), a process-wide registry mapping names to
backend factories, and the built-in backends:

========  =====================================================
name      estimator
========  =====================================================
rtf_gsp   The paper's RTF model + GSP propagation (default).
per       Periodic historical-mean baseline (offline shim).
lasso     LASSO regression baseline (offline shim).
grmc      Graph-regularized matrix completion (offline shim).
lsmrn     LSM-RN-style latent-space model (arXiv:1602.04301).
gmrf      GMRF field reconstruction (arXiv:1306.6482).
========  =====================================================

Importing this package registers the built-ins; custom backends join
with :func:`register_backend`.  Snapshot state blobs travel through the
:class:`~repro.core.store.ModelStore` next to the RTF slots (see
``CrowdRTSE.attach_backend``), and the serving layer selects a backend
per request via ``EstimationRequest.backend``.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendEstimate,
    DeriveFn,
    EstimatorBackend,
    arrays_digest,
)
from repro.backends.gmrf import GMRFBackend, GMRFState, gmrf_conditional_mean
from repro.backends.lsmrn import (
    LSMRNBackend,
    LSMRNState,
    gnmf_multiplicative_step,
    gnmf_objective,
    road_adjacency,
)
from repro.backends.offline import OfflineBackend, OfflineState
from repro.backends.registry import (
    DEFAULT_BACKEND,
    BackendFactory,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.rtf_gsp import RTFGSPBackend, RTFGSPState
from repro.network.graph import TrafficNetwork


def _make_per(network: TrafficNetwork) -> OfflineBackend:
    from repro.baselines import PeriodicEstimator

    return OfflineBackend(network, PeriodicEstimator(), name="per")


def _make_lasso(network: TrafficNetwork) -> OfflineBackend:
    from repro.baselines import LassoEstimator

    return OfflineBackend(network, LassoEstimator(alpha=0.1), name="lasso")


def _make_grmc(network: TrafficNetwork) -> OfflineBackend:
    from repro.baselines import GRMCEstimator

    return OfflineBackend(
        network,
        GRMCEstimator(rank=10, reg=0.1, n_iterations=10),
        name="grmc",
    )


def _register_builtins() -> None:
    # replace=True keeps re-imports (and importlib.reload in tests)
    # idempotent instead of raising duplicate-name errors.
    register_backend("rtf_gsp", RTFGSPBackend, replace=True)
    register_backend("per", _make_per, replace=True)
    register_backend("lasso", _make_lasso, replace=True)
    register_backend("grmc", _make_grmc, replace=True)
    register_backend("lsmrn", LSMRNBackend, replace=True)
    register_backend("gmrf", GMRFBackend, replace=True)


_register_builtins()

__all__ = [
    "BackendEstimate",
    "BackendFactory",
    "DEFAULT_BACKEND",
    "DeriveFn",
    "EstimatorBackend",
    "GMRFBackend",
    "GMRFState",
    "LSMRNBackend",
    "LSMRNState",
    "OfflineBackend",
    "OfflineState",
    "RTFGSPBackend",
    "RTFGSPState",
    "arrays_digest",
    "available_backends",
    "create_backend",
    "gmrf_conditional_mean",
    "gnmf_multiplicative_step",
    "gnmf_objective",
    "register_backend",
    "road_adjacency",
    "unregister_backend",
]
