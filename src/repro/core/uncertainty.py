"""Per-road uncertainty of GSP estimates.

GSP returns the GMRF conditional *mean*; the same model also yields the
conditional *variance* of every non-probed road — how much the estimate
should be trusted.  The marginal variances are the diagonal of the
inverse of the conditional precision matrix built in
:mod:`repro.core.exact_inference`.

Use cases: flagging low-confidence answers to the user, and a
"where would another probe help most" diagnostic that complements OCS
(the road with the largest posterior variance is the natural next
probe).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.errors import ModelError
from repro.core.exact_inference import conditional_system
from repro.core.rtf import RTFSlot
from repro.network.graph import TrafficNetwork


def conditional_variances(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
) -> np.ndarray:
    """Posterior marginal variance per road given the probes.

    Probed roads get variance 0 (they are clamped).  For the free roads
    the variances are ``diag(A^{-1})`` of the conditional precision
    ``A``; computed by one sparse LU factorization and one solve per
    free road (adequate up to a few thousand roads).

    Args:
        network: Road graph.
        params: RTF slot parameters.
        observed: Probed speeds keyed by road index.

    Returns:
        Array of shape ``(n_roads,)`` of variances (km/h)^2.
    """
    matrix, _, free = conditional_system(network, params, observed)
    variances = np.zeros(network.n_roads)
    if free.size == 0:
        return variances
    solver = spla.splu(matrix.tocsc())
    # Column-by-column solve against one reused unit vector: for
    # moderate n the simplest exact route to diag(A^-1), in O(n) memory.
    unit = np.zeros(free.size)
    inverse_diag = np.empty(free.size)
    for k in range(free.size):
        unit[k] = 1.0
        inverse_diag[k] = solver.solve(unit)[k]
        unit[k] = 0.0
    variances[free] = inverse_diag
    if np.any(variances < -1e-9):
        raise ModelError("negative posterior variance: precision not PD")
    return np.maximum(variances, 0.0)


def confidence_intervals(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
    speeds: np.ndarray,
    z: float = 1.96,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian confidence band around a GSP/exact estimate.

    Args:
        network: Road graph.
        params: RTF slot parameters.
        observed: The probes that produced ``speeds``.
        speeds: Estimated speed field (conditional mean).
        z: Normal quantile (1.96 → 95%).

    Returns:
        ``(low, high)`` arrays; probed roads collapse to their value.
    """
    speeds = np.asarray(speeds, dtype=np.float64)
    if speeds.shape != (network.n_roads,):
        raise ModelError(
            f"speeds must have shape ({network.n_roads},), got {speeds.shape}"
        )
    if z <= 0:
        raise ModelError("z must be positive")
    std = np.sqrt(conditional_variances(network, params, observed))
    return speeds - z * std, speeds + z * std


def most_uncertain_roads(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
    k: int = 5,
) -> Dict[int, float]:
    """The ``k`` roads with the largest posterior variance.

    These are the roads where one more crowd probe buys the most
    information — a per-query complement to OCS's offline weighting.
    """
    if k < 1:
        raise ModelError("k must be >= 1")
    variances = conditional_variances(network, params, observed)
    order = np.argsort(-variances)[:k]
    return {int(i): float(variances[i]) for i in order if variances[i] > 0}
