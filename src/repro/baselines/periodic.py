"""The "Per" baseline: purely periodic estimation.

Per answers each road's historical mean speed of the query slot and
ignores the crowdsourced probes entirely — exactly the paper's Per,
which "purely relies on the periodicity" (§VII-C).  It is the strongest
possible method when days repeat perfectly and the weakest when
incidents strike.

* :func:`per_field` is the ``per`` backend's field function: the mean
  of the backend's history window.
* :func:`periodic_field` is the same estimate from fitted slot
  parameters (a copy of μ); the serving layer's graceful-degradation
  path calls it when a deadline or budget forces a query to fall back
  to Per (see :mod:`repro.serve`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.rtf import RTFSlot
from repro.network.graph import TrafficNetwork


def per_field(
    network: TrafficNetwork, samples: np.ndarray, probes: Mapping[int, float]
) -> np.ndarray:
    """The Per estimate of a history window: each road's mean speed."""
    return np.asarray(samples, dtype=np.float64).mean(axis=0)


def periodic_field(slot_params: RTFSlot) -> np.ndarray:
    """The Per estimate from fitted slot parameters: a copy of μ."""
    return slot_params.mu.astype(np.float64).copy()
