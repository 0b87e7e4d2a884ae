"""The one signature every baseline field function shares.

A baseline is a pure function ``field(network, samples, probes)``:
``samples`` is the query slot's ``(n_days, n_roads)`` history window,
``probes`` the road → km/h mapping an
:class:`~repro.backends.base.EstimatorBackend` has already validated,
and the result one speed per road.
:class:`~repro.backends.offline.OfflineBackend` serves any such function
as a backend; hyperparameters are keyword arguments, bound with
:func:`functools.partial`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Tuple

import numpy as np

from repro.network.graph import TrafficNetwork

#: ``(network, samples, probes) -> speeds`` of shape ``(n_roads,)``.
FieldFn = Callable[[TrafficNetwork, np.ndarray, Mapping[int, float]], np.ndarray]


def observed_probes(probes: Mapping[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    """Probed road indices in sorted order, and their values aligned.

    Every baseline reads probes in this order; LASSO's coordinate
    descent visits the probe columns in it, so the order is part of its
    answer.
    """
    indices = np.array(sorted(int(r) for r in probes), dtype=int)
    values = np.array([float(probes[int(r)]) for r in indices])
    return indices, values
