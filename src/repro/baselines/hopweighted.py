"""Hop-distance-weighted probe interpolation (extra baseline).

Not in the paper; used by the ablation benches as a model-free
reference: every non-probed road blends the historical mean with the
nearest probes, weighted by ``decay^hops``.  It isolates how much of
GSP's advantage comes from the RTF statistics versus mere proximity to
the probes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.baselines.base import observed_probes
from repro.errors import ModelError
from repro.network.graph import TrafficNetwork


def hop_weighted_field(
    network: TrafficNetwork,
    samples: np.ndarray,
    probes: Mapping[int, float],
    *,
    decay: float = 0.5,
    max_hops: int = 4,
) -> np.ndarray:
    """Distance-decay interpolation of the probes.

    Args:
        network: Road graph (hop distances).
        samples: History window, shape ``(n_days, n_roads)``.
        probes: Probed speeds by road index.
        decay: Per-hop weight multiplier in (0, 1).
        max_hops: Probes farther than this have no influence.
    """
    if not 0.0 < decay < 1.0:
        raise ModelError(f"decay must be in (0, 1), got {decay}")
    if max_hops < 1:
        raise ModelError(f"max_hops must be >= 1, got {max_hops}")
    baseline = np.asarray(samples, dtype=np.float64).mean(axis=0)
    observed, values = observed_probes(probes)
    if observed.size == 0:
        return baseline

    # For every probe, its *deviation from its own historical mean*
    # is what propagates: nearby roads likely deviate similarly.
    deviation_num = np.zeros(network.n_roads)
    deviation_den = np.zeros(network.n_roads)
    for road, value in zip(observed, values):
        probe_dev = value - baseline[road]
        distances = network.hop_distances([int(road)])
        for other, hops in enumerate(distances):
            if hops is None or hops == 0 or hops > max_hops:
                continue
            weight = decay**hops
            deviation_num[other] += weight * probe_dev
            deviation_den[other] += weight
    estimates = baseline.copy()
    blend = deviation_den > 0
    estimates[blend] = baseline[blend] + deviation_num[blend] / (
        deviation_den[blend] + 1.0
    )
    estimates[observed] = values
    return np.maximum(estimates, 0.5)
