"""Temporal k-NN baseline: estimate from the most similar historical days.

A classic data-driven estimator from the traffic literature (not in the
paper's comparison, added for the ablation benches): find the ``k``
historical days whose speeds on the *probed* roads best match today's
probes, and answer with their (inverse-distance weighted) average.  It
uses the probes and the history but neither the graph structure nor a
model — isolating how much RTF's structure adds over pure analogy.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.baselines.base import observed_probes
from repro.errors import ModelError
from repro.network.graph import TrafficNetwork


def knn_field(
    network: TrafficNetwork,
    samples: np.ndarray,
    probes: Mapping[int, float],
    *,
    k: int = 5,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """k-nearest historical days, matched on the probed roads.

    Args:
        network: Road graph (unused: the method ignores structure).
        samples: History window, shape ``(n_days, n_roads)``.
        probes: Probed speeds by road index.
        k: Neighbours to average (clamped to the history size).
        epsilon: Distance floor for the inverse-distance weights.
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    if epsilon <= 0:
        raise ModelError(f"epsilon must be positive, got {epsilon}")
    samples = np.asarray(samples, dtype=np.float64)
    observed, probe_vector = observed_probes(probes)
    if observed.size == 0:
        return samples.mean(axis=0)
    # Distance of each historical day to today's probe pattern,
    # normalized per road so fast roads don't dominate.
    scale = np.maximum(samples[:, observed].std(axis=0), 1e-6)
    diffs = (samples[:, observed] - probe_vector[None, :]) / scale[None, :]
    distances = np.sqrt((diffs * diffs).mean(axis=1))
    nearest = np.argsort(distances)[: min(k, samples.shape[0])]
    weights = 1.0 / (distances[nearest] + epsilon)
    weights /= weights.sum()
    estimates = weights @ samples[nearest]
    estimates[observed] = probe_vector
    return np.maximum(estimates, 0.5)
