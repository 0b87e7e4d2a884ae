"""LASSO regression baseline, solved from scratch.

The paper's LASSO baseline ([32]) regresses each road's realtime speed
on the speeds of the probed roads, with parameters learnt from the
historical record of the query slot.  Because the probed set changes per
query (crowdsourcing!), the fit happens at query time; the Gram matrix
of the probe columns is shared across all target roads, so one query
costs one ``O(S p^2)`` Gram build plus ``n`` cheap coordinate-descent
solves (``p = |R^c|`` probes, ``S`` history days).

No external ML library is used: :func:`lasso_coordinate_descent_multi`
runs a standard cyclic coordinate descent on the objective

.. math::

    \\frac{1}{2S} \\lVert y - X\\beta \\rVert_2^2
    + \\alpha \\lVert \\beta \\rVert_1

for every target road at once; :func:`lasso_coordinate_descent` is its
single-target reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.baselines.base import observed_probes
from repro.errors import ModelError
from repro.network.graph import TrafficNetwork


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_coordinate_descent(
    gram: np.ndarray,
    corr: np.ndarray,
    alpha: float,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> np.ndarray:
    """Cyclic coordinate descent on the lasso normal equations.

    Works on precomputed sufficient statistics so many targets can share
    one Gram matrix.

    Args:
        gram: ``X^T X / S`` of the (centred) design, shape ``(p, p)``.
        corr: ``X^T y / S`` of the (centred) target, shape ``(p,)``.
        alpha: L1 penalty weight (>= 0).
        max_iter: Sweep cap.
        tol: Stop when the largest coefficient change in a sweep is
            below this.

    Returns:
        Coefficient vector ``beta`` of shape ``(p,)``.
    """
    if alpha < 0:
        raise ModelError(f"alpha must be >= 0, got {alpha}")
    p = gram.shape[0]
    if gram.shape != (p, p) or corr.shape != (p,):
        raise ModelError(
            f"inconsistent shapes: gram {gram.shape}, corr {corr.shape}"
        )
    beta = np.zeros(p)
    gram_beta = np.zeros(p)  # gram @ beta, maintained incrementally
    diag = np.diag(gram).copy()
    # Degenerate columns (zero variance) keep beta = 0.
    active = diag > 1e-12
    for _ in range(max_iter):
        max_change = 0.0
        for j in range(p):
            if not active[j]:
                continue
            residual_corr = corr[j] - gram_beta[j] + diag[j] * beta[j]
            new_beta = _soft_threshold(float(residual_corr), alpha) / diag[j]
            change = new_beta - beta[j]
            if change != 0.0:
                gram_beta += gram[:, j] * change
                beta[j] = new_beta
                max_change = max(max_change, abs(change))
        if max_change < tol:
            break
    return beta


def lasso_coordinate_descent_multi(
    gram: np.ndarray,
    corr: np.ndarray,
    alpha: float,
    max_iter: int = 300,
    tol: float = 1e-6,
    warm_start: bool = False,
) -> np.ndarray:
    """Coordinate descent for many targets sharing one design matrix.

    Equivalent to calling :func:`lasso_coordinate_descent` once per
    column of ``corr`` but vectorized across targets, which is what the
    LASSO baseline needs (one lasso per road, all regressed on the same
    probe columns).

    Args:
        gram: ``X^T X / S``, shape ``(p, p)``.
        corr: ``X^T Y / S``, shape ``(p, n_targets)``.
        alpha: L1 penalty weight.
        max_iter: Sweep cap.
        tol: Stop when every coefficient change in a sweep is below
            this.
        warm_start: Initialize from the ridge solution
            ``(gram + alpha I)^{-1} corr`` — one linear solve — so CD
            only polishes the L1 geometry.  This is what keeps the
            LASSO baseline's query-time cost near "one step of matrix
            multiplication" (paper Fig. 4b).

    Returns:
        Coefficient matrix of shape ``(p, n_targets)``.
    """
    if alpha < 0:
        raise ModelError(f"alpha must be >= 0, got {alpha}")
    p = gram.shape[0]
    if gram.shape != (p, p) or corr.ndim != 2 or corr.shape[0] != p:
        raise ModelError(
            f"inconsistent shapes: gram {gram.shape}, corr {corr.shape}"
        )
    n_targets = corr.shape[1]
    if warm_start and p:
        ridge = gram + max(alpha, 1e-8) * np.eye(p)
        beta = np.linalg.solve(ridge, corr)
        gram_beta = gram @ beta
    else:
        beta = np.zeros((p, n_targets))
        gram_beta = np.zeros((p, n_targets))
    diag = np.diag(gram).copy()
    active = diag > 1e-12
    for _ in range(max_iter):
        max_change = 0.0
        for j in range(p):
            if not active[j]:
                continue
            residual_corr = corr[j] - gram_beta[j] + diag[j] * beta[j]
            new_beta = (
                np.sign(residual_corr)
                * np.maximum(np.abs(residual_corr) - alpha, 0.0)
                / diag[j]
            )
            change = new_beta - beta[j]
            largest = float(np.max(np.abs(change))) if change.size else 0.0
            if largest > 0.0:
                gram_beta += np.outer(gram[:, j], change)
                beta[j] = new_beta
                max_change = max(max_change, largest)
        if max_change < tol:
            break
    return beta


@dataclass(frozen=True)
class LassoFieldModel:
    """A fitted multi-target lasso: probe values → full speed field.

    The *fitted state* of :func:`lasso_field`: plain arrays, frozen and
    picklable, so a model store or estimator backend can serialize it
    and predict later without refitting.

    Attributes:
        observed: Probe column indices the model was fitted on.
        beta: Coefficient matrix, shape ``(p, n_roads)``.
        feature_means: Historical mean of each probe column.
        target_means: Historical mean speed of every road.
    """

    observed: np.ndarray
    beta: np.ndarray
    feature_means: np.ndarray
    target_means: np.ndarray

    def predict(self, probe_values: np.ndarray) -> np.ndarray:
        """Full field for probe values aligned with :attr:`observed`."""
        if self.observed.size == 0:
            return self.target_means.copy()
        probe_values = np.asarray(probe_values, dtype=np.float64)
        if probe_values.shape != self.feature_means.shape:
            raise ModelError(
                f"probe shape {probe_values.shape} != fitted shape "
                f"{self.feature_means.shape}"
            )
        field = self.target_means + (probe_values - self.feature_means) @ self.beta
        field[self.observed] = probe_values
        # Speeds cannot be negative; clip to a small positive floor.
        return np.maximum(field, 0.5)


def fit_lasso_field(
    samples: np.ndarray,
    observed: np.ndarray,
    alpha: float,
    max_iter: int = 60,
    tol: float = 1e-5,
    warm_start: bool = True,
) -> LassoFieldModel:
    """Fit one lasso per road on the probed columns of the history.

    All targets share the probe design, so they are solved jointly with
    the multi-target coordinate descent (one Gram build total).
    """
    samples = np.asarray(samples, dtype=np.float64)
    observed = np.asarray(observed, dtype=int)
    y_means = samples.mean(axis=0)
    if observed.size == 0:
        return LassoFieldModel(
            observed=observed,
            beta=np.zeros((0, samples.shape[1])),
            feature_means=np.zeros(0),
            target_means=y_means,
        )
    n_samples = samples.shape[0]
    design = samples[:, observed]
    x_mean = design.mean(axis=0)
    x_centered = design - x_mean
    gram = x_centered.T @ x_centered / n_samples
    corr = x_centered.T @ (samples - y_means[None, :]) / n_samples
    beta = lasso_coordinate_descent_multi(
        gram, corr, alpha, max_iter, tol, warm_start=warm_start
    )
    return LassoFieldModel(
        observed=observed,
        beta=beta,
        feature_means=x_mean,
        target_means=y_means,
    )


def lasso_field(
    network: TrafficNetwork,
    samples: np.ndarray,
    probes: Mapping[int, float],
    *,
    alpha: float = 0.1,
) -> np.ndarray:
    """Per-road lasso on the probed roads (the paper's LASSO baseline).

    Fits a :class:`LassoFieldModel` on the history window's probe
    columns (:func:`fit_lasso_field`) and predicts from the probes.

    Args:
        network: Road graph (unused: the regression ignores structure).
        samples: History window, shape ``(n_days, n_roads)``.
        probes: Probed speeds by road index.
        alpha: L1 penalty; the paper tunes within 0–0.5 and settles on
            0.1.
    """
    if alpha < 0:
        raise ModelError(f"alpha must be >= 0, got {alpha}")
    observed, values = observed_probes(probes)
    return fit_lasso_field(samples, observed, alpha).predict(values)
