"""Graph-Regularized Matrix Completion (GRMC) baseline.

Implements the paper's GRMC baseline ([33], [16]): stack the historical
slot samples and the current partially-observed snapshot into a matrix
``Y`` (rows = days, columns = roads), factorize ``Y ≈ U V^T`` with a
low latent dimension, and regularize the road factors ``V`` with the
graph Laplacian so adjacent roads get similar factors:

.. math::

    \\min_{U, V} \\; \\lVert P_\\Omega(Y - U V^\\top) \\rVert_F^2
        + \\lambda (\\lVert U \\rVert_F^2 + \\lVert V \\rVert_F^2)
        + \\gamma \\, \\mathrm{tr}(V^\\top L V)

solved by alternating least squares; the ``V`` subproblem is coupled
across roads by ``L`` and is handled with block Gauss–Seidel sweeps.
The completed last row is the estimate; probed roads keep their probes.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import ModelError
from repro.baselines.base import observed_probes
from repro.network.graph import TrafficNetwork


def graph_laplacian(network: TrafficNetwork) -> sp.csr_matrix:
    """Unnormalized graph Laplacian ``L = D - A`` of the road graph."""
    n = network.n_roads
    if not network.edges:
        return sp.csr_matrix((n, n))
    ei, ej = np.array(network.edges).T
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([ej, ei])
    data = -np.ones(rows.shape[0])
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    degrees = -np.asarray(adjacency.sum(axis=1)).ravel()
    return sp.diags(degrees) + adjacency


def grmc_field(
    network: TrafficNetwork,
    samples: np.ndarray,
    probes: Mapping[int, float],
    *,
    rank: int = 10,
    reg: float = 0.1,
    gamma: float = 0.1,
    n_iterations: int = 15,
    v_sweeps: int = 2,
    seed: Optional[int] = 7,
) -> np.ndarray:
    """ALS-based graph-regularized matrix completion of the probe row.

    Args:
        network: Road graph (its Laplacian couples the road factors).
        samples: History window, shape ``(n_days, n_roads)``.
        probes: Probed speeds by road index.
        rank: Latent dimension (paper tunes 5–20; best 10).
        reg: Frobenius regularization λ (paper's L1-ish reg, best 0.1).
        gamma: Graph-smoothness weight γ.
        n_iterations: ALS rounds.
        v_sweeps: Gauss–Seidel sweeps inside each V update.
        seed: RNG seed for factor initialization.
    """
    if rank <= 0:
        raise ModelError(f"rank must be positive, got {rank}")
    if reg < 0 or gamma < 0:
        raise ModelError("reg and gamma must be >= 0")
    if n_iterations <= 0 or v_sweeps <= 0:
        raise ModelError("iteration counts must be positive")
    samples = np.asarray(samples, dtype=np.float64)
    n_days, n_roads = samples.shape
    observed, values = observed_probes(probes)

    # Build the stacked matrix: history rows are fully observed, the
    # final (current) row only at the probed roads.
    current = np.zeros(n_roads)
    mask_current = np.zeros(n_roads, dtype=bool)
    if observed.size:
        current[observed] = values
        mask_current[observed] = True
    matrix = np.vstack([samples, current[None, :]])
    mask = np.vstack(
        [np.ones((n_days, n_roads), dtype=bool), mask_current[None, :]]
    )

    # Column-centre with the history mean so the factors model the
    # fluctuation around the periodic level (improves low-rank fit).
    column_mean = samples.mean(axis=0)
    matrix = matrix - column_mean[None, :]

    completed = _complete(
        matrix, mask, network, rank, reg, gamma, n_iterations, v_sweeps, seed
    )
    estimates = completed[-1] + column_mean
    if observed.size:
        estimates[observed] = values
    return np.maximum(estimates, 0.5)


def _complete(
    matrix: np.ndarray,
    mask: np.ndarray,
    network: TrafficNetwork,
    rank: int,
    reg: float,
    gamma: float,
    n_iterations: int,
    v_sweeps: int,
    seed: Optional[int],
) -> np.ndarray:
    m, n = matrix.shape
    k = min(rank, m, n)
    rng = np.random.default_rng(seed)
    factors_u = rng.normal(scale=0.1, size=(m, k))
    factors_v = rng.normal(scale=0.1, size=(n, k))
    laplacian = graph_laplacian(network).tocsr()
    eye_k = np.eye(k)

    for _ in range(n_iterations):
        # --- U update: rows are independent.
        for i in range(m):
            cols = np.nonzero(mask[i])[0]
            if cols.size == 0:
                factors_u[i] = 0.0
                continue
            v_obs = factors_v[cols]
            lhs = v_obs.T @ v_obs + reg * eye_k
            rhs = v_obs.T @ matrix[i, cols]
            factors_u[i] = np.linalg.solve(lhs, rhs)
        # --- V update: Laplacian couples the rows; Gauss-Seidel.
        for _ in range(v_sweeps):
            for j in range(n):
                rows = np.nonzero(mask[:, j])[0]
                start, end = laplacian.indptr[j], laplacian.indptr[j + 1]
                neighbor_cols = laplacian.indices[start:end]
                neighbor_vals = laplacian.data[start:end]
                diag = 0.0
                coupling = np.zeros(k)
                for col, val in zip(neighbor_cols, neighbor_vals):
                    if col == j:
                        diag = val
                    else:
                        coupling += val * factors_v[col]
                lhs = reg * eye_k + gamma * diag * eye_k
                rhs = -gamma * coupling
                if rows.size:
                    u_obs = factors_u[rows]
                    lhs = lhs + u_obs.T @ u_obs
                    rhs = rhs + u_obs.T @ matrix[rows, j]
                factors_v[j] = np.linalg.solve(lhs, rhs)
    return factors_u @ factors_v.T
