"""Realtime Traffic-speed Field (RTF) — the paper's GMRF (§IV).

For each time slot ``t`` the field carries three parameter sets:

* ``mu``    — expected speed per road (paper ``mu_i^t``),
* ``sigma`` — std dev per road, the *intensity of periodicity*
  (``sigma_i^t``; small = strongly periodic),
* ``rho``   — correlation per adjacent pair, the edge weights
  (``rho_ij^t`` in ``[0, 1]``).

Derived pairwise quantities (paper Eq. 2):

.. math::

    \\mu_{ij} = \\mu_i - \\mu_j, \\qquad
    \\sigma_{ij}^2 = \\sigma_i^2 + \\sigma_j^2 - 2\\rho_{ij}\\sigma_i\\sigma_j

The joint (pseudo-)log-likelihood of a speed assignment (paper Eq. 5) is

.. math::

    \\mathcal{L}_{G^t} = -\\sum_i \\Big( \\frac{(v_i - \\mu_i)^2}{\\sigma_i^2}
      + \\sum_{j \\in n(i)} \\frac{((v_i - v_j) - \\mu_{ij})^2}{\\sigma_{ij}^2} \\Big).

Note that Eq. 5 drops the Gaussian normalization terms.  That is fine
for *speed inference* (GSP maximizes over ``v`` with parameters fixed),
but makes *parameter inference* degenerate (the objective grows without
bound as ``sigma → ∞``).  :mod:`repro.core.inference` therefore offers a
normalized variant; see its module docstring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.network.graph import TrafficNetwork

#: Smallest admissible std dev — keeps every 1/sigma^2 finite.
SIGMA_FLOOR = 1e-3

#: Smallest admissible pairwise variance sigma_ij^2.
PAIR_VARIANCE_FLOOR = 1e-6


def params_signature(params: "RTFSlot") -> bytes:
    """Content digest of one slot's parameters.

    The digest keys every derived artifact (GSP propagation structures,
    correlation matrices, :class:`repro.core.store.ModelSnapshot`
    artifacts): any change to ``mu`` / ``sigma`` / ``rho`` changes the
    digest, so stale derivations can never be served for fresh
    parameters.
    """
    digest = hashlib.sha1()
    digest.update(np.int64(params.slot).tobytes())
    digest.update(np.ascontiguousarray(params.mu, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(params.sigma, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(params.rho, dtype=np.float64).tobytes())
    return digest.digest()


def network_fingerprint(network: TrafficNetwork) -> np.ndarray:
    """Identity fingerprint of a network for persistence checks.

    Returns a small ``uint8`` array holding ``n_roads``, ``n_edges``
    and a SHA-1 over the edge list, so a model file can be validated
    against the network it is loaded for (see :meth:`RTFModel.load`).
    """
    digest = hashlib.sha1()
    digest.update(np.int64(network.n_roads).tobytes())
    digest.update(np.int64(network.n_edges).tobytes())
    if network.edges:
        digest.update(np.ascontiguousarray(network.edges, dtype=np.int64).tobytes())
    header = np.array([network.n_roads, network.n_edges], dtype=np.int64)
    return np.concatenate(
        [header.view(np.uint8), np.frombuffer(digest.digest(), dtype=np.uint8)]
    )


@dataclass(frozen=True)
class RTFSlot:
    """RTF parameters for one time slot.

    Attributes:
        slot: Global slot index (0..287).
        mu: Expected speed per road, shape ``(n_roads,)``.
        sigma: Std dev per road, shape ``(n_roads,)``; all > 0.
        rho: Correlation per edge, shape ``(n_edges,)`` aligned with
            :attr:`TrafficNetwork.edges`; all in ``[0, 1]``.
    """

    slot: int
    mu: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.ndim != 1 or self.sigma.shape != self.mu.shape:
            raise ModelError(
                f"mu {self.mu.shape} and sigma {self.sigma.shape} must be 1-d and aligned"
            )
        if self.rho.ndim != 1:
            raise ModelError(f"rho must be 1-d, got shape {self.rho.shape}")
        if np.any(~np.isfinite(self.mu)) or np.any(~np.isfinite(self.sigma)):
            raise ModelError("mu/sigma contain NaN or infinity")
        if np.any(self.sigma <= 0):
            raise ModelError("sigma must be strictly positive")
        # Written so NaN fails it: every comparison with NaN is False.
        if not np.all((self.rho >= 0) & (self.rho <= 1)):
            raise ModelError("rho must be finite and lie in [0, 1]")

    @property
    def n_roads(self) -> int:
        """Number of roads this slot parameterizes."""
        return self.mu.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of edges this slot parameterizes."""
        return self.rho.shape[0]

    def check_against(self, network: TrafficNetwork) -> None:
        """Validate alignment with a network.

        Raises:
            ModelError: On any dimension mismatch.
        """
        if self.n_roads != network.n_roads:
            raise ModelError(
                f"slot {self.slot}: {self.n_roads} roads vs network {network.n_roads}"
            )
        if self.n_edges != network.n_edges:
            raise ModelError(
                f"slot {self.slot}: {self.n_edges} edges vs network {network.n_edges}"
            )

    # ------------------------------------------------------------------
    # Pairwise (edge) quantities, paper Eq. 2
    # ------------------------------------------------------------------

    def edge_mu(self, network: TrafficNetwork) -> np.ndarray:
        """``mu_ij = mu_i - mu_j`` per edge, shape ``(n_edges,)``."""
        self.check_against(network)
        if not network.edges:
            return np.zeros(0)
        ei, ej = np.array(network.edges).T
        return self.mu[ei] - self.mu[ej]

    def edge_variance(self, network: TrafficNetwork) -> np.ndarray:
        """``sigma_ij^2`` per edge, floored at :data:`PAIR_VARIANCE_FLOOR`.

        The floor guards against the degenerate ``rho = 1`` with equal
        sigmas, where the paper's formula gives exactly zero.
        """
        self.check_against(network)
        if not network.edges:
            return np.zeros(0)
        ei, ej = np.array(network.edges).T
        si, sj = self.sigma[ei], self.sigma[ej]
        var = si * si + sj * sj - 2.0 * self.rho * si * sj
        return np.maximum(var, PAIR_VARIANCE_FLOOR)

    def pairwise_mu(self, network: TrafficNetwork, i: int, j: int) -> float:
        """``mu_ij`` for a single adjacent pair (order-sensitive)."""
        network.edge_id(i, j)  # validates adjacency
        return float(self.mu[i] - self.mu[j])

    def pairwise_sigma(self, network: TrafficNetwork, i: int, j: int) -> float:
        """``sigma_ij`` for a single adjacent pair."""
        e = network.edge_id(i, j)
        si, sj = float(self.sigma[i]), float(self.sigma[j])
        var = si * si + sj * sj - 2.0 * float(self.rho[e]) * si * sj
        return float(np.sqrt(max(var, PAIR_VARIANCE_FLOOR)))

    # ------------------------------------------------------------------
    # Array export for the propagation kernels
    # ------------------------------------------------------------------

    def propagation_arrays(
        self, network: TrafficNetwork
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Precision arrays the GSP kernels are compiled from.

        Returns:
            ``(prior_precision, prior_pull, edge_precision, edge_mu)``:

            * ``prior_precision`` — ``1/σ_i²`` per road, shape ``(n_roads,)``;
            * ``prior_pull`` — ``μ_i/σ_i²`` per road;
            * ``edge_precision`` — ``1/σ_ij²`` per edge, aligned with
              :attr:`TrafficNetwork.edges`, shape ``(n_edges,)``;
            * ``edge_mu`` — ``μ_ij = μ_i - μ_j`` per edge (``i < j``
              orientation; callers negate for the reverse direction).

        Everything is derived vectorized — no per-node Python loop — so
        :func:`repro.core.gsp.build_propagation_structure` can compile a
        2k-road city in milliseconds.
        """
        self.check_against(network)
        prior_precision = 1.0 / (self.sigma * self.sigma)
        prior_pull = self.mu * prior_precision
        edge_precision = (
            1.0 / self.edge_variance(network) if network.edges else np.zeros(0)
        )
        return prior_precision, prior_pull, edge_precision, self.edge_mu(network)

    # ------------------------------------------------------------------
    # Likelihoods
    # ------------------------------------------------------------------

    def log_likelihood(self, network: TrafficNetwork, speeds: np.ndarray) -> float:
        """Paper Eq. 5 for one speed assignment.

        Each edge term is counted twice (once per endpoint), exactly as
        the double sum in Eq. 5 does.

        Args:
            network: The road graph.
            speeds: Speed assignment, shape ``(n_roads,)``.
        """
        speeds = np.asarray(speeds, dtype=np.float64)
        if speeds.shape != (self.n_roads,):
            raise ModelError(
                f"speeds shape {speeds.shape} does not match {self.n_roads} roads"
            )
        self.check_against(network)
        periodic = float(np.sum(((speeds - self.mu) / self.sigma) ** 2))
        if network.edges:
            ei, ej = np.array(network.edges).T
            diffs = speeds[ei] - speeds[ej]
            resid = diffs - self.edge_mu(network)
            corr_term = 2.0 * float(np.sum(resid * resid / self.edge_variance(network)))
        else:
            corr_term = 0.0
        return -(periodic + corr_term)

    def conditional_log_likelihood(
        self, network: TrafficNetwork, road: int, speeds: np.ndarray
    ) -> float:
        """Paper Eq. 4: conditional (pseudo) log-likelihood of one road.

        Args:
            network: The road graph.
            road: Road index whose conditional likelihood to evaluate.
            speeds: Full speed assignment; only ``road`` and its
                neighbours are read.
        """
        self.check_against(network)
        speeds = np.asarray(speeds, dtype=np.float64)
        v_i = speeds[road]
        total = ((v_i - self.mu[road]) / self.sigma[road]) ** 2
        for j in network.neighbors(road):
            mu_ij = self.mu[road] - self.mu[j]
            sig_ij = self.pairwise_sigma(network, road, j)
            total += ((v_i - speeds[j] - mu_ij) / sig_ij) ** 2
        return -float(total)


class RTFModel:
    """Collection of per-slot RTF parameters for one network.

    A model may cover any subset of the 288 daily slots (experiments
    typically train a handful).  Access a slot with :meth:`slot`.
    """

    def __init__(self, network: TrafficNetwork, slots: Iterable[RTFSlot]) -> None:
        self._network = network
        self._slots: Dict[int, RTFSlot] = {}
        for slot_params in slots:
            slot_params.check_against(network)
            if slot_params.slot in self._slots:
                raise ModelError(f"duplicate parameters for slot {slot_params.slot}")
            self._slots[slot_params.slot] = slot_params
        if not self._slots:
            raise ModelError("RTFModel needs at least one slot")

    @property
    def network(self) -> TrafficNetwork:
        """The road graph the model is defined on."""
        return self._network

    @property
    def slots(self) -> Tuple[int, ...]:
        """Covered global slot indices, sorted."""
        return tuple(sorted(self._slots))

    def __contains__(self, slot: int) -> bool:
        return slot in self._slots

    def __repr__(self) -> str:
        return f"RTFModel(n_roads={self._network.n_roads}, slots={list(self.slots)})"

    def slot(self, slot: int) -> RTFSlot:
        """Parameters for one slot.

        Raises:
            NotFittedError: When the slot was never fitted.
        """
        try:
            return self._slots[slot]
        except KeyError:
            raise NotFittedError(
                f"slot {slot} not fitted (available: {list(self.slots)})"
            ) from None

    def periodicity_weights(self, slot: int, roads: Sequence[int]) -> np.ndarray:
        """``sigma_i^t`` for the given roads — OCS's periodicity weights."""
        params = self.slot(slot)
        return params.sigma[np.asarray(list(roads), dtype=int)]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Save all slots to a compressed ``.npz`` file.

        The file carries a network fingerprint (road/edge counts plus an
        edge-list hash) so :meth:`load` can reject a model that belongs
        to a different network up front.
        """
        payload: Dict[str, np.ndarray] = {
            "slots": np.array(sorted(self._slots), dtype=np.int64),
            "network_fingerprint": network_fingerprint(self._network),
        }
        for t, params in self._slots.items():
            payload[f"mu_{t}"] = params.mu
            payload[f"sigma_{t}"] = params.sigma
            payload[f"rho_{t}"] = params.rho
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load(cls, path: Union[str, Path], network: TrafficNetwork) -> "RTFModel":
        """Load a model previously written by :meth:`save`.

        Raises:
            ModelError: When the file's network fingerprint does not
                match ``network`` (files written before fingerprints
                existed are accepted and fall back to shape checks).
        """
        with np.load(Path(path), allow_pickle=False) as payload:
            if "network_fingerprint" in payload:
                stored = np.asarray(payload["network_fingerprint"], dtype=np.uint8)
                expected = network_fingerprint(network)
                if stored.shape != expected.shape or not np.array_equal(
                    stored, expected
                ):
                    raise ModelError(
                        f"model file {path} was saved for a different network "
                        f"(fingerprint mismatch: expected "
                        f"{network.n_roads} roads / {network.n_edges} edges)"
                    )
            slot_ids = [int(t) for t in payload["slots"]]
            slots = [
                RTFSlot(
                    slot=t,
                    mu=np.asarray(payload[f"mu_{t}"], dtype=np.float64),
                    sigma=np.asarray(payload[f"sigma_{t}"], dtype=np.float64),
                    rho=np.asarray(payload[f"rho_{t}"], dtype=np.float64),
                )
                for t in slot_ids
            ]
        return cls(network, slots)
