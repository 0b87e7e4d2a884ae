"""Online (streaming) RTF parameter maintenance.

The paper fits RTF offline from a fixed three-month crawl.  A deployed
system keeps receiving new days of data, and traffic statistics drift
(roadworks, seasonal shifts).  :class:`OnlineRTFUpdater` maintains the
per-slot parameters incrementally with exponential forgetting:

.. math::

    m_i \\leftarrow (1-\\eta)\\, m_i + \\eta\\, v_i, \\qquad
    s_i \\leftarrow (1-\\eta)\\, s_i + \\eta\\,(v_i - m_i)^2, \\qquad
    c_{ij} \\leftarrow (1-\\eta)\\, c_{ij} + \\eta\\,(v_i - m_i)(v_j - m_j)

so the effective memory is about ``1/eta`` days.  Because the
normalized pseudo-likelihood's stationary point *is* the (weighted)
moment set (see :mod:`repro.core.inference`), these running moments stay
the maximum-likelihood parameters of the drifting model — no gradient
loop is needed per day.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

import numpy as np

from repro.errors import ModelError, warn_once
from repro.core.rtf import RTFSlot, SIGMA_FLOOR
from repro.network.graph import TrafficNetwork
from repro.obs import get_metrics


def note_unfitted_slots(dropped: Sequence[int], available: Sequence[int]) -> None:
    """Account for observations targeting slots the model never fitted.

    Filtering such slots silently would let a stream wired to the wrong
    slot window feed a model that never moves, with no trace.  So every
    dropped slot lands in the ``stream.dropped{reason="unfitted_slot"}``
    counter, and the first occurrence warns (once per process; the
    condition repeats every batch, so more would be noise).
    """
    if not dropped:
        return
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(
            "stream.dropped", {"reason": "unfitted_slot"}
        ).inc(len(dropped))
    warn_once(
        "online_update.unfitted_slots",
        f"dropping observations for slot(s) {sorted(set(dropped))}: not in "
        f"the model's fitted slot range {sorted(available)} (warned once "
        "per process; see the stream.dropped{reason=\"unfitted_slot\"} "
        "counter for the running total)",
    )


class OnlineRTFUpdater:
    """Maintains one slot's RTF parameters from a stream of daily samples.

    Args:
        network: Road graph.
        initial: Starting parameters (e.g. from the offline fit).
        learning_rate: Forgetting factor η in (0, 1); memory ≈ 1/η days.
        sigma_floor: Lower bound kept on σ.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        initial: RTFSlot,
        learning_rate: float = 0.05,
        sigma_floor: float = SIGMA_FLOOR,
    ) -> None:
        if not 0.0 < learning_rate < 1.0:
            raise ModelError(
                f"learning_rate must be in (0, 1), got {learning_rate}"
            )
        initial.check_against(network)
        self._network = network
        self._eta = learning_rate
        self._sigma_floor = sigma_floor
        self._slot = initial.slot
        self._mean = initial.mu.astype(np.float64).copy()
        self._var = (initial.sigma.astype(np.float64) ** 2).copy()
        if network.edges:
            ei, ej = np.array(network.edges).T
            self._ei, self._ej = ei, ej
            self._cov = (
                initial.rho * initial.sigma[ei] * initial.sigma[ej]
            ).astype(np.float64)
        else:
            self._ei = np.zeros(0, dtype=int)
            self._ej = np.zeros(0, dtype=int)
            self._cov = np.zeros(0)
        self._n_updates = 0

    @property
    def n_updates(self) -> int:
        """Number of daily samples absorbed so far."""
        return self._n_updates

    @property
    def learning_rate(self) -> float:
        """The forgetting factor η."""
        return self._eta

    def update(self, sample: np.ndarray) -> RTFSlot:
        """Absorb one day's speeds for this slot and return new params.

        Args:
            sample: Speeds of every road in this slot today, shape
                ``(n_roads,)``.

        Returns:
            The refreshed :class:`RTFSlot`.
        """
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != (self._network.n_roads,):
            raise ModelError(
                f"sample must have shape ({self._network.n_roads},), "
                f"got {sample.shape}"
            )
        if np.any(~np.isfinite(sample)) or np.any(sample <= 0):
            raise ModelError("sample speeds must be finite and positive")
        eta = self._eta
        residual = sample - self._mean
        self._mean += eta * residual
        # Use the post-update mean for the second moments (EW moments).
        centered = sample - self._mean
        self._var = (1 - eta) * self._var + eta * centered * centered
        if self._ei.size:
            self._cov = (1 - eta) * self._cov + eta * (
                centered[self._ei] * centered[self._ej]
            )
        self._n_updates += 1
        return self.current()

    def update_many(self, samples: Iterable[np.ndarray]) -> RTFSlot:
        """Absorb several days in order; returns the final parameters."""
        params = self.current()
        for sample in samples:
            params = self.update(sample)
        return params

    def current(self) -> RTFSlot:
        """The present parameters as an :class:`RTFSlot`."""
        sigma = np.sqrt(np.maximum(self._var, self._sigma_floor**2))
        if self._ei.size:
            rho = np.clip(
                self._cov / (sigma[self._ei] * sigma[self._ej]), 0.0, 1.0
            )
        else:
            rho = np.zeros(0)
        return RTFSlot(slot=self._slot, mu=self._mean.copy(), sigma=sigma, rho=rho)


def refresh_slots(
    network: TrafficNetwork,
    current: Mapping[int, RTFSlot],
    day_samples: Mapping[int, np.ndarray],
    learning_rate: float = 0.05,
) -> List[RTFSlot]:
    """Advance exactly the touched slots by one daily sample.

    The building block of :meth:`repro.core.store.ModelStore.refresh`:
    only slots named in ``day_samples`` are updated and returned;
    everything else is left to the caller's sharing strategy
    (copy-on-write in the store).

    Args:
        network: Road graph.
        current: Present parameters per slot (must cover every key of
            ``day_samples``).
        day_samples: Mapping slot → today's speed vector for that slot.
        learning_rate: Forgetting factor η.

    Returns:
        The refreshed :class:`RTFSlot` per touched slot, in mapping
        order.

    Raises:
        ModelError: When a sampled slot has no current parameters.
    """
    refreshed: List[RTFSlot] = []
    for slot, sample in day_samples.items():
        if slot not in current:
            raise ModelError(
                f"cannot refresh slot {slot}: no current parameters "
                f"(available: {sorted(current)})"
            )
        updater = OnlineRTFUpdater(network, current[slot], learning_rate)
        refreshed.append(updater.update(sample))
    return refreshed
