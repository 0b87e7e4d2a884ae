"""Offline baselines as backends: one adapter around a field function.

The baselines in :mod:`repro.baselines` (Per, LASSO, GRMC, …) are pure
field functions of the query slot's history window and the probes
(:data:`~repro.baselines.base.FieldFn`).  This adapter gives them the
runtime lifecycle:

* ``fit`` copies each fitted slot's ``(n_days, n_roads)`` sample matrix
  into the state blob (bounded by ``window``);
* ``refresh`` appends the day's speed row to every touched slot and
  trims to the window, so the baselines track the live distribution the
  way the RTF moments do;
* ``estimate`` calls the function on the slot's window and the probes
  the template has already validated.

The blob is a plain mapping of float arrays — picklable, digestable,
and cheap to copy-on-write (only touched slots get new arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import EstimatorBackend
from repro.baselines.base import FieldFn
from repro.errors import BackendError, NotFittedError
from repro.network.graph import TrafficNetwork
from repro.traffic.history import SpeedHistory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Deadline


@dataclass(frozen=True)
class OfflineState:
    """Rolling per-slot history windows (the backend state blob)."""

    slot_samples: Mapping[int, np.ndarray]
    window: int


class OfflineBackend(EstimatorBackend):
    """Serves one baseline field function through the backend protocol."""

    def __init__(
        self,
        network: TrafficNetwork,
        field_fn: FieldFn,
        name: str,
        window: int = 64,
    ) -> None:
        super().__init__(network)
        if window < 1:
            raise BackendError(
                f"backend {name!r}: window must be >= 1, got {window}"
            )
        self.name = name
        self._field_fn = field_fn
        self._window = int(window)

    def _fit(self, history: SpeedHistory, slots: Sequence[int]) -> OfflineState:
        n = self._network.n_roads
        samples: Dict[int, np.ndarray] = {}
        for slot in slots:
            matrix = np.array(history.slot_samples(slot), dtype=float, copy=True)
            if matrix.shape[1] != n:
                raise BackendError(
                    f"backend {self.name!r}: history covers {matrix.shape[1]} "
                    f"roads, network has {n}"
                )
            if matrix.shape[0] > self._window:
                matrix = matrix[-self._window:]
            samples[int(slot)] = matrix
        return OfflineState(samples, self._window)

    def _refresh(
        self,
        state: object,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float,
    ) -> OfflineState:
        offline = self._state_of(state)
        updated = dict(offline.slot_samples)
        for slot, sample in day_samples.items():
            base = updated.get(int(slot))
            if base is None:
                # Unfitted slot: the streaming layer already counts the
                # drop; skipping here matches ModelStore semantics.
                continue
            row = np.asarray(sample, dtype=float).reshape(1, -1)
            if row.shape[1] != base.shape[1]:
                raise BackendError(
                    f"backend {self.name!r}: day sample for slot {slot} has "
                    f"{row.shape[1]} roads, state has {base.shape[1]}"
                )
            stacked = np.vstack([base, row])
            if stacked.shape[0] > offline.window:
                stacked = stacked[-offline.window:]
            updated[int(slot)] = stacked
        return OfflineState(updated, offline.window)

    def _estimate(
        self,
        state: object,
        probes: Dict[int, float],
        slot: int,
        deadline: Optional["Deadline"],
    ) -> Tuple[np.ndarray, Mapping[str, object]]:
        offline = self._state_of(state)
        samples = offline.slot_samples.get(slot)
        if samples is None:
            raise NotFittedError(
                f"backend {self.name!r}: slot {slot} not fitted "
                f"(available: {sorted(offline.slot_samples)})"
            )
        speeds = self._field_fn(self._network, samples, probes)
        return np.asarray(speeds, dtype=float), {
            "history_days": int(samples.shape[0]),
        }

    def _state_of(self, state: object) -> OfflineState:
        if not isinstance(state, OfflineState):
            raise BackendError(
                f"backend {self.name!r} expected OfflineState, got "
                f"{type(state).__name__}"
            )
        return state
