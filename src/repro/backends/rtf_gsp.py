"""The paper's RTF+GSP estimator, built into every model store.

Every :class:`~repro.core.store.ModelStore` owns one
:class:`RTFGSPBackend` under the name ``rtf_gsp``: default requests and
shadow challengers reach the paper's estimator through the same
:class:`~repro.backends.base.EstimatorBackend` protocol as every other
backend.  Its state is no copy: each snapshot's ``rtf_gsp`` state is a
read-only view over that snapshot's own :class:`~repro.core.rtf.RTFSlot`
objects (:meth:`RTFGSPBackend.snapshot_state`), so it refreshes with
the slots in :meth:`ModelStore.refresh` and cannot be attached.

The backend's :class:`~repro.core.gsp.GSPEngine` is the system's one
propagation engine (``CrowdRTSE.gsp_engine``).  The batch hook
(:meth:`RTFGSPBackend.estimate_batch`) runs one
:meth:`GSPEngine.propagate_batch` over the whole batch, with each
query's propagation structure read from its pinned snapshot
(:meth:`~repro.core.store.ModelSnapshot.propagation_structure`, compiled
once per slot digest).  Every propagation starts from the prior means
μ, so the batch hook and the per-request
:meth:`~EstimatorBackend.estimate` template (shadow scoring, direct
calls) return the same field for the same probes.  A snapshot's own
state reads that snapshot's cached structure, and a state built
elsewhere (fitted, refreshed or unpickled) compiles the slot's
structure for that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.backends.base import BackendEstimate, EstimatorBackend
from repro.core.gsp import GSPConfig, GSPEngine, PropagationStructure
from repro.core.inference import fit_rtf
from repro.core.online_update import refresh_slots
from repro.core.rtf import RTFSlot
from repro.errors import BackendError, NotFittedError, ReproError, wrap_internal
from repro.network.graph import TrafficNetwork
from repro.traffic.history import SpeedHistory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Deadline, PreparedQuery


@dataclass(frozen=True)
class RTFGSPState:
    """Fitted RTF parameters per global slot (the backend state blob)."""

    params: Mapping[int, RTFSlot]


class _SlotView(Mapping[int, RTFSlot]):
    """Read-only, picklable slot → parameters view over a snapshot's map.

    ``structure`` is the snapshot's compiled-structure accessor
    (:meth:`~repro.core.store.ModelSnapshot.propagation_structure`); a
    pickle drops it, so an unpickled view compiles its own.
    """

    __slots__ = ("_slots", "structure")

    def __init__(
        self,
        slots: Mapping[int, RTFSlot],
        structure: Optional[Callable[[int], PropagationStructure]] = None,
    ) -> None:
        self._slots = slots
        self.structure = structure

    def __reduce__(self):
        return _SlotView, (dict(self._slots),)

    def __getitem__(self, slot: int) -> RTFSlot:
        return self._slots[slot]

    def __iter__(self) -> Iterator[int]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


class RTFGSPBackend(EstimatorBackend):
    """RTF model + GSP propagation behind the backend protocol."""

    name = "rtf_gsp"

    def __init__(self, network: TrafficNetwork) -> None:
        super().__init__(network)
        self._engine = GSPEngine(network)

    @property
    def engine(self) -> GSPEngine:
        """The propagation engine (its schedule cache serves every query)."""
        return self._engine

    @staticmethod
    def snapshot_state(
        params: Mapping[int, RTFSlot],
        structure: Optional[Callable[[int], PropagationStructure]] = None,
    ) -> RTFGSPState:
        """The state over a snapshot's own slot parameters (a view, no copy).

        ``structure`` maps a slot to the snapshot's compiled structure of
        those same parameters; :meth:`estimate` then reads it instead of
        compiling one per call.
        """
        return RTFGSPState(_SlotView(params, structure))

    def _fit(self, history: SpeedHistory, slots: Sequence[int]) -> RTFGSPState:
        model, _diagnostics = fit_rtf(self._network, history, slots)
        return RTFGSPState({t: model.slot(t) for t in model.slots})

    def _refresh(
        self,
        state: object,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float,
    ) -> RTFGSPState:
        rtf_state = self._state_of(state)
        current = dict(rtf_state.params)
        touched = {t: v for t, v in day_samples.items() if t in current}
        if not touched:
            return rtf_state
        for slot_params in refresh_slots(
            self._network, current, touched, learning_rate
        ):
            current[slot_params.slot] = slot_params
        return RTFGSPState(current)

    def _estimate(
        self,
        state: object,
        probes: Dict[int, float],
        slot: int,
        deadline: Optional["Deadline"],
    ) -> Tuple[np.ndarray, Mapping[str, object]]:
        params = self._params_of(state, slot)
        view = self._state_of(state).params
        cached = view.structure if isinstance(view, _SlotView) else None
        result = self._engine.propagate(
            params, probes, structure=cached(slot) if cached is not None else None
        )
        return result.speeds, {
            "sweeps": result.sweeps,
            "converged": result.converged,
        }

    def estimate_batch(
        self,
        queries: Sequence["PreparedQuery"],
        gsp_config: Optional[GSPConfig] = None,
    ) -> List[Union[BackendEstimate, ReproError]]:
        """One :meth:`GSPEngine.propagate_batch` over the whole batch.

        Every query whose slot parameters resolve joins the one call,
        with the structure its snapshot compiled for the slot.  The
        provenance of each estimate carries its
        ``GSPResult`` under ``"gsp"``.  A propagation failure fails
        every query in the call (stray internal exceptions arrive as
        ``InternalError("gsp")``).
        """
        outcomes: Dict[int, Union[BackendEstimate, ReproError]] = {}
        members: List[int] = []
        items: List[Tuple[RTFSlot, Mapping[int, float]]] = []
        for k, query in enumerate(queries):
            request = query.request
            try:
                if query.deadline is not None:
                    query.deadline.check("gsp")
                state = query.snapshot.backend_state(request.backend)
                items.append((self._params_of(state, request.slot), query.probes))
            except ReproError as exc:
                outcomes[k] = exc
                continue
            members.append(k)
        if not members:
            return [outcomes[k] for k in range(len(queries))]
        group = [queries[k] for k in members]
        try:
            with wrap_internal("gsp"):
                structures = [
                    query.snapshot.propagation_structure(query.request.slot)
                    for query in group
                ]
                results = self._engine.propagate_batch(
                    items, gsp_config, structures=structures
                )
        except ReproError as exc:
            return [outcomes.get(k, exc) for k in range(len(queries))]
        for k, query, gsp_result in zip(members, group, results):
            outcomes[k] = BackendEstimate(
                backend=self.name,
                slot=query.request.slot,
                speeds=gsp_result.speeds,
                provenance={
                    "sweeps": gsp_result.sweeps,
                    "converged": gsp_result.converged,
                    "gsp": gsp_result,
                },
            )
        return [outcomes[k] for k in range(len(queries))]

    def _params_of(self, state: object, slot: int) -> RTFSlot:
        rtf_state = self._state_of(state)
        params = rtf_state.params.get(slot)
        if params is None:
            raise NotFittedError(
                f"backend {self.name!r}: slot {slot} not fitted "
                f"(available: {sorted(rtf_state.params)})"
            )
        return params

    def _state_of(self, state: object) -> RTFGSPState:
        if not isinstance(state, RTFGSPState):
            raise BackendError(
                f"backend {self.name!r} expected RTFGSPState, got "
                f"{type(state).__name__}"
            )
        return state
