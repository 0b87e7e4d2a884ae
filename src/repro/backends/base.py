"""Estimator-backend protocol: the runtime lifecycle every backend obeys.

The serving stack was historically hardwired to the paper's RTF+GSP
pipeline.  This module defines the neutral contract that lifts it off:

* ``fit(history, slots) -> state`` — offline training on a
  :class:`~repro.traffic.history.SpeedHistory`;
* ``refresh(state, day_samples, learning_rate) -> state`` — absorb one
  day of speeds and return a **new** state blob (states are immutable
  values published copy-on-write through the
  :class:`~repro.core.store.ModelStore`, exactly like RTF slots);
* ``estimate(state, probes, slot, deadline) -> BackendEstimate`` — turn
  sparse probes into a full speed field plus provenance;
* ``estimate_batch(queries, gsp_config) -> outcomes`` — the hook the
  estimate stage calls once per backend per batch.  By default it
  answers each query through ``estimate``; a backend that can share
  work across a batch overrides it (the built-in ``rtf_gsp`` runs one
  batched GSP propagation).

State blobs must be plain picklable values (dataclasses over numpy
arrays and mappings) so snapshots can be serialized and shipped between
processes.  Anything expensive a backend derives *from* a state blob
(factorizations, sparse precision matrices) should go through
:meth:`EstimatorBackend.derived`, which the store wires to its
digest-keyed single-flight artifact cache on attach — the same cache
that holds the RTF Γ_R matrices and propagation arrays.

Concrete backends implement the underscored hooks (``_fit`` /
``_refresh`` / ``_estimate``); the public template methods centralize
tracing spans (``backend.fit`` / ``backend.refresh`` /
``backend.estimate``), the ``backend.*`` metric series, deadline
checks, probe validation, and the output-field contract (one finite
speed per road).
"""

from __future__ import annotations

import abc
import hashlib
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import BackendError, ReproError, wrap_internal
from repro.network.graph import TrafficNetwork
from repro.obs import DEFAULT_TIME_BUCKETS, get_metrics, get_tracer
from repro.traffic.history import SpeedHistory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.gsp import GSPConfig
    from repro.core.pipeline import Deadline, PreparedQuery

#: Signature of the digest-keyed derivation hook a ModelStore binds into
#: attached backends: ``(kind, digest, build) -> artifact``.
DeriveFn = Callable[[str, bytes, Callable[[], object]], object]


def arrays_digest(*parts: object) -> bytes:
    """Stable content digest over arrays and plain values.

    Backends key derived artifacts (factorizations, precision solves) by
    the digest of the state they derive from, mirroring
    :func:`~repro.core.rtf.params_signature` for RTF slots: a refreshed
    state gets a new digest, so it can never be served a stale artifact.
    """
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


@dataclass(frozen=True)
class BackendEstimate:
    """Full-network answer of one backend for one slot.

    Attributes:
        backend: Registry name of the backend that produced the field.
        slot: Global time slot the estimate is for.
        speeds: Estimated speed per road, shape ``(n_roads,)``.
        provenance: Backend-specific diagnostics (sweep counts,
            residuals, solver flags) for observability and debugging.
    """

    backend: str
    slot: int
    speeds: np.ndarray
    provenance: Mapping[str, object] = field(default_factory=dict)


class EstimatorBackend(abc.ABC):
    """Base class of every runtime estimator backend.

    A backend instance is the *stateless math* bound to one network;
    all model state lives in the immutable blobs it produces, which the
    :class:`~repro.core.store.ModelStore` versions alongside the RTF
    slots.  One instance may therefore serve estimates from several
    snapshot generations concurrently.
    """

    #: Registry name; concrete classes (or factories) override it.
    name: str = "base"

    def __init__(self, network: TrafficNetwork) -> None:
        self._network = network
        self._derive: Optional[DeriveFn] = None

    @property
    def network(self) -> TrafficNetwork:
        """The road graph this backend instance is bound to."""
        return self._network

    # -- artifact-cache wiring -----------------------------------------

    def bind_artifacts(self, derive: DeriveFn) -> None:
        """Adopt a digest-keyed derivation hook (store attach wiring).

        After binding, :meth:`derived` routes through the store's
        single-flight LRU artifact cache under ``backend.``-prefixed
        kinds, so expensive per-state derivations happen once per
        digest across all concurrent readers.
        """
        self._derive = derive

    def derived(
        self, kind: str, digest: bytes, build: Callable[[], object]
    ) -> object:
        """A derived artifact, cached by ``(kind, digest)`` when bound."""
        if self._derive is None:
            return build()
        return self._derive(f"{self.name}.{kind}", digest, build)

    # -- lifecycle template methods ------------------------------------

    def fit(
        self,
        history: SpeedHistory,
        slots: Optional[Sequence[int]] = None,
    ) -> object:
        """Offline stage: train on history, return the initial state blob.

        Args:
            history: Offline speed record.
            slots: Global slots to fit (default: all the history covers).
        """
        fitted = sorted(history.global_slots) if slots is None else [
            int(t) for t in slots
        ]
        if not fitted:
            raise BackendError(f"backend {self.name!r}: fit needs at least one slot")
        start = time.perf_counter()
        with get_tracer().span(
            "backend.fit", backend=self.name, slots=len(fitted)
        ):
            state = self._fit(history, fitted)
        self._count_fit(time.perf_counter() - start)
        return state

    def refresh(
        self,
        state: object,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float = 0.05,
    ) -> object:
        """Absorb one day of speeds, returning a **new** state blob.

        Slots the state never fitted are skipped (the streaming layer
        already counts them under ``stream.dropped``); the input state
        is never mutated.
        """
        if not 0.0 < learning_rate < 1.0:
            raise BackendError(
                f"backend {self.name!r}: learning_rate must be in (0, 1), "
                f"got {learning_rate}"
            )
        start = time.perf_counter()
        with get_tracer().span(
            "backend.refresh", backend=self.name, slots=len(day_samples)
        ):
            new_state = self._refresh(state, day_samples, learning_rate)
        self._count_refresh(time.perf_counter() - start)
        return new_state

    def estimate(
        self,
        state: object,
        probes: Mapping[int, float],
        slot: int,
        deadline: Optional["Deadline"] = None,
    ) -> BackendEstimate:
        """Online stage: sparse probes → full speed field + provenance.

        Raises:
            BackendError: On malformed probes or a field that violates
                the contract (wrong shape, non-finite speeds).
            QueryTimeoutError: When ``deadline`` has already expired.
            NotFittedError: When ``slot`` is not covered by ``state``.
        """
        if deadline is not None:
            deadline.check("backend")
        clean = self._check_probes(probes)
        start = time.perf_counter()
        with get_tracer().span(
            "backend.estimate", backend=self.name, slot=int(slot),
            probes=len(clean),
        ):
            speeds, provenance = self._estimate(state, clean, int(slot), deadline)
        field_kmh = np.asarray(speeds, dtype=float)
        n = self._network.n_roads
        if field_kmh.shape != (n,):
            raise BackendError(
                f"backend {self.name!r} returned a field of shape "
                f"{field_kmh.shape}, expected ({n},)"
            )
        if not np.all(np.isfinite(field_kmh)):
            raise BackendError(
                f"backend {self.name!r} returned non-finite speeds"
            )
        self._count_estimate(time.perf_counter() - start)
        return BackendEstimate(
            backend=self.name,
            slot=int(slot),
            speeds=field_kmh,
            provenance=dict(provenance),
        )

    def estimate_batch(
        self,
        queries: Sequence["PreparedQuery"],
        gsp_config: Optional["GSPConfig"] = None,
    ) -> List[Union[BackendEstimate, ReproError]]:
        """Estimate every probed query of one batch that names this backend.

        The estimate stage (``CrowdRTSE._estimate``) makes one call per
        backend per batch.  Each query carries its pinned snapshot (the
        state blob is ``snapshot.backend_state(request.backend)``), its
        probes, slot and deadline.  The default answers the queries one
        by one through :meth:`estimate`, with stray internal exceptions
        as ``InternalError("backend")``; backends that can share work
        across a batch override it.

        Args:
            queries: Probed queries, each a ``PreparedQuery``.
            gsp_config: The caller's propagation knobs, for GSP-based
                backends; others ignore it.

        Returns:
            One outcome per query, in input order: its
            :class:`BackendEstimate`, or the :class:`ReproError` that
            failed it.
        """
        outcomes: List[Union[BackendEstimate, ReproError]] = []
        for query in queries:
            request = query.request
            try:
                state = query.snapshot.backend_state(request.backend)
                with wrap_internal("backend"):
                    outcomes.append(
                        self.estimate(
                            state, query.probes, request.slot, query.deadline
                        )
                    )
            except ReproError as exc:
                outcomes.append(exc)
        return outcomes

    # -- hooks for concrete backends -----------------------------------

    @abc.abstractmethod
    def _fit(self, history: SpeedHistory, slots: Sequence[int]) -> object:
        """Train on ``history`` restricted to ``slots``; return state."""

    @abc.abstractmethod
    def _refresh(
        self,
        state: object,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float,
    ) -> object:
        """Advance ``state`` with one day of speeds; return a new state."""

    @abc.abstractmethod
    def _estimate(
        self,
        state: object,
        probes: Dict[int, float],
        slot: int,
        deadline: Optional["Deadline"],
    ) -> Tuple[np.ndarray, Mapping[str, object]]:
        """Estimate the full field; return ``(speeds, provenance)``."""

    # -- validation and metrics ----------------------------------------

    def _check_probes(self, probes: Mapping[int, float]) -> Dict[int, float]:
        n = self._network.n_roads
        clean: Dict[int, float] = {}
        for road, speed in probes.items():
            index = int(road)
            if not 0 <= index < n:
                raise BackendError(
                    f"backend {self.name!r}: probe road {road} outside "
                    f"[0, {n})"
                )
            value = float(speed)
            if not np.isfinite(value) or value <= 0.0:
                raise BackendError(
                    f"backend {self.name!r}: probe speed {speed!r} for road "
                    f"{road} must be finite and positive"
                )
            clean[index] = value
        return clean

    def _count_fit(self, seconds: float) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"backend": self.name}
        metrics.counter("backend.fits", labels).inc()
        metrics.histogram(
            "backend.fit_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(seconds)

    def _count_refresh(self, seconds: float) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"backend": self.name}
        metrics.counter("backend.refreshes", labels).inc()
        metrics.histogram(
            "backend.refresh_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(seconds)

    def _count_estimate(self, seconds: float) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"backend": self.name}
        metrics.counter("backend.estimates", labels).inc()
        metrics.histogram(
            "backend.estimate_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(seconds)
