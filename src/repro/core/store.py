"""Versioned model lifecycle: snapshots, copy-on-write publishes, refresh.

The paper's offline/online split (Fig. 1) fits the RTF once and serves
it forever.  A deployed estimator instead absorbs new days continuously
while answering concurrent queries, which needs three properties a
plain :class:`~repro.core.rtf.RTFModel` cannot give:

* **Snapshot isolation** — a query pins one :class:`ModelSnapshot` for
  its whole OCS → probe → GSP span; a refresh published halfway through
  never mixes parameter generations inside one answer.
* **Copy-on-write publish** — refreshing ``k`` slots produces a new
  version whose untouched slots share the *same* parameter objects and
  derived artifacts as the previous version (``is``-shared, not copied),
  so version churn costs O(k), not O(S).
* **Lazy, digest-keyed derivation** — correlation matrices Γ_R,
  row-on-demand Γ_R views and GSP propagation structures are derived per
  slot on first use and cached by the content digest of the slot parameters
  (:func:`~repro.core.rtf.params_signature`).  This cache is the only
  owner of Γ_R: nothing builds a table up front, so a 288-slot model
  never materializes 288 dense ``(n, n)`` matrices it does not read, and
  a refreshed slot's new digest can never collide with its stale
  artifact.

:class:`ModelStore` is the mutable coordinator: it holds the current
snapshot behind a lock and publishes new versions atomically.
Everything handed to readers is immutable.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.errors import BackendError, ModelError, NotFittedError
from repro.core.correlation import (
    CorrelationRows,
    road_road_correlation_matrix,
)
from repro.core.gsp import PropagationStructure, build_propagation_structure
from repro.core.online_update import refresh_slots
from repro.core.rtf import RTFModel, RTFSlot, params_signature
from repro.network.graph import TrafficNetwork
from repro.obs import get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.backends.rtf_gsp import RTFGSPBackend

#: Artifact kinds the cache tracks (label values of ``store.artifacts.*``).
_KIND_CORRELATION = "correlation"
#: Row-on-demand Γ_R views (:class:`CorrelationRows`) — what OCS reads.
_KIND_CORRELATION_ROWS = "correlation_rows"
#: The compiled GSP :class:`PropagationStructure` — what GSP reads.
_KIND_PROPAGATION = "propagation"
#: Persisted propagation arrays seeded from a snapshot file: never
#: derived or counted, only read by the structure compile of their digest.
_KIND_PROPAGATION_ARRAYS = "propagation_arrays"
#: Warm-start GSP seed fields, keyed by slot-parameter digest.  Unlike
#: the derived kinds these are *written back* after a propagation and
#: explicitly dropped when a refresh replaces the slot (same atomic
#: publish), so a stale seed can never outlive its parameters.
_KIND_WARM_START = "warm_start"
#: Kinds a publish drops for each digest it supersedes.
_SUPERSEDED_KINDS = (
    _KIND_WARM_START, _KIND_CORRELATION, _KIND_CORRELATION_ROWS,
    _KIND_PROPAGATION, _KIND_PROPAGATION_ARRAYS,
)


@dataclass
class StoreStats:
    """Derivation/publish counters of one :class:`ModelStore`.

    Mirrors the ``store.*`` metric series so tests and drivers can
    assert derivation economy without enabling the metrics registry.
    """

    publishes: int = 0
    published_slots: int = 0
    refreshes: int = 0
    refreshed_slots: int = 0
    correlation_derivations: int = 0
    correlation_hits: int = 0
    #: GSP propagation structures compiled (one per slot digest while
    #: cached; from the file's arrays when a snapshot file seeded them).
    propagation_derivations: int = 0
    propagation_hits: int = 0
    backend_derivations: int = 0
    backend_hits: int = 0
    #: Γ_R source rows derived by :class:`CorrelationRows` views (one
    #: per source road, however many rows one Dijkstra batch held).
    correlation_row_derivations: int = 0
    #: θ-redundancy sets derived by :class:`CorrelationRows` views (one
    #: per slot digest and θ while the view keeps it).
    redundancy_derivations: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for logs and tests)."""
        return {
            "publishes": self.publishes,
            "published_slots": self.published_slots,
            "refreshes": self.refreshes,
            "refreshed_slots": self.refreshed_slots,
            "correlation_derivations": self.correlation_derivations,
            "correlation_hits": self.correlation_hits,
            "propagation_derivations": self.propagation_derivations,
            "propagation_hits": self.propagation_hits,
            "backend_derivations": self.backend_derivations,
            "backend_hits": self.backend_hits,
            "correlation_row_derivations": self.correlation_row_derivations,
            "redundancy_derivations": self.redundancy_derivations,
        }


class _ArtifactCache:
    """Digest-keyed LRU of derived artifacts, shared across snapshots.

    Keys are ``(kind, digest)``; values are whatever the deriving
    callable produced (a dense Γ_R matrix, a :class:`CorrelationRows`
    view, a :class:`PropagationStructure`).
    Because snapshots share one cache and untouched slots keep their
    digest across publishes, a refresh of ``k`` slots invalidates
    exactly ``k`` correlation entries — the rest keep hitting.

    Derivations are single-flight: concurrent readers asking for the
    same missing key block on one in-flight computation instead of
    deriving duplicates, which keeps the derivation counters exact even
    under concurrency.
    """

    def __init__(self, stats: StoreStats, max_entries: int = 512) -> None:
        if max_entries <= 0:
            raise ModelError("artifact cache capacity must be positive")
        self._entries: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()
        self._inflight: Dict[Tuple[str, bytes], threading.Event] = {}
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._stats = stats

    def get_or_derive(self, kind: str, digest: bytes, derive) -> object:
        """Return the cached artifact, deriving it exactly once on miss."""
        key = (kind, digest)
        metrics = get_metrics()
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._record_lookup(metrics, kind, hit=True)
                    return cached
                waiter = self._inflight.get(key)
                if waiter is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            waiter.wait()
        try:
            artifact = derive()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()
            raise
        with self._lock:
            self._entries[key] = artifact
            if len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
            self._inflight.pop(key, None)
            self._record_lookup(metrics, kind, hit=False)
        event.set()
        return artifact

    def seed(self, kind: str, digest: bytes, artifact: object) -> None:
        """Insert a precomputed artifact (no derivation counted)."""
        with self._lock:
            self._entries[(kind, digest)] = artifact
            self._entries.move_to_end((kind, digest))
            if len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def peek(self, kind: str, digest: bytes) -> Optional[object]:
        """The cached artifact, or ``None`` — never derives, no counters."""
        key = (kind, digest)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
            return cached

    def drop(self, kind: str, digest: bytes) -> bool:
        """Remove one entry; returns whether it was present."""
        with self._lock:
            return self._entries.pop((kind, digest), None) is not None

    def count_rows(self, rows: int) -> None:
        """Tally Γ_R rows a :class:`CorrelationRows` view derived."""
        with self._lock:
            self._record_rows(rows)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("store.correlation_row_derivations").inc(rows)

    def count_redundancy(self) -> None:
        """Tally one θ-redundancy set a :class:`CorrelationRows` view derived."""
        with self._lock:
            self._record_redundancy()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("store.redundancy_derivations").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _record_rows(self, rows: int) -> None:
        self._stats.correlation_row_derivations += rows

    def _record_redundancy(self) -> None:
        self._stats.redundancy_derivations += 1

    def _record_lookup(self, metrics, kind: str, hit: bool) -> None:
        if kind == _KIND_CORRELATION:
            if hit:
                self._stats.correlation_hits += 1
            else:
                self._stats.correlation_derivations += 1
        elif kind == _KIND_PROPAGATION:
            if hit:
                self._stats.propagation_hits += 1
            else:
                self._stats.propagation_derivations += 1
        elif kind == _KIND_CORRELATION_ROWS:
            # Creating a view derives nothing; its rows are tallied by
            # count_rows as they are derived.
            pass
        else:
            # Backend-owned artifacts (kinds prefixed "backend."): the
            # pluggable estimators route their derived factorizations /
            # precision matrices through this cache on attach.
            if hit:
                self._stats.backend_hits += 1
            else:
                self._stats.backend_derivations += 1
        if metrics.enabled:
            metrics.counter(
                "store.artifacts.lookups",
                {"kind": kind, "result": "hit" if hit else "miss"},
            ).inc()
            if not hit:
                metrics.counter("store.artifacts.derivations", {"kind": kind}).inc()


class ModelSnapshot:
    """One immutable published version of the RTF model.

    Readers obtain a snapshot from :meth:`ModelStore.current` and use it
    for a whole query; nothing reachable from it ever changes.  Derived
    artifacts (Γ_R matrices, propagation structures) are materialized lazily
    through the store's shared digest-keyed cache, so structurally
    shared slots reuse the previous version's work.
    """

    def __init__(
        self,
        version: int,
        network: TrafficNetwork,
        params: Mapping[int, RTFSlot],
        digests: Mapping[int, bytes],
        artifacts: _ArtifactCache,
        backend_states: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not params:
            raise ModelError("a snapshot needs at least one fitted slot")
        self._version = version
        self._network = network
        self._params = dict(params)
        self._digests = dict(digests)
        self._artifacts = artifacts
        self._backend_states: Dict[str, object] = dict(backend_states or {})
        self._lazy_lock = threading.Lock()
        self._model: Optional[RTFModel] = None

    # -- identity -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic version number (1 for the initial publish)."""
        return self._version

    @property
    def network(self) -> TrafficNetwork:
        """The road graph the snapshot is defined on."""
        return self._network

    @property
    def slots(self) -> Tuple[int, ...]:
        """Fitted global slot indices, sorted."""
        return tuple(sorted(self._params))

    def __contains__(self, slot: int) -> bool:
        return slot in self._params

    def __repr__(self) -> str:
        return (
            f"ModelSnapshot(version={self._version}, "
            f"n_roads={self._network.n_roads}, slots={list(self.slots)})"
        )

    # -- parameters -----------------------------------------------------

    def slot(self, slot: int) -> RTFSlot:
        """Parameters of one slot.

        Raises:
            NotFittedError: When the slot was never fitted.
        """
        try:
            return self._params[slot]
        except KeyError:
            raise NotFittedError(
                f"slot {slot} not fitted (available: {list(self.slots)})"
            ) from None

    def digest(self, slot: int) -> bytes:
        """Content digest of one slot's parameters (artifact cache key)."""
        try:
            return self._digests[slot]
        except KeyError:
            raise NotFittedError(
                f"slot {slot} not fitted (available: {list(self.slots)})"
            ) from None

    @property
    def model(self) -> RTFModel:
        """This version's parameters as a plain :class:`RTFModel` view."""
        with self._lazy_lock:
            if self._model is None:
                self._model = RTFModel(self._network, self._params.values())
            return self._model

    # -- backend state blobs --------------------------------------------

    @property
    def backend_names(self) -> Tuple[str, ...]:
        """Names of the estimator backends with state in this version.

        Always includes the built-in ``rtf_gsp``, whose state is a view
        over this version's own slot parameters.
        """
        return tuple(sorted(self._backend_states))

    def backend_state(self, name: str) -> object:
        """The immutable state blob of one backend in this version.

        Raises:
            BackendError: When no state for ``name`` was ever attached
                (see :meth:`ModelStore.attach_backend`).
        """
        try:
            return self._backend_states[name]
        except KeyError:
            raise BackendError(
                f"no state for backend {name!r} in snapshot "
                f"v{self._version} (attached: {list(self.backend_names)}); "
                f"attach it via CrowdRTSE.attach_backend first"
            ) from None

    # -- derived artifacts ----------------------------------------------

    def correlation_matrix(self, slot: int) -> np.ndarray:
        """Γ_R of one slot (Eq. 7–10), derived on first use.

        The matrix is keyed by the slot's parameter digest, so an
        untouched slot keeps hitting the artifact derived under an
        earlier version, and a refreshed slot can never be served its
        stale matrix.
        """
        params = self.slot(slot)
        return self._artifacts.get_or_derive(
            _KIND_CORRELATION,
            self.digest(slot),
            lambda: road_road_correlation_matrix(self._network, params.rho),
        )

    def correlation_rows(self, slot: int) -> CorrelationRows:
        """Γ_R of one slot as a row-on-demand view (what OCS reads).

        The view is cached per slot digest like :meth:`correlation_matrix`
        and derives only the source rows it is asked for, each once, and
        one θ-redundancy set per θ it is tested at (the view keeps a few
        θ); a publish that supersedes the digest drops all of it.  While
        the dense matrix of the same digest is cached, rows and
        redundancy tests are read from it instead, so a warmed slot
        derives nothing.
        """
        params = self.slot(slot)
        digest = self.digest(slot)
        artifacts = self._artifacts
        return artifacts.get_or_derive(
            _KIND_CORRELATION_ROWS,
            digest,
            lambda: CorrelationRows(
                self._network,
                params.rho,
                dense=lambda: artifacts.peek(_KIND_CORRELATION, digest),
                on_derive=artifacts.count_rows,
                on_redundancy=artifacts.count_redundancy,
            ),
        )

    def propagation_structure(self, slot: int) -> PropagationStructure:
        """The slot's compiled GSP structure, derived on first use.

        Same cache discipline as :meth:`correlation_matrix`: compiled
        once per slot digest (single-flight), from the arrays a snapshot
        file seeded for that digest when there are any, else from the
        slot's parameters.  The serving path hands it to
        :meth:`~repro.core.gsp.GSPEngine.propagate_batch`.
        """
        params = self.slot(slot)
        digest = self.digest(slot)
        artifacts = self._artifacts

        def compile_structure() -> PropagationStructure:
            arrays = artifacts.peek(_KIND_PROPAGATION_ARRAYS, digest)
            if arrays is None:
                arrays = params.propagation_arrays(self._network)
            return build_propagation_structure(self._network, arrays)

        return artifacts.get_or_derive(_KIND_PROPAGATION, digest, compile_structure)

    def propagation_arrays(
        self, slot: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The GSP precision arrays the slot's structure was compiled from."""
        return self.propagation_structure(slot).arrays

    # -- warm-start seed fields -----------------------------------------

    def warm_field(
        self, slot: int, observed_key: frozenset
    ) -> Tuple[Optional[np.ndarray], str]:
        """A previous converged GSP field usable as a warm-start seed.

        The seed is keyed by the slot's parameter digest and guarded by
        the observed set ``R^c`` it converged under: a refreshed slot's
        new digest misses (and the refresh *also* drops the old entry in
        the same publish — see :meth:`ModelStore._publish`), and a
        different crowdsourced selection falls back to cold start.

        Returns:
            ``(field, outcome)`` where ``outcome`` is ``"hit"``,
            ``"miss"`` (nothing cached) or ``"mismatch"`` (cached under a
            different ``R^c``); ``field`` is a read-only float64 array on
            hit, else ``None``.
        """
        entry = self._artifacts.peek(_KIND_WARM_START, self.digest(slot))
        if entry is None:
            return None, "miss"
        field, cached_key = entry  # type: ignore[misc]
        if cached_key != observed_key:
            return None, "mismatch"
        return field, "hit"

    def store_warm_field(
        self, slot: int, observed_key: frozenset, field: np.ndarray
    ) -> None:
        """Cache a converged GSP field as the slot's warm-start seed.

        Raises:
            ModelError: On a shape mismatch with the network.
        """
        arr = np.array(field, dtype=np.float64, copy=True)
        if arr.shape != (self._network.n_roads,):
            raise ModelError(
                f"warm field shape {arr.shape} does not match "
                f"{self._network.n_roads} roads"
            )
        arr.setflags(write=False)
        self._artifacts.seed(
            _KIND_WARM_START, self.digest(slot), (arr, frozenset(observed_key))
        )


class ModelStore:
    """Versioned holder of RTF parameters with atomic publishes.

    One store owns a sequence of immutable :class:`ModelSnapshot`
    versions over a fixed network.  :meth:`current` is a lock-protected
    pointer read; :meth:`publish` swaps in a new version built
    copy-on-write from the previous one; :meth:`refresh` wires
    :class:`~repro.core.online_update.OnlineRTFUpdater` end to end.

    Args:
        model: Initial parameters (version 1).
        max_artifacts: LRU capacity of the shared derived-artifact cache.
        digests: Precomputed per-slot content digests (as written by
            :mod:`repro.core.snapshot_io`); slots not covered are hashed
            here.  Trusting the file's digests skips a full pass over
            every parameter array on cold start — run
            :func:`repro.core.snapshot_io.verify_digests` when the file
            crossed a trust boundary.
    """

    def __init__(
        self,
        model: RTFModel,
        max_artifacts: int = 512,
        digests: Optional[Mapping[int, bytes]] = None,
    ) -> None:
        self.stats = StoreStats()
        self._network = model.network
        self._artifacts = _ArtifactCache(self.stats, max_artifacts)
        # The paper's estimator is built in: its state in each snapshot
        # is a view over that snapshot's own slots, so it refreshes with
        # them.  Imported here because repro.backends imports this module.
        from repro.backends.rtf_gsp import RTFGSPBackend

        self._native: "RTFGSPBackend" = RTFGSPBackend(self._network)
        # Every served backend by name: the built-in one plus the
        # attached ones (duck-typed: anything exposing refresh /
        # estimate / estimate_batch).  Their *state* lives in the
        # snapshots; the instances here are the stateless math that
        # estimates from it and advances it on refresh.
        self._backends: Dict[str, object] = {self._native.name: self._native}
        self._lock = threading.RLock()
        self._created_monotonic = time.monotonic()
        params = {t: model.slot(t) for t in model.slots}
        given = dict(digests) if digests is not None else {}
        digest_map = {
            t: given.get(t) or params_signature(p) for t, p in params.items()
        }
        self._current = self._new_snapshot(1, params, digest_map, {})
        self._count_publish(len(params))

    @classmethod
    def from_slots(
        cls,
        network: TrafficNetwork,
        slots: Iterable[RTFSlot],
        max_artifacts: int = 512,
    ) -> "ModelStore":
        """Build a store directly from per-slot parameters."""
        return cls(RTFModel(network, slots), max_artifacts)

    @property
    def network(self) -> TrafficNetwork:
        """The road graph every version is defined on."""
        return self._network

    @property
    def version(self) -> int:
        """Version number of the current snapshot."""
        return self.current().version

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this store was constructed (monotonic clock)."""
        return time.monotonic() - self._created_monotonic

    def health_info(self) -> Dict[str, object]:
        """Static facts the health layer reports on ``/healthz``.

        The dict is one consistent read: version and publish/refresh
        counters come from the same lock hold, so a concurrent publish
        cannot show a new version with the old counters.
        """
        with self._lock:
            return {
                "store_version": self._current.version,
                "uptime_seconds": self.uptime_seconds,
                "slots": len(self._current.slots),
                "roads": self._network.n_roads,
                "publishes": self.stats.publishes,
                "refreshes": self.stats.refreshes,
            }

    def current(self) -> ModelSnapshot:
        """The current published snapshot (atomic pointer read).

        Readers must call this **once** per query and use the returned
        snapshot throughout — that is what makes a concurrent publish
        invisible to an in-flight answer.
        """
        with self._lock:
            return self._current

    @contextlib.contextmanager
    def pinned(self):
        """Pin the current snapshot for a multi-request serving span.

        The serving layer wraps each coalesced batch in this context so
        every request of the batch — OCS, probing, and the shared GSP
        propagation — reads one model version, and the
        ``store.pinned_readers`` gauge shows how many such spans are
        live while a hot :meth:`refresh` publishes underneath them.

        Yields:
            The pinned :class:`ModelSnapshot`.
        """
        snapshot = self.current()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge("store.pinned_readers").inc()
        try:
            yield snapshot
        finally:
            if metrics.enabled:
                metrics.gauge("store.pinned_readers").dec()

    # -- publishing -----------------------------------------------------

    def publish(self, new_slots: Iterable[RTFSlot]) -> ModelSnapshot:
        """Atomically publish a new version with the given slots replaced.

        Copy-on-write: only the passed slots get new parameter objects
        and digests; every other slot of the new snapshot shares the
        previous version's :class:`RTFSlot` instances (``is``-identity),
        so their cached artifacts and GSP compilations stay warm.  Slots
        not previously fitted are added.

        Returns:
            The freshly published :class:`ModelSnapshot`.
        """
        replacements = list(new_slots)
        if not replacements:
            raise ModelError("publish needs at least one slot")
        return self._publish(replacements, backend_states=None)

    def _publish(
        self,
        replacements: "list[RTFSlot]",
        backend_states: Optional[Mapping[str, object]],
    ) -> ModelSnapshot:
        """Shared publish path: validate, swap the snapshot, count.

        ``backend_states=None`` carries the previous version's blobs
        forward unchanged (plain slot publish); a mapping replaces them
        atomically with the slot swap (refresh / attach).  Either way the
        built-in backend's state becomes a view over the new slots.
        """
        seen = set()
        for slot_params in replacements:
            slot_params.check_against(self._network)
            if slot_params.slot in seen:
                raise ModelError(
                    f"duplicate parameters for slot {slot_params.slot} in publish"
                )
            seen.add(slot_params.slot)
        with get_tracer().span("store.publish", slots=len(replacements)) as span:
            with self._lock:
                previous = self._current
                params = dict(previous._params)
                digests = dict(previous._digests)
                stale_digests = []
                for slot_params in replacements:
                    old_digest = digests.get(slot_params.slot)
                    params[slot_params.slot] = slot_params
                    new_digest = params_signature(slot_params)
                    digests[slot_params.slot] = new_digest
                    if old_digest is not None and old_digest != new_digest:
                        stale_digests.append(old_digest)
                snapshot = self._new_snapshot(
                    previous.version + 1,
                    params,
                    digests,
                    previous._backend_states
                    if backend_states is None
                    else backend_states,
                )
                self._current = snapshot
                # Same atomic publish: a refreshed slot's warm-start seed
                # is dropped before any reader can observe the new
                # version.  A reader still pinned on the old snapshot at
                # worst cold-starts (miss); a reader of the new version
                # can never be seeded from pre-refresh parameters.  The
                # superseded Γ_R (dense and row view) and propagation
                # structure/arrays go too, so the LRU does not carry one
                # per refresh; a reader pinned on the old version just
                # re-derives what it reads.
                for stale in stale_digests:
                    for kind in _SUPERSEDED_KINDS:
                        self._artifacts.drop(kind, stale)
            span.set_attr("version", snapshot.version)
        self._count_publish(len(replacements))
        return snapshot

    def _new_snapshot(
        self,
        version: int,
        params: Dict[int, RTFSlot],
        digests: Dict[int, bytes],
        backend_states: Mapping[str, object],
    ) -> ModelSnapshot:
        """A version whose built-in backend state views its own slots.

        The state also reaches the snapshot's compiled propagation
        structures, so a direct :meth:`RTFGSPBackend.estimate` on it
        compiles nothing the snapshot has already compiled.  (That makes
        a reference cycle, snapshot → state → snapshot, which the cyclic
        garbage collector frees.)
        """
        snapshot = ModelSnapshot(
            version, self._network, params, digests, self._artifacts,
            backend_states=backend_states,
        )
        snapshot._backend_states[self._native.name] = self._native.snapshot_state(
            params, snapshot.propagation_structure
        )
        return snapshot

    def refresh(
        self,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float = 0.05,
    ) -> ModelSnapshot:
        """Absorb one day of speeds into the touched slots and publish.

        For each ``slot → sample`` pair the slot's moments are advanced
        with :class:`~repro.core.online_update.OnlineRTFUpdater`
        (exponential forgetting) and the result published as one new
        version.  Exactly ``len(day_samples)`` slots change digest;
        everything else is structurally shared with the previous
        version.

        Args:
            day_samples: Today's per-road speed vector per global slot;
                every key must already be fitted.
            learning_rate: Forgetting factor η in (0, 1).

        Returns:
            The freshly published :class:`ModelSnapshot`.

        Raises:
            NotFittedError: When a key was never fitted.
            ModelError: On an empty mapping or malformed samples.
        """
        if not day_samples:
            raise ModelError("refresh needs at least one slot sample")
        with get_tracer().span("store.refresh", slots=len(day_samples)):
            # Hold the lock across read-modify-write so two concurrent
            # refreshes cannot base themselves on the same version and
            # silently drop each other's updates.  Attached backend
            # states advance inside the same hold and publish with the
            # RTF slots in one version — a reader never sees RTF
            # parameters from day d next to a backend state from d-1.
            # The built-in backend's state is the slots themselves.
            with self._lock:
                snapshot = self.current()
                for slot in day_samples:
                    snapshot.slot(slot)  # NotFittedError on unknown slots
                refreshed = refresh_slots(
                    self._network, snapshot._params, day_samples, learning_rate
                )
                states = dict(snapshot._backend_states)
                for name, backend in self._backends.items():
                    if backend is not self._native:
                        states[name] = backend.refresh(  # type: ignore[attr-defined]
                            states[name], day_samples, learning_rate
                        )
                published = self._publish(refreshed, states)
                self.stats.refreshes += 1
                self.stats.refreshed_slots += len(refreshed)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("store.refreshes").inc()
            metrics.counter("store.refreshed_slots").inc(len(refreshed))
        return published

    # -- estimator backends ---------------------------------------------

    def attach_backend(
        self, name: str, backend: object, state: object
    ) -> ModelSnapshot:
        """Attach a challenger estimator backend's fitted state.

        Publishes a new version whose snapshot carries ``state`` under
        ``name``; every subsequent :meth:`refresh` advances the blob via
        ``backend.refresh(state, day_samples, learning_rate)`` and
        publishes it atomically with the RTF slots.  The backend object
        itself is stateless math — it is kept on the store (not the
        snapshot) purely to drive refreshes and estimates.

        The built-in ``rtf_gsp`` backend needs no attach: every store
        serves it, with each snapshot's own slots as its state.

        The store duck-types ``backend`` (the protocol lives in
        :mod:`repro.backends`, which depends on this module): anything
        exposing ``refresh``/``estimate``/``estimate_batch`` qualifies,
        and a ``bind_artifacts`` hook, when present, is wired to the
        store's digest-keyed artifact cache under ``backend.``-prefixed
        kinds.

        Returns:
            The freshly published :class:`ModelSnapshot`.

        Raises:
            BackendError: When ``name`` is the built-in backend, or
                ``backend`` lacks the protocol methods.
        """
        if not name or not isinstance(name, str):
            raise BackendError(f"invalid backend name {name!r}")
        if name == self.builtin_backend:
            raise BackendError(
                f"backend {name!r} is built into every store: its state is "
                f"each snapshot's own RTF slots, refreshed with them, so it "
                f"cannot be attached"
            )
        for attr in ("refresh", "estimate", "estimate_batch"):
            if not callable(getattr(backend, attr, None)):
                raise BackendError(
                    f"backend {name!r} does not implement {attr}(); "
                    f"estimator backends must follow the "
                    f"fit/refresh/estimate protocol"
                )
        bind = getattr(backend, "bind_artifacts", None)
        if callable(bind):
            bind(self._derive_backend_artifact)
        with get_tracer().span("store.attach_backend", backend=name):
            with self._lock:
                states = dict(self._current._backend_states)
                states[name] = state
                self._backends[name] = backend
                return self._publish([], states)

    def backend_instance(self, name: str) -> object:
        """The backend object serving ``name`` (built in or attached).

        Raises:
            BackendError: When ``name`` was never attached.
        """
        with self._lock:
            backend = self._backends.get(name)
        if backend is None:
            raise BackendError(
                f"backend {name!r} is not attached to this store "
                f"(attached: {sorted(self._backends)})"
            )
        return backend

    @property
    def builtin_backend(self) -> str:
        """Name of the estimator built into every snapshot (``rtf_gsp``).

        It is served without an attach, and :meth:`attach_backend`
        rejects its name.
        """
        return self._native.name

    @property
    def attached_backends(self) -> Tuple[str, ...]:
        """Names of the served backends (built-in ``rtf_gsp`` too), sorted."""
        with self._lock:
            return tuple(sorted(self._backends))

    def _derive_backend_artifact(self, kind: str, digest: bytes, derive):
        """Digest-keyed derivation hook handed to attached backends."""
        return self._artifacts.get_or_derive(f"backend.{kind}", digest, derive)

    # -- cache plumbing -------------------------------------------------

    def seed_propagation(
        self,
        digest: bytes,
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Warm the artifact cache with precomputed propagation arrays.

        Used by :func:`repro.core.snapshot_io.load_store`: the digest's
        propagation structure is then compiled from the persisted arrays
        (typically mmap views) instead of re-deriving them from μ/σ/ρ.
        """
        if len(arrays) != 4:
            raise ModelError(
                f"propagation artifact needs 4 arrays, got {len(arrays)}"
            )
        n, m = self._network.n_roads, self._network.n_edges
        shapes = tuple(a.shape for a in arrays)
        if shapes != ((n,), (n,), (m,), (m,)):
            raise ModelError(
                f"propagation array shapes {shapes} do not match "
                f"{n} roads / {m} edges"
            )
        self._artifacts.seed(_KIND_PROPAGATION_ARRAYS, digest, tuple(arrays))

    def _count_publish(self, n_slots: int) -> None:
        # Under the store RLock: publish() calls this after releasing its
        # own critical section, so without the lock two concurrent
        # publishes can tear stats.publishes += 1 (lost update) and set
        # the version gauge from a stale snapshot.
        with self._lock:
            self.stats.publishes += 1
            self.stats.published_slots += n_slots
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("store.publishes").inc()
                metrics.counter("store.published_slots").inc(n_slots)
                metrics.gauge("store.version").set(self._current.version)
