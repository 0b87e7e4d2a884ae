"""The CrowdRTSE facade — the hybrid offline/online workflow of Fig. 1.

Offline, :meth:`CrowdRTSE.fit` trains the RTF model from history and
publishes it as version 1 of a :class:`~repro.core.store.ModelStore`.
Online, :meth:`answer_query` runs the three-step loop — OCS selects the
crowdsourced roads, the crowd market probes them, and GSP propagates the
probes into a full-network speed field — against **one pinned
snapshot**, so a concurrent :meth:`refresh` (which publishes a new
model version copy-on-write) can never mix parameter generations inside
a single answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    BackendError,
    ModelError,
    QueryTimeoutError,
    ReproError,
    SelectionError,
    wrap_internal,
)
from repro.obs import DEFAULT_TIME_BUCKETS, get_metrics, get_tracer
from repro.core.gsp import GSPConfig, GSPEngine, GSPResult
from repro.core.request import EstimationRequest
from repro.core.inference import InferenceDiagnostics, RTFInferenceConfig, fit_rtf
from repro.core.ocs import (
    OCSInstance,
    OCSResult,
    hybrid_greedy,
    objective_greedy,
    random_selection,
    ratio_greedy,
    trivial_solution,
)
from repro.core.rtf import RTFModel
from repro.core.store import ModelSnapshot, ModelStore
from repro.crowd.market import BudgetLedger, CrowdMarket, ProbeReceipt, TruthOracle
from repro.network.graph import TrafficNetwork
from repro.traffic.history import SpeedHistory

if TYPE_CHECKING:  # pragma: no cover - circular-import guard (typing only)
    from repro.backends.base import BackendEstimate, EstimatorBackend

#: Named OCS solvers accepted by :meth:`CrowdRTSE.answer_query`.
SELECTORS: Mapping[str, Callable[[OCSInstance], OCSResult]] = {
    "hybrid": hybrid_greedy,
    "ratio": ratio_greedy,
    "objective": objective_greedy,
}


@dataclass(frozen=True)
class Deadline:
    """A per-request wall-clock budget over the OCS → probe → GSP span.

    Built from a relative budget with :meth:`after`; stages call
    :meth:`check` at their boundary and get a typed
    :class:`~repro.errors.QueryTimeoutError` once the budget is spent.
    Times are ``time.monotonic`` based, so a system clock step cannot
    expire (or resurrect) in-flight requests.
    """

    expires_at: float
    budget_seconds: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from now."""
        return cls(time.monotonic() + float(seconds), float(seconds))

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`QueryTimeoutError` when expired at ``stage``."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise QueryTimeoutError(
                stage, self.budget_seconds - remaining, self.budget_seconds
            )


@dataclass(frozen=True)
class QueryResult:
    """Answer to one realtime traffic-speed query.

    Attributes:
        queried: Queried road indices, in request order.
        estimates_kmh: Estimated speed per queried road, aligned with
            ``queried``.
        full_field_kmh: Inferred speed for every road in the network.
        selection: The OCS outcome (which roads were crowdsourced).
        probes: Aggregated crowd answers per crowdsourced road.
        receipts: Detailed probe receipts (answers, payments).
        gsp: The propagation diagnostics (``None`` when a non-GSP
            estimator backend produced the field; its diagnostics live
            in the backend's provenance instead).
        budget_spent: Units actually paid.
        model_version: Version of the :class:`ModelSnapshot` the whole
            answer was served from (0 for results assembled outside a
            store, e.g. in unit tests building the dataclass directly).
        backend: Registry name of the estimator backend that produced
            the field (``"rtf_gsp"`` for the paper's default pipeline).
    """

    queried: Tuple[int, ...]
    estimates_kmh: np.ndarray
    full_field_kmh: np.ndarray
    selection: OCSResult
    probes: Dict[int, float]
    receipts: Tuple[ProbeReceipt, ...]
    gsp: Optional[GSPResult]
    budget_spent: int
    model_version: int = 0
    backend: str = "rtf_gsp"

    def estimate_of(self, road_index: int) -> float:
        """Estimated speed of one queried road."""
        try:
            pos = self.queried.index(road_index)
        except ValueError:
            raise ModelError(f"road {road_index} was not part of the query") from None
        return float(self.estimates_kmh[pos])


@dataclass(frozen=True)
class PreparedQuery:
    """A query after OCS + probing, before the estimate stage.

    Intermediate product of :meth:`CrowdRTSE._select_and_probe`, consumed
    by :meth:`CrowdRTSE._estimate`.  ``request`` is bound (it carries its
    market and truth oracle); ``started_s`` is the ``perf_counter``
    reading at which selection began.
    """

    request: EstimationRequest
    selection: OCSResult
    probes: Dict[int, float]
    receipts: Tuple[ProbeReceipt, ...]
    ledger: BudgetLedger
    snapshot: ModelSnapshot
    deadline: Optional[Deadline]
    started_s: float


class CrowdRTSE:
    """End-to-end CrowdRTSE system (paper Fig. 1).

    Build it offline with :meth:`fit` (or hand it an existing
    :class:`~repro.core.store.ModelStore`), then answer queries online
    with :meth:`answer_query` and absorb new days with :meth:`refresh`.
    The engine itself is stateless between queries: all model state
    lives in the store's immutable snapshots, and each query pins one
    snapshot for its whole OCS → probe → GSP span.

    The ``CrowdRTSE(network, model)`` form is accepted too: the model
    becomes version 1 of an internal store.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        model: Optional[RTFModel] = None,
        *,
        store: Optional[ModelStore] = None,
    ) -> None:
        if store is not None:
            if model is not None:
                raise ModelError("pass either a store or a model, not both")
            if store.network is not network and store.network != network:
                raise ModelError("store belongs to a different network")
            self._store = store
        else:
            if model is None:
                raise ModelError("CrowdRTSE needs a model or a store")
            if model.network is not network and model.network != network:
                raise ModelError("model was fitted on a different network")
            self._store = ModelStore(model)
        self._network = network
        self._fit_diagnostics: Optional[Dict[int, InferenceDiagnostics]] = None

    @classmethod
    def fit(
        cls,
        network: TrafficNetwork,
        history: SpeedHistory,
        slots: Optional[Sequence[int]] = None,
        inference_config: Optional[RTFInferenceConfig] = None,
    ) -> "CrowdRTSE":
        """Offline stage: train RTF and publish it as store version 1.

        Correlation matrices Γ_R are **not** materialized here; they
        are derived lazily per slot on first use, keyed by the
        slot's parameter digest (see
        :meth:`~repro.core.store.ModelSnapshot.correlation_matrix`).

        Args:
            network: Road graph.
            history: Offline speed record.
            slots: Slots to fit (default: all covered by the history).
            inference_config: Alg. 1 knobs.
        """
        model, diagnostics = fit_rtf(network, history, slots, inference_config)
        system = cls(network, store=ModelStore(model))
        system._fit_diagnostics = dict(diagnostics)
        return system

    @property
    def network(self) -> TrafficNetwork:
        """The road graph."""
        return self._network

    @property
    def store(self) -> ModelStore:
        """The versioned model store serving this system."""
        return self._store

    @property
    def model(self) -> RTFModel:
        """The current snapshot's parameters as an :class:`RTFModel` view."""
        return self._store.current().model

    @property
    def fit_diagnostics(self) -> Optional[Dict[int, InferenceDiagnostics]]:
        """Per-slot Alg. 1 convergence diagnostics from :meth:`fit`.

        ``None`` when the system was constructed from an existing model
        or store rather than fitted here.
        """
        return self._fit_diagnostics

    @property
    def gsp_engine(self) -> GSPEngine:
        """The propagation engine of the store's built-in ``rtf_gsp`` backend.

        Every query shares its schedule compilations; the per-slot
        structures it reads come from the pinned snapshot.
        """
        from repro.backends.registry import DEFAULT_BACKEND

        return self._store.backend_instance(DEFAULT_BACKEND).engine  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def refresh(
        self,
        day_samples: Mapping[int, np.ndarray],
        learning_rate: float = 0.05,
    ) -> ModelSnapshot:
        """Absorb one day of speeds and publish a new model version.

        End-to-end wiring of
        :class:`~repro.core.online_update.OnlineRTFUpdater`: moments of
        the touched slots are advanced, correlations re-derive lazily
        for exactly those slots (new digests), and GSP structure caches
        stay warm for every untouched slot.  Queries running
        concurrently keep their pinned snapshot; queries started after
        this call see the new version.

        Args:
            day_samples: Today's per-road speed vector per global slot.
            learning_rate: Forgetting factor η in (0, 1).

        Returns:
            The freshly published snapshot.
        """
        return self._store.refresh(day_samples, learning_rate)

    # ------------------------------------------------------------------
    # Estimator backends
    # ------------------------------------------------------------------

    def attach_backend(
        self,
        name: str,
        history: Optional[SpeedHistory] = None,
        state: Optional[object] = None,
        backend: Optional["EstimatorBackend"] = None,
    ) -> ModelSnapshot:
        """Fit (or adopt) an estimator backend and attach it to the store.

        After attaching, :meth:`answer_query` accepts requests with
        ``backend=name``, :meth:`refresh` advances the backend's state
        blob alongside the RTF slots, and the serving layer can select
        (or shadow-score) the backend per request.  The built-in
        ``rtf_gsp`` is served without an attach and cannot be attached
        (:class:`~repro.errors.BackendError`).

        Args:
            name: Registry name (see
                :func:`repro.backends.available_backends`).
            history: Offline record to fit the initial state from; the
                backend fits exactly the store's currently fitted slots.
            state: Pre-fitted state blob to adopt instead of fitting.
            backend: Pre-built backend instance (default: instantiate
                from the registry for this system's network).

        Returns:
            The freshly published :class:`ModelSnapshot` carrying the
            backend state.
        """
        # Imported lazily: repro.backends imports core modules for its
        # adapters, so a module-level import here would be circular.
        from repro.backends.registry import create_backend

        if name == self._store.builtin_backend:
            # Checked before the fit below, which would be wasted work.
            raise BackendError(f"backend {name!r} is built into every store")
        if backend is None:
            backend = create_backend(name, self._network)
        if state is None:
            if history is None:
                raise ModelError(
                    f"attach_backend({name!r}) needs a history to fit from "
                    f"or a pre-fitted state"
                )
            state = backend.fit(history, slots=self._store.current().slots)
        return self._store.attach_backend(name, backend, state)

    def estimate_with_backend(
        self,
        name: str,
        probes: Mapping[int, float],
        slot: int,
        snapshot: Optional[ModelSnapshot] = None,
        deadline: Optional[Deadline] = None,
    ) -> "BackendEstimate":
        """Run one backend's per-request estimator on gathered probes.

        Any served backend qualifies: the built-in ``rtf_gsp`` (GSP on
        the snapshot's own slots) or an attached one.  The
        serving layer's shadow mode calls it to re-score an answered
        query's probes.

        Args:
            name: Backend name (built in or attached).
            probes: Probed speeds keyed by road index.
            slot: Global time slot.
            snapshot: Pinned model version (defaults to current).
            deadline: Optional wall-clock budget.

        Returns:
            The backend's ``BackendEstimate`` (field + provenance).
        """
        snap = snapshot if snapshot is not None else self._store.current()
        backend = self._store.backend_instance(name)
        state = snap.backend_state(name)
        estimate = getattr(backend, "estimate")
        with wrap_internal("backend"):
            return estimate(state, probes, int(slot), deadline)

    # ------------------------------------------------------------------
    # Online stage
    # ------------------------------------------------------------------

    def build_ocs_instance(
        self,
        queried: Sequence[int],
        slot: int,
        budget: float,
        market: CrowdMarket,
        theta: float = 0.92,
        snapshot: Optional[ModelSnapshot] = None,
    ) -> OCSInstance:
        """Assemble the OCS problem for one query.

        Candidates are the roads that currently have workers; costs come
        from the market's cost model; σ weights from the RTF slot.  The
        correlations are the slot's row-on-demand Γ_R view
        (:meth:`~repro.core.store.ModelSnapshot.correlation_rows`), with
        the ``R^q`` rows fetched up front in one batch.

        Args:
            snapshot: Pinned model version to read from (defaults to the
                store's current snapshot).
        """
        snap = snapshot if snapshot is not None else self._store.current()
        candidates = market.candidate_roads()
        if not candidates:
            raise SelectionError("no roads currently have workers (R^w is empty)")
        params = snap.slot(slot)
        queried = tuple(int(q) for q in queried)
        corr = snap.correlation_rows(slot)
        corr.rows(queried)
        return OCSInstance(
            queried=queried,
            candidates=candidates,
            costs=market.cost_model.costs_of(candidates).astype(float),
            budget=float(budget),
            theta=theta,
            corr=corr,
            sigma=params.sigma,
        )

    def _select_and_probe(
        self,
        request: EstimationRequest,
        snapshot: ModelSnapshot,
        deadline: Optional[Deadline] = None,
    ) -> "PreparedQuery":
        """OCS selection + crowd probing against one pinned snapshot.

        The first two stages of the Fig. 1 online loop, shared by
        :meth:`answer_query` and the serving layer (which runs this per
        distinct request, then hands the whole batch to
        :meth:`_estimate`).  ``request`` must already carry its market
        and truth oracle.  Remark 2's closed-form optima answer the
        instance when they apply (θ = 1, unit costs, over-adequate
        budget or few queried roads); otherwise the request's selector
        runs.  Deadlines are checked at each stage boundary; stray
        internal exceptions are wrapped per the docs/API.md exception
        contract.
        """
        assert request.market is not None and request.truth is not None
        started_s = time.perf_counter()
        selector = request.selector
        tracer = get_tracer()
        if deadline is not None:
            deadline.check("ocs")
        with wrap_internal("ocs"):
            instance = self.build_ocs_instance(
                request.queried, request.slot, request.budget,
                request.market, request.theta, snapshot=snapshot,
            )
            with tracer.span("ocs.select", selector=selector) as select_span:
                selection: Optional[OCSResult] = None
                if selector != "random":
                    selection = trivial_solution(instance)
                if selection is None:
                    if selector == "random":
                        selection = random_selection(instance, request.rng)
                    else:
                        try:
                            solve = SELECTORS[selector]
                        except KeyError:
                            raise SelectionError(
                                f"unknown selector {selector!r}; choose from "
                                f"{sorted(SELECTORS) + ['random']}"
                            ) from None
                        selection = solve(instance)
                select_span.set_attr("algorithm", selection.algorithm)
                select_span.set_attr("selected", len(selection.selected))

        if deadline is not None:
            deadline.check("probe")
        ledger = BudgetLedger(request.budget)
        with wrap_internal("probe"):
            probes, receipts = request.market.probe(
                selection.selected, request.truth, ledger
            )
        return PreparedQuery(
            request=request,
            selection=selection,
            probes=probes,
            receipts=tuple(receipts),
            ledger=ledger,
            snapshot=snapshot,
            deadline=deadline,
            started_s=started_s,
        )

    @staticmethod
    def _assemble_result(
        prepared: PreparedQuery, estimate: "BackendEstimate"
    ) -> QueryResult:
        """Slice an estimated field into the final :class:`QueryResult`.

        ``gsp`` is the :class:`GSPResult` a GSP backend reports under
        the ``"gsp"`` provenance key, else ``None``.
        """
        request = prepared.request
        field_kmh = estimate.speeds
        gsp_result = estimate.provenance.get("gsp")
        return QueryResult(
            queried=request.queried,
            estimates_kmh=field_kmh[np.asarray(request.queried, dtype=int)],
            full_field_kmh=field_kmh,
            selection=prepared.selection,
            probes=prepared.probes,
            receipts=prepared.receipts,
            gsp=gsp_result if isinstance(gsp_result, GSPResult) else None,
            budget_spent=prepared.ledger.spent,
            model_version=prepared.snapshot.version,
            backend=request.backend,
        )

    def answer_query(
        self,
        request: EstimationRequest,
        *,
        market: Optional[CrowdMarket] = None,
        truth: Optional[TruthOracle] = None,
        gsp_config: Optional[GSPConfig] = None,
        snapshot: Optional[ModelSnapshot] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryResult:
        """Online stage: OCS → crowd probe → estimate → answer (Fig. 1).

        Takes one :class:`~repro.core.request.EstimationRequest`::

            system.answer_query(
                EstimationRequest(queried=(3, 7), slot=93, budget=20.0),
                market=market, truth=truth,
            )

        Args:
            request: The query: roads, slot, budget, θ, selector,
                backend and deadline.
            market: The crowd marketplace; fills a request whose
                ``market`` is unset.
            truth: Ground-truth oracle the (simulated) workers measure;
                fills a request whose ``truth`` is unset.
            gsp_config: Propagation knobs of the ``rtf_gsp`` backend
                (``None`` → its default
                :class:`~repro.core.gsp.GSPConfig`).
            snapshot: Pre-pinned model version to serve from.  The
                serving layer pins one snapshot per worker batch and
                passes it here; direct callers leave it ``None`` and the
                query pins the store's current version itself.
            deadline: Explicit wall-clock budget, checked at the OCS,
                probe, and GSP stage boundaries
                (:class:`~repro.errors.QueryTimeoutError` on expiry).
                When ``None``, a request's ``deadline_s`` starts its
                budget here.

        Returns:
            A :class:`QueryResult`.

        Raises:
            ModelError: When ``request`` is not an
                :class:`EstimationRequest`, or no market/truth oracle is
                given.
            QueryTimeoutError: When the deadline expires mid-pipeline.
            ReproError: Every intentional failure; stray internal
                ``ValueError``/``KeyError`` surface as
                :class:`~repro.errors.InternalError`.
        """
        if not isinstance(request, EstimationRequest):
            raise ModelError(
                f"answer_query takes a repro.EstimationRequest, got "
                f"{type(request).__name__}"
            )
        req = request.bound(market, truth)
        if req.market is None or req.truth is None:
            raise ModelError(
                "answer_query needs a market and a truth oracle (on the "
                "request or as arguments)"
            )
        if deadline is None and req.deadline_s is not None:
            deadline = Deadline.after(req.deadline_s)

        tracer = get_tracer()
        # Pin ONE model version for the whole query: a refresh published
        # while this query is in flight must not mix generations between
        # the OCS correlations and the GSP parameters.
        snap = snapshot if snapshot is not None else self._store.current()
        with tracer.span(
            "pipeline.answer_query",
            slot=req.slot,
            budget=req.budget,
            queried=len(req.queried),
            selector=req.selector,
            model_version=snap.version,
        ) as query_span:
            prepared = self._select_and_probe(req, snap, deadline)
            (outcome,) = self._estimate([prepared], gsp_config)
            if isinstance(outcome, ReproError):
                raise outcome
            query_span.set_attr("budget_spent", outcome.budget_spent)
            if outcome.gsp is not None:
                query_span.set_attr("gsp_sweeps", outcome.gsp.sweeps)
            else:
                query_span.set_attr("backend", outcome.backend)
        return outcome

    def _estimate(
        self,
        prepared: Sequence[PreparedQuery],
        gsp_config: Optional[GSPConfig],
    ) -> List[Union[QueryResult, ReproError]]:
        """The estimate stage: turn probed queries into answers.

        Every answer ends here: :meth:`answer_query` passes its one
        query, the serving layer every distinct request of a worker
        batch.  The queries are grouped by ``request.backend`` and each
        group goes to its backend's
        :meth:`~repro.backends.base.EstimatorBackend.estimate_batch`
        hook in one call (for the built-in ``rtf_gsp``: one
        :meth:`GSPEngine.propagate_batch` call).

        Returns:
            One outcome per query, in input order: its
            :class:`QueryResult`, or the :class:`ReproError` that failed
            it (an unknown backend fails its whole group).
        """
        groups: Dict[str, List[int]] = {}
        for k, query in enumerate(prepared):
            groups.setdefault(query.request.backend, []).append(k)
        outcomes: Dict[int, Union[QueryResult, ReproError]] = {}
        for name, members in groups.items():
            try:
                backend = self._store.backend_instance(name)
                estimate_batch = getattr(backend, "estimate_batch")
                with wrap_internal("backend"):
                    estimates = estimate_batch(
                        [prepared[k] for k in members], gsp_config
                    )
            except ReproError as exc:
                estimates = [exc] * len(members)
            for k, estimate in zip(members, estimates):
                outcomes[k] = (
                    estimate if isinstance(estimate, ReproError)
                    else self._assemble_result(prepared[k], estimate)
                )
        finished_s = time.perf_counter()
        for k, query in enumerate(prepared):
            if isinstance(outcomes[k], QueryResult):
                self._record_query_metrics(query, finished_s)
        return [outcomes[k] for k in range(len(prepared))]

    @staticmethod
    def _record_query_metrics(prepared: PreparedQuery, finished_s: float) -> None:
        """Count one executed answer on the ``pipeline.*`` series."""
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"selector": prepared.request.selector}
        metrics.counter("pipeline.queries", labels).inc()
        metrics.histogram(
            "pipeline.latency_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(finished_s - prepared.started_s)
        metrics.counter("pipeline.budget_spent").inc(prepared.ledger.spent)
