"""The concurrent serving layer: :class:`QueryService`.

The paper treats each query as an isolated Fig. 1 loop; a deployed
estimator instead faces a *stream* of queries that must be answered
while the model is hot-refreshed underneath (cf. the metropolitan-scale
serving framing of Li et al., arXiv:1810.12295).  :class:`QueryService`
fronts a :class:`~repro.core.pipeline.CrowdRTSE` with the four
properties a serving tier needs:

* **Bounded admission with backpressure** — at most
  ``ServeConfig.max_queue_depth`` requests wait; beyond that
  :meth:`QueryService.submit` raises a typed
  :class:`~repro.errors.OverloadedError` instead of letting latency
  grow without bound.
* **Per-request deadlines** — each request carries a wall-clock budget
  enforced across the whole OCS → probe → GSP span (including queue
  wait).  Expiry either degrades the answer (default) or raises a typed
  :class:`~repro.errors.QueryTimeoutError`.
* **Coalescing** — a worker drains every queued request for the same
  slot into one batch served off **one pinned snapshot**: identical
  requests share a single pipeline execution.  Every batch takes the
  same path: each distinct request is selected and probed on its own,
  then the system's estimate stage answers them all together — one
  :meth:`~repro.core.gsp.GSPEngine.propagate_batch` call per precision,
  in which each item still does its own structure lookup.
* **Graceful degradation** — when the deadline is (nearly) spent or the
  crowd cannot be probed (budget exhausted, no workers), the request
  falls back to the Per baseline
  (:func:`~repro.baselines.periodic.periodic_field` over the pinned
  snapshot's μ) and the result is flagged ``degraded=True`` with the
  reason, instead of failing the caller.

Workers are plain threads; because every batch pins one
:class:`~repro.core.store.ModelSnapshot` via
:meth:`~repro.core.store.ModelStore.pinned`, a concurrent
:meth:`~repro.core.pipeline.CrowdRTSE.refresh` can never tear a request
across model versions.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import ContextManager, Deque, Dict, List, Optional

import numpy as np

from repro.errors import (
    BudgetError,
    InternalError,
    NoWorkersError,
    OverloadedError,
    QueryTimeoutError,
    ReproError,
    ServeError,
)
from repro.baselines.periodic import periodic_field
from repro.core.gsp import GSPConfig
from repro.core.pipeline import CrowdRTSE, Deadline, PreparedQuery, QueryResult
from repro.core.request import EstimationRequest
from repro.core.store import ModelSnapshot
from repro.crowd.market import CrowdMarket, TruthOracle
from repro.obs import DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS, get_metrics, get_tracer
from repro.obs import health as obs_health

#: Degradation reasons recorded on :attr:`ServedResult.degraded_reason`
#: and the ``serve.degraded`` counter's ``reason`` label.
DEGRADED_DEADLINE = "deadline"
DEGRADED_BUDGET = "budget"

#: Bucket edges (km/h) of the ``serve.shadow.divergence_kmh`` histogram.
_DIVERGENCE_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


@dataclass
class ShadowStats:
    """Running tally of shadow-mode scoring, one per :class:`QueryService`.

    Attributes:
        scored: Challenger estimates that completed.
        errors: Challenger estimates that raised (counted, swallowed).
        divergence_sum_kmh: Sum over scored requests of the mean
            absolute field difference challenger − primary (km/h).
        latency_sum_s: Sum of challenger estimate latencies.
    """

    scored: int = 0
    errors: int = 0
    divergence_sum_kmh: float = 0.0
    latency_sum_s: float = 0.0

    @property
    def mean_divergence_kmh(self) -> float:
        """Mean per-request field divergence (0 when nothing scored)."""
        if self.scored == 0:
            return 0.0
        return self.divergence_sum_kmh / self.scored

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for logs and the admin endpoint."""
        return {
            "scored": float(self.scored),
            "errors": float(self.errors),
            "mean_divergence_kmh": self.mean_divergence_kmh,
            "latency_sum_s": self.latency_sum_s,
        }


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`QueryService`.

    Attributes:
        num_workers: Serving threads.  Each worker serves one coalesced
            batch at a time off its own pinned snapshot.
        max_queue_depth: Admission bound; :meth:`QueryService.submit`
            raises :class:`~repro.errors.OverloadedError` beyond it.
        coalesce_window_s: After dequeuing a request, how long a worker
            lingers for same-slot stragglers before serving the batch.
            0 still coalesces whatever is *already* queued.
        max_coalesce: Largest batch one worker serves at once.
        default_deadline_s: Deadline applied to requests that do not
            carry their own (``None`` → no deadline).
        degrade_on_timeout: When True (default), a deadline expiry
            returns a Per-baseline answer flagged ``degraded=True``;
            when False the request fails with
            :class:`~repro.errors.QueryTimeoutError`.
        degrade_margin_s: Skip the full pipeline and degrade immediately
            when less than this much budget remains at pickup — the
            pipeline would not finish in time anyway.
        serialize_probes: Hold a service-wide lock while a request is
            selected and probed, so a market shared between requests
            (one RNG, one worker pool) is never driven from two threads
            at once.  The lock covers each distinct request's OCS +
            probing and nothing else: the batch's estimate stage (GSP
            or a backend) always runs outside it.
        gsp_config: Propagation knobs applied to every served query.
        shed_on_failing: Pre-emptive load shedding: when an installed
            :class:`repro.obs.health.HealthMonitor` reports the process
            FAILING (both SLO burn windows violated) and the queue is
            at least half full, :meth:`QueryService.submit` rejects
            with :class:`~repro.errors.OverloadedError` *before* hard
            overload — counted under ``serve.shed``.
        shadow_backend: Challenger estimator backend scored in shadow
            mode: after a request completes on the default ``rtf_gsp``
            path, the worker re-estimates the *same probes* off the
            *same pinned snapshot* with this backend and emits the
            ``serve.shadow.*`` error/latency metrics — the caller's
            answer and latency are untouched (tickets resolve first).
            The backend must be attached to the system's store.
    """

    num_workers: int = 2
    max_queue_depth: int = 64
    coalesce_window_s: float = 0.0
    max_coalesce: int = 16
    default_deadline_s: Optional[float] = None
    degrade_on_timeout: bool = True
    degrade_margin_s: float = 0.0
    serialize_probes: bool = True
    gsp_config: Optional[GSPConfig] = None
    shed_on_failing: bool = True
    shadow_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ServeError("ServeConfig.num_workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ServeError("ServeConfig.max_queue_depth must be >= 1")
        if self.max_coalesce < 1:
            raise ServeError("ServeConfig.max_coalesce must be >= 1")
        if self.coalesce_window_s < 0 or self.degrade_margin_s < 0:
            raise ServeError("serve windows/margins must be >= 0")


@dataclass(frozen=True)
class ServedResult:
    """What the service hands back for one request.

    Attributes:
        request: The request this answers.
        estimates_kmh: Estimated speed per queried road.
        full_field_kmh: Full per-road field the estimates were sliced
            from (GSP posterior, or the Per field when degraded).
        model_version: Snapshot version the answer was served from.
        degraded: True when the Per fallback answered instead of the
            full OCS → probe → GSP pipeline.
        degraded_reason: Why (``"deadline"`` / ``"budget"``), or None.
        coalesced: True when this request shared another request's
            pipeline execution instead of running its own.
        queue_seconds: Time spent waiting for a worker.
        total_seconds: Admission-to-completion latency.
        result: The underlying :class:`QueryResult` (None when
            degraded — there was no propagation).
    """

    request: EstimationRequest
    estimates_kmh: np.ndarray
    full_field_kmh: np.ndarray
    model_version: int
    degraded: bool = False
    degraded_reason: Optional[str] = None
    coalesced: bool = False
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    result: Optional[QueryResult] = None


class ServeTicket:
    """Handle for one submitted request (a minimal future).

    Returned by :meth:`QueryService.submit`; :meth:`result` blocks until
    a worker resolves it, re-raising the request's failure if it had
    one.
    """

    __slots__ = (
        "request", "deadline", "enqueued_at", "picked_up_at",
        "_done", "_result", "_error",
    )

    def __init__(
        self, request: EstimationRequest, deadline: Optional[Deadline]
    ) -> None:
        self.request = request
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        self.picked_up_at: Optional[float] = None
        self._done = threading.Event()
        self._result: Optional[ServedResult] = None
        self._error: Optional[BaseException] = None

    @property
    def queue_seconds(self) -> float:
        """Time the request waited before a worker picked it up."""
        if self.picked_up_at is None:
            return 0.0
        return self.picked_up_at - self.enqueued_at

    @property
    def done(self) -> bool:
        """Whether the request has been resolved (either way)."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> ServedResult:
        """Block for the outcome; raise the request's error if it failed."""
        if not self._done.wait(timeout):
            raise ServeError("timed out waiting for the serve ticket")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: ServedResult) -> None:
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class QueryService:
    """Concurrent, deadline-aware, coalescing front of a :class:`CrowdRTSE`.

    Args:
        system: The (fitted) estimator to serve.
        market: Default crowd marketplace for requests that do not carry
            their own.
        truth: Default ground-truth oracle (simulation plumbing).
        config: Serving knobs.
        autostart: Start the worker threads immediately.  Tests pass
            False to fill the queue deterministically and then
            :meth:`start`.

    Use as a context manager (``with QueryService(...) as svc:``) so the
    workers are always joined; :meth:`close` drains the queue first.
    """

    def __init__(
        self,
        system: CrowdRTSE,
        market: Optional[CrowdMarket] = None,
        truth: Optional[TruthOracle] = None,
        config: Optional[ServeConfig] = None,
        autostart: bool = True,
    ) -> None:
        self._system = system
        self._market = market
        self._truth = truth
        self._config = config if config is not None else ServeConfig()
        self._queue: Deque[ServeTicket] = deque()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._probe_lock = threading.Lock()
        self._closing = False
        self._started = False
        self._workers: List[threading.Thread] = []
        self._shadow_stats = ShadowStats()
        self._shadow_lock = threading.Lock()
        if autostart:
            self.start()

    # -- lifecycle ------------------------------------------------------

    @property
    def config(self) -> ServeConfig:
        """The serving knobs."""
        return self._config

    @property
    def system(self) -> CrowdRTSE:
        """The estimator being served."""
        return self._system

    @property
    def shadow_stats(self) -> ShadowStats:
        """Consistent copy of the shadow-mode tally (all zeros when off)."""
        with self._shadow_lock:
            return replace(self._shadow_stats)

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return
            if self._closing:
                raise ServeError("cannot start a closed QueryService")
            self._started = True
            for k in range(self._config.num_workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{k}",
                    daemon=True,
                )
                self._workers.append(thread)
                thread.start()

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests and join the workers.

        Args:
            drain: Serve what is already queued before exiting (pending
                tickets fail with :class:`ServeError` when False).
            timeout: Per-thread join bound.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            if not drain:
                while self._queue:
                    self._queue.popleft()._fail(
                        ServeError("service closed before the request was served")
                    )
                self._set_depth_locked()
            self._work_ready.notify_all()
            started = self._started
        for thread in self._workers:
            thread.join(timeout=timeout)
        if not started:
            # Never-started service: fail anything still queued so no
            # caller blocks forever on a ticket nobody will serve.
            with self._lock:
                while self._queue:
                    self._queue.popleft()._fail(
                        ServeError("service closed before the request was served")
                    )
                self._set_depth_locked()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- admission ------------------------------------------------------

    def submit(self, request: EstimationRequest) -> ServeTicket:
        """Admit one request, or reject it with backpressure.

        Raises:
            OverloadedError: When the admission queue is at capacity,
                or (with ``ServeConfig.shed_on_failing``) when the
                health monitor reports FAILING and the queue is at
                least half full.
            ServeError: When the service is closed.
        """
        metrics = get_metrics()
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self._config.default_deadline_s
        )
        deadline = Deadline.after(deadline_s) if deadline_s is not None else None
        ticket = ServeTicket(request, deadline)
        # The monitor's status() is a lock-free read; consult it before
        # taking the admission lock so shedding never nests locks.
        shedding = self._config.shed_on_failing and self._should_shed()
        with self._lock:
            if self._closing:
                raise ServeError("QueryService is closed")
            if len(self._queue) >= self._config.max_queue_depth:
                if metrics.enabled:
                    metrics.counter("serve.rejected").inc()
                raise OverloadedError(
                    len(self._queue), self._config.max_queue_depth
                )
            if shedding and 2 * len(self._queue) >= self._config.max_queue_depth:
                # Pre-emptive shed: the SLO engine says we are failing,
                # so reject while there is still headroom instead of
                # queueing work we will miss the deadline on anyway.
                if metrics.enabled:
                    metrics.counter("serve.shed").inc()
                raise OverloadedError(
                    len(self._queue), self._config.max_queue_depth
                )
            self._queue.append(ticket)
            self._set_depth_locked()
            if metrics.enabled:
                metrics.counter("serve.admitted").inc()
            self._work_ready.notify()
        return ticket

    def serve(
        self, request: EstimationRequest, timeout: Optional[float] = None
    ) -> ServedResult:
        """Blocking convenience: :meth:`submit` + :meth:`ServeTicket.result`."""
        return self.submit(request).result(timeout)

    @staticmethod
    def _should_shed() -> bool:
        """Whether the installed health monitor reports FAILING."""
        monitor = obs_health.get_monitor()
        return monitor is not None and monitor.should_shed()

    def queue_depth(self) -> int:
        """Requests currently waiting for a worker."""
        with self._lock:
            return len(self._queue)

    def _set_depth_locked(self) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue.depth").set(len(self._queue))

    # -- worker side ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._serve_batch(batch)
            except BaseException as exc:  # pragma: no cover - last resort
                # A worker must never die with tickets unresolved; route
                # through _fail_all so the error is counted and the
                # flight recorder captures the black box.
                unresolved = [ticket for ticket in batch if not ticket.done]
                if unresolved:
                    self._fail_all(
                        unresolved,
                        exc if isinstance(exc, ReproError)
                        else InternalError("serve", exc),
                    )

    def _next_batch(self) -> Optional[List[ServeTicket]]:
        """Pop a leader plus every coalescable same-slot follower.

        The followers already queued are gathered in the same critical
        section as the leader pop, so no other worker can take a
        same-slot duplicate as a leader of its own in between.
        """
        with self._work_ready:
            while not self._queue:
                if self._closing:
                    return None
                self._work_ready.wait(timeout=0.1)
            leader = self._queue.popleft()
            leader.picked_up_at = time.perf_counter()
            batch = [leader]
            if leader.request.coalescable:
                self._queue = self._take_followers(batch)
            self._set_depth_locked()
        if self._config.coalesce_window_s > 0 and leader.request.coalescable:
            # Linger briefly so near-simultaneous same-slot queries land
            # in this batch instead of the next one.
            time.sleep(self._config.coalesce_window_s)
            with self._lock:
                self._queue = self._take_followers(batch)
                self._set_depth_locked()
        return batch

    def _take_followers(self, batch: List[ServeTicket]) -> Deque[ServeTicket]:
        """Append queued coalescable same-slot requests to ``batch``.

        Call with ``self._lock`` held; returns the queue that remains.
        """
        slot = batch[0].request.slot
        kept: Deque[ServeTicket] = deque()
        for candidate in self._queue:
            if (
                len(batch) < self._config.max_coalesce
                and candidate.request.coalescable
                and candidate.request.slot == slot
            ):
                candidate.picked_up_at = time.perf_counter()
                batch.append(candidate)
            else:
                kept.append(candidate)
        return kept

    def _serve_batch(self, batch: List[ServeTicket]) -> None:
        """Serve one same-slot batch off one pinned snapshot."""
        metrics = get_metrics()
        tracer = get_tracer()
        if metrics.enabled:
            metrics.histogram(
                "serve.batch.size", DEFAULT_SIZE_BUCKETS
            ).observe(len(batch))
        store = self._system.store
        with store.pinned() as snapshot:
            with tracer.span(
                "serve.batch",
                size=len(batch),
                slot=int(batch[0].request.slot),
                model_version=snapshot.version,
            ):
                # Identical requests share one pipeline execution.
                buckets: Dict[tuple, List[ServeTicket]] = {}
                for ticket in batch:
                    buckets.setdefault(self._coalesce_key(ticket), []).append(ticket)
                n_shared = len(batch) - len(buckets)
                if n_shared and metrics.enabled:
                    metrics.counter("serve.coalesced").inc(n_shared)
                self._serve_buckets(list(buckets.values()), snapshot)

    @staticmethod
    def _coalesce_key(ticket: ServeTicket) -> tuple:
        request = ticket.request
        return (
            request.slot,
            tuple(int(q) for q in request.queried),
            float(request.budget),
            float(request.theta),
            request.selector,
            request.backend,
            request.precision,
            request.warm_start,
            id(request.market),
            id(request.truth),
            id(request.rng),
        )

    # -- execution path -------------------------------------------------

    def _serve_buckets(
        self, buckets: List[List[ServeTicket]], snapshot: ModelSnapshot
    ) -> None:
        """Select and probe each distinct request, then estimate them together.

        Each bucket (one distinct request and its duplicates) runs OCS +
        probing under its own ``serve.request`` span, holding the probe
        lock only for that; the system's estimate stage then answers
        every probed bucket at once, outside the lock.
        """
        tracer = get_tracer()
        ready: List[List[ServeTicket]] = []
        prepared: List[PreparedQuery] = []
        for tickets in buckets:
            leader = tickets[0]
            request = leader.request
            with tracer.span(
                "serve.request",
                slot=int(request.slot),
                queried=len(request.queried),
                shared_by=len(tickets),
            ):
                if self._should_degrade_now(leader):
                    self._finish_timeout(
                        tickets, snapshot, self._queue_timeout(leader)
                    )
                    continue
                try:
                    with self._maybe_probe_lock():
                        # The transitive wait is the artifact cache's
                        # single-flight Event: bounded by one derivation
                        # on a thread that never takes the probe lock,
                        # and serialize_probes opts into exactly this
                        # hold.
                        query = self._system._select_and_probe(  # repro: noqa[RA012]
                            request.bound(
                                self._market_of(request), self._truth_of(request)
                            ),
                            snapshot,
                            leader.deadline,
                        )
                except Exception as exc:
                    self._finish_error(tickets, snapshot, exc)
                    continue
            ready.append(tickets)
            prepared.append(query)
        if not prepared:
            return
        outcomes = self._system._estimate(prepared, self._config.gsp_config)
        for tickets, outcome in zip(ready, outcomes):
            if isinstance(outcome, QueryResult):
                self._finish_ok(tickets, outcome, snapshot)
            else:
                self._finish_error(tickets, snapshot, outcome)

    # -- helpers --------------------------------------------------------

    def _maybe_probe_lock(self) -> ContextManager[object]:
        if self._config.serialize_probes:
            return self._probe_lock
        return _NULL_CONTEXT

    def _market_of(self, request: EstimationRequest) -> CrowdMarket:
        market = request.market if request.market is not None else self._market
        if market is None:
            raise ServeError(
                "request carries no market and the service has no default"
            )
        return market

    def _truth_of(self, request: EstimationRequest) -> TruthOracle:
        truth = request.truth if request.truth is not None else self._truth
        if truth is None:
            raise ServeError(
                "request carries no truth oracle and the service has no default"
            )
        return truth

    def _should_degrade_now(self, ticket: ServeTicket) -> bool:
        if ticket.deadline is None:
            return False
        return ticket.deadline.remaining() <= self._config.degrade_margin_s

    @staticmethod
    def _queue_timeout(ticket: ServeTicket) -> QueryTimeoutError:
        """A timeout detected at pickup (spent waiting in the queue)."""
        deadline = ticket.deadline
        assert deadline is not None
        return QueryTimeoutError(
            "queue",
            deadline.budget_seconds - deadline.remaining(),
            deadline.budget_seconds,
        )

    def _finish_ok(
        self,
        tickets: List[ServeTicket],
        result: QueryResult,
        snapshot: ModelSnapshot,
    ) -> None:
        metrics = get_metrics()
        for k, ticket in enumerate(tickets):
            latency = time.perf_counter() - ticket.enqueued_at
            if metrics.enabled:
                metrics.counter("serve.completed", {"outcome": "ok"}).inc()
                metrics.histogram(
                    "serve.latency_seconds", DEFAULT_TIME_BUCKETS
                ).observe(latency)
            ticket._resolve(
                ServedResult(
                    request=ticket.request,
                    estimates_kmh=result.full_field_kmh[
                        np.asarray(ticket.request.queried, dtype=int)
                    ],
                    full_field_kmh=result.full_field_kmh,
                    model_version=result.model_version,
                    coalesced=k > 0,
                    queue_seconds=ticket.queue_seconds,
                    total_seconds=latency,
                    result=result,
                )
            )
        # Shadow scoring runs strictly after every ticket resolved, so
        # the caller's answer and latency are already final.
        if self._config.shadow_backend is not None:
            self._score_shadow(tickets[0].request, result, snapshot)

    def _finish_timeout(
        self, tickets: List[ServeTicket], snapshot: ModelSnapshot, exc: QueryTimeoutError
    ) -> None:
        if self._config.degrade_on_timeout:
            self._finish_degraded(tickets, snapshot, DEGRADED_DEADLINE)
        else:
            self._fail_all(tickets, exc)

    def _finish_error(
        self, tickets: List[ServeTicket], snapshot: ModelSnapshot, exc: Exception
    ) -> None:
        """Resolve a failed bucket: degrade, or fail with a typed error."""
        if isinstance(exc, QueryTimeoutError):
            self._finish_timeout(tickets, snapshot, exc)
        elif isinstance(exc, (BudgetError, NoWorkersError)):
            self._finish_degraded(tickets, snapshot, DEGRADED_BUDGET)
        elif isinstance(exc, ReproError):
            self._fail_all(tickets, exc)
        else:
            self._fail_all(tickets, InternalError("serve", exc))

    def _finish_degraded(
        self, tickets: List[ServeTicket], snapshot: ModelSnapshot, reason: str
    ) -> None:
        """Answer from the Per baseline instead of failing the caller."""
        metrics = get_metrics()
        request = tickets[0].request
        try:
            field = periodic_field(snapshot.slot(request.slot))
        except ReproError as exc:
            # Even Per cannot answer (slot never fitted): a real failure.
            self._fail_all(tickets, exc)
            return
        for k, ticket in enumerate(tickets):
            latency = time.perf_counter() - ticket.enqueued_at
            if metrics.enabled:
                metrics.counter("serve.completed", {"outcome": "degraded"}).inc()
                metrics.counter("serve.degraded", {"reason": reason}).inc()
                metrics.histogram(
                    "serve.latency_seconds", DEFAULT_TIME_BUCKETS
                ).observe(latency)
            ticket._resolve(
                ServedResult(
                    request=ticket.request,
                    estimates_kmh=field[
                        np.asarray(ticket.request.queried, dtype=int)
                    ],
                    full_field_kmh=field,
                    model_version=snapshot.version,
                    degraded=True,
                    degraded_reason=reason,
                    coalesced=k > 0,
                    queue_seconds=ticket.queue_seconds,
                    total_seconds=latency,
                )
            )

    def _score_shadow(
        self,
        request: EstimationRequest,
        result: QueryResult,
        snapshot: ModelSnapshot,
    ) -> None:
        """Score the challenger backend against the answer just served.

        Re-estimates from the *same* probes and pinned snapshot, so the
        comparison isolates the estimator (no extra crowd spend).  Any
        challenger failure is counted, never propagated — shadow mode
        must not break serving.
        """
        challenger = self._config.shadow_backend
        if challenger is None or challenger == result.backend:
            return
        metrics = get_metrics()
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span(
            "serve.shadow", backend=challenger, slot=int(request.slot)
        ):
            try:
                estimate = self._system.estimate_with_backend(
                    challenger,
                    result.probes,
                    request.slot,
                    snapshot=snapshot,
                )
            except Exception:
                if metrics.enabled:
                    metrics.counter(
                        "serve.shadow.scored",
                        {"backend": challenger, "outcome": "error"},
                    ).inc()
                with self._shadow_lock:
                    self._shadow_stats.errors += 1
                return
        elapsed = time.perf_counter() - start
        divergence = float(
            np.mean(np.abs(estimate.speeds - result.full_field_kmh))
        )
        if metrics.enabled:
            metrics.counter(
                "serve.shadow.scored",
                {"backend": challenger, "outcome": "ok"},
            ).inc()
            metrics.histogram(
                "serve.shadow.latency_seconds",
                DEFAULT_TIME_BUCKETS,
                {"backend": challenger},
            ).observe(elapsed)
            metrics.histogram(
                "serve.shadow.divergence_kmh",
                _DIVERGENCE_BUCKETS,
                {"backend": challenger},
            ).observe(divergence)
        with self._shadow_lock:
            self._shadow_stats.scored += 1
            self._shadow_stats.latency_sum_s += elapsed
            self._shadow_stats.divergence_sum_kmh += divergence

    def _fail_all(self, tickets: List[ServeTicket], exc: ReproError) -> None:
        metrics = get_metrics()
        for ticket in tickets:
            if metrics.enabled:
                metrics.counter("serve.completed", {"outcome": "error"}).inc()
            ticket._fail(exc)
        if isinstance(exc, InternalError):
            # Black-box the failure: the flight recorder keeps the last
            # N samples/spans/events around this moment (no-op unless a
            # HealthMonitor is installed; called outside any lock).
            obs_health.record_failure("serve", exc)


class _NullContext:
    """``with``-able stand-in when probe serialization is off."""

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()
