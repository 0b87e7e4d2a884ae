"""Continuous model refresh driven by the observation log.

:class:`StreamRefresher` closes the loop between a live probe feed and
the versioned :class:`~repro.core.store.ModelStore`: as the watermark
closes slots in the :class:`~repro.stream.log.ObservationLog`, their
aggregated observations become daily samples for
:class:`~repro.core.online_update.OnlineRTFUpdater` and are published
through :meth:`ModelStore.refresh <repro.core.store.ModelStore.refresh>`
— while :class:`~repro.serve.service.QueryService` readers keep serving
from pinned snapshots.

Two properties keep the loop safe under load:

* **Bounded batching** — each publish covers at most
  ``_MAX_SLOTS_PER_PUBLISH`` (8) closed slots, so one store version
  never absorbs an unbounded backlog and readers see fresh versions
  steadily.
* **Backpressure** — closed slots wait in a queue of at most
  ``_MAX_PENDING`` (4) refresh jobs.  When the publisher falls behind,
  the *feed thread blocks inside* :meth:`StreamRefresher.ingest` until
  a slot frees up: the feed is throttled instead of the queue growing
  without bound (mirroring the admission-queue contract of the serving
  layer).

Freshness is accounted in **event time**: the ``stream.publish_lag_seconds``
gauge is the watermark at publish minus the published slot's end — how
far behind the stream's own clock the model runs — never wall clock
(RA006).  With a healthy publisher the lag hovers around the lateness
horizon; a growing lag means the refresh queue is the bottleneck.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from types import TracebackType
from typing import Deque, Dict, List, Optional, Sequence, Set, Type

import numpy as np

from repro.core.online_update import note_unfitted_slots
from repro.core.pipeline import CrowdRTSE
from repro.errors import ReproError, StreamError
from repro.obs import get_metrics, get_tracer
from repro.obs import health as obs_health
from repro.stream.log import IngestResult, ObservationLog, SlotKey
from repro.stream.messages import ProbeMessage, slot_end_ts

#: Bound on queued refresh jobs; a full queue blocks the feed thread
#: (backpressure).
_MAX_PENDING = 4
#: Bound on distinct slots folded into one store publish (bounded
#: batching).
_MAX_SLOTS_PER_PUBLISH = 8


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs of one :class:`StreamRefresher`.

    Attributes:
        lateness_s: Event-time grace period after a slot's end before it
            closes (see :class:`~repro.stream.log.ObservationLog`).
        learning_rate: Forgetting factor η handed to the online updater.
        async_publish: Publish from a background thread (the production
            shape).  ``False`` publishes inline inside :meth:`ingest`,
            which is deterministic and simpler for tests/experiments.
    """

    lateness_s: float = 60.0
    learning_rate: float = 0.1
    async_publish: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < 1.0:
            raise StreamError(
                f"learning_rate must be in (0, 1), got {self.learning_rate}"
            )


@dataclass
class StreamStats:
    """Mirror of the ``stream.*`` refresh metrics for lock-free reads."""

    publishes: int = 0
    published_slots: int = 0
    skipped_unfitted: int = 0
    backpressure_waits: int = 0
    max_pending_seen: int = 0
    last_publish_lag_s: float = 0.0
    max_publish_lag_s: float = 0.0
    lag_history: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        """Counters as a plain dict (for logs and tests)."""
        return {
            "publishes": self.publishes,
            "published_slots": self.published_slots,
            "skipped_unfitted": self.skipped_unfitted,
            "backpressure_waits": self.backpressure_waits,
            "max_pending_seen": self.max_pending_seen,
            "last_publish_lag_s": self.last_publish_lag_s,
            "max_publish_lag_s": self.max_publish_lag_s,
        }


@dataclass(frozen=True)
class _RefreshJob:
    """One closed slot awaiting publication."""

    key: SlotKey
    sample: Dict[int, float]


class StreamRefresher:
    """Drives continuous model refresh from a probe message stream.

    Args:
        system: The fitted pipeline whose store receives publishes.
        config: Streaming knobs; defaults are production-shaped.

    Each slot close publishes through :meth:`ModelStore.refresh`, which
    also advances the state of *every* estimator backend attached via
    ``CrowdRTSE.attach_backend`` — streamed observations keep lsmrn,
    gmrf, and the offline-shim backends as fresh as the RTF slots, in
    the same atomic snapshot.

    Use as a context manager (or call :meth:`close`) so the final
    partially-filled slots are drained and the publisher thread joins::

        with StreamRefresher(system, StreamConfig(lateness_s=30.0)) as refresher:
            for batch in feed:
                refresher.ingest(batch)
        # closed: every slot published, publisher stopped.
    """

    def __init__(self, system: CrowdRTSE, config: Optional[StreamConfig] = None) -> None:
        self._system = system
        self._config = config or StreamConfig()
        self._log = ObservationLog(
            system.store.network.n_roads, self._config.lateness_s
        )
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._queue: Deque[_RefreshJob] = deque()
        self._stats = StreamStats()
        self._error: Optional[StreamError] = None
        self._closing = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if self._config.async_publish:
            self._thread = threading.Thread(
                target=self._publisher_loop, name="stream-refresher", daemon=True
            )
            self._thread.start()

    # -- introspection ---------------------------------------------------

    @property
    def log(self) -> ObservationLog:
        """The underlying observation log (watermark, merge counters)."""
        return self._log

    @property
    def stats(self) -> StreamStats:
        """Publish/backpressure counters (mutated under the refresher lock)."""
        return self._stats

    @property
    def pending(self) -> int:
        """Refresh jobs currently queued."""
        with self._lock:
            return len(self._queue)

    # -- feed side -------------------------------------------------------

    def ingest(self, messages: Sequence[ProbeMessage]) -> IngestResult:
        """Merge one feed batch and publish every slot it closed.

        Blocks while the refresh queue is full (backpressure).  Raises
        the publisher's failure, if any, instead of silently continuing
        to feed a dead pipeline.

        Raises:
            StreamError: When the refresher is closed, or the background
                publisher previously failed.
        """
        self._check_open()
        with get_tracer().span("stream.ingest", messages=len(messages)):
            result = self._log.ingest(messages)
            self._flush_closed()
        return result

    def drain(self) -> None:
        """Close and submit every open slot now, watermark regardless.

        End-of-window flush: when the feed goes quiet (end of a replay
        day, end of the covered slot window) the watermark stops
        advancing, so the trailing slots would otherwise sit open until
        the next day's messages close them — publishing a day late in
        event time.  Messages for a drained slot arriving later are
        handled like any other late data (dropped once the watermark
        passes, merged into a fresh bucket otherwise).

        Raises:
            StreamError: When the refresher is closed, or the background
                publisher previously failed.
        """
        self._check_open()
        self._drain_open()

    def close(self) -> StreamStats:
        """Drain open slots, publish them, and stop the publisher.

        Idempotent.  Returns the final :class:`StreamStats`.

        Raises:
            StreamError: When the publisher failed at any point.
        """
        with self._lock:
            if self._closed:
                if self._error is not None:
                    raise self._error
                return self._stats
        try:
            self._drain_open()
        finally:
            with self._lock:
                self._closing = True
                self._not_empty.notify_all()
            if self._thread is not None:
                self._thread.join()
            with self._lock:
                self._closed = True
                error = self._error
        if error is not None:
            raise error
        return self._stats

    def __enter__(self) -> "StreamRefresher":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc is None:
            self.close()
            return
        # An ingest-side failure is already propagating; just stop the
        # publisher without drowning it in a second error.
        with self._lock:
            self._closing = True
            self._closed = True
            self._not_empty.notify_all()
        if self._thread is not None:
            self._thread.join()

    # -- internals -------------------------------------------------------

    def _check_open(self) -> None:
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._closed or self._closing:
                raise StreamError("ingest on a closed StreamRefresher")

    def _flush_closed(self) -> None:
        for key in self._log.closable():
            sample = self._log.close_slot(key)
            self._submit(_RefreshJob(key=key, sample=sample))

    def _drain_open(self) -> None:
        for key in self._log.open_slots():
            sample = self._log.close_slot(key)
            self._submit(_RefreshJob(key=key, sample=sample))

    def _submit(self, job: _RefreshJob) -> None:
        if not self._config.async_publish:
            self._publish_jobs([job])
            with self._lock:
                if self._error is not None:
                    raise self._error
            return
        metrics = get_metrics()
        with self._not_full:
            while (
                len(self._queue) >= _MAX_PENDING
                and self._error is None
            ):
                self._stats.backpressure_waits += 1
                if metrics.enabled:
                    metrics.counter("stream.backpressure_waits").inc()
                self._not_full.wait(timeout=1.0)
            if self._error is not None:
                raise self._error
            self._queue.append(job)
            if len(self._queue) > self._stats.max_pending_seen:
                self._stats.max_pending_seen = len(self._queue)
            if metrics.enabled:
                metrics.gauge("stream.pending_refreshes").set(len(self._queue))
            self._not_empty.notify()

    def _publisher_loop(self) -> None:
        metrics = get_metrics()
        while True:
            with self._not_empty:
                while not self._queue and not self._closing:
                    self._not_empty.wait(timeout=0.5)
                if not self._queue:
                    return
                # One publish maps slot → sample, so a batch may hold
                # each *global slot* once; a second job for the same
                # slot (the next day's closing) starts the next batch.
                jobs: List[_RefreshJob] = []
                slots_taken: Set[int] = set()
                while (
                    self._queue
                    and len(jobs) < _MAX_SLOTS_PER_PUBLISH
                ):
                    slot = self._queue[0].key[1]
                    if slot in slots_taken:
                        break
                    slots_taken.add(slot)
                    jobs.append(self._queue.popleft())
                if metrics.enabled:
                    metrics.gauge("stream.pending_refreshes").set(len(self._queue))
                self._not_full.notify_all()
            self._publish_jobs(jobs)
            with self._lock:
                if self._error is not None:
                    # Unblock any feed thread stuck in backpressure.
                    self._not_full.notify_all()
                    return

    def _publish_jobs(self, jobs: Sequence[_RefreshJob]) -> None:
        """Fold closed slots into one store publish (no refresher lock held)."""
        metrics = get_metrics()
        snapshot = self._system.store.current()
        day_samples: Dict[int, np.ndarray] = {}
        published_keys: List[SlotKey] = []
        unfitted: List[int] = []
        for job in jobs:
            slot = job.key[1]
            if slot not in snapshot:
                unfitted.append(slot)
                continue
            # Sparse coverage: unobserved roads keep the current slot
            # mean, so the updater sees a full positive vector and only
            # observed roads move the moments.
            sample = snapshot.slot(slot).mu.astype(np.float64).copy()
            for road, speed in job.sample.items():
                sample[road] = speed
            day_samples[slot] = sample
            published_keys.append(job.key)
        if unfitted:
            note_unfitted_slots(unfitted, snapshot.slots)
        try:
            if day_samples:
                with get_tracer().span("stream.publish", slots=len(day_samples)):
                    self._system.refresh(
                        day_samples, learning_rate=self._config.learning_rate
                    )
        except ReproError as exc:
            error = StreamError(
                f"publishing slots {sorted(day_samples)} failed: {exc}"
            )
            error.__cause__ = exc
            with self._lock:
                self._error = error
                self._not_full.notify_all()
            # Black-box the failure *after* releasing the refresher lock
            # (the recorder has its own lock; never nest them — RA002).
            obs_health.record_failure("stream", error)
            return
        watermark = self._log.watermark
        lag = 0.0
        for day, slot in published_keys:
            lag = max(lag, watermark - slot_end_ts(day, slot))
        with self._lock:
            self._stats.skipped_unfitted += len(unfitted)
            if day_samples:
                self._stats.publishes += 1
                self._stats.published_slots += len(day_samples)
                self._stats.last_publish_lag_s = lag
                if lag > self._stats.max_publish_lag_s:
                    self._stats.max_publish_lag_s = lag
                self._stats.lag_history.append(lag)
        if metrics.enabled and day_samples:
            metrics.counter("stream.publishes").inc()
            metrics.counter("stream.published_slots").inc(len(day_samples))
            metrics.gauge("stream.publish_lag_seconds").set(lag)
