"""Concurrency soak: streaming refresh racing concurrent serving.

Modeled on test_serve_concurrency.py, with the writer replaced by the
real streaming path: the main thread replays a synthesized day through
an async :class:`StreamRefresher` (bounded queue, background publisher)
while client threads hammer the same system's :class:`QueryService`.

Required outcomes (ISSUE 6 acceptance):

* the replay sustains >= 2k events/sec while serving stays concurrent;
* every ticket resolves with finite estimates and no snapshot tearing
  (each served version lies between the store versions bracketing the
  request);
* the watermark is monotone across the replay and the publish-lag
  (freshness) gauge is exported and bounded by the lateness horizon
  plus the feed's slot granularity — lag is event time, so it cannot
  drift with wall-clock load.

Run in CI with faulthandler and a hard timeout so a deadlock shows a
stack dump instead of hanging the job.
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np
import pytest

import repro
from repro import obs
from repro.serve import EstimationRequest, QueryService, ServeConfig
from repro.stream import refresher as stream_refresher
from repro.stream import (
    SLOT_SECONDS,
    StreamConfig,
    StreamRefresher,
    synthesize_day_feed,
)

MIN_EVENTS_PER_S = 2000.0
N_CLIENTS = 3
REQUESTS_PER_CLIENT = 4
LATENESS_S = 60.0


@pytest.fixture(scope="module")
def world(tiny_dataset):
    """A system fitted on the dataset's full slot window (so the whole
    synthesized day is publishable), plus serving ingredients."""
    slots = list(tiny_dataset.train_history.global_slots)
    system = repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=slots
    )
    return {
        "data": tiny_dataset,
        "system": system,
        "slots": slots,
        "truth": repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        ),
    }


def _request(world, seed: int) -> EstimationRequest:
    data = world["data"]
    return EstimationRequest(
        queried=tuple(data.queried[:6]),
        slot=data.slot,
        budget=12,
        market=repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(seed),
        ),
        truth=world["truth"],
        rng=np.random.default_rng(seed),
    )


def test_streaming_refresh_while_serving(world, monkeypatch):
    data = world["data"]
    system = world["system"]
    feed = synthesize_day_feed(
        data.test_history,
        0,
        slots=world["slots"],
        coverage=0.6,
        seed=41,
    )
    events = sum(len(snapshot) for snapshot in feed)
    assert events >= 500, "feed too small to be a meaningful soak"

    obs.configure(metrics=True)
    obs.get_metrics().clear()
    failures: List[str] = []
    versions: List[int] = []
    lock = threading.Lock()

    def client(seed: int) -> None:
        service_local = service  # bound after service starts
        for k in range(REQUESTS_PER_CLIENT):
            floor = system.store.version
            try:
                result = service_local.serve(_request(world, seed * 100 + k))
            except repro.ReproError as exc:
                failures.append(f"client {seed}: {exc!r}")
                return
            ceiling = system.store.version
            if not np.all(np.isfinite(result.estimates_kmh)):
                failures.append("non-finite estimates under streaming refresh")
                return
            if not (floor <= result.model_version <= ceiling):
                failures.append(
                    f"torn snapshot: served v{result.model_version} "
                    f"outside [{floor}, {ceiling}]"
                )
                return
            with lock:
                versions.append(result.model_version)

    # One queued job + one slot per publish: when slot j's publish runs,
    # the feed can have submitted at most slots j+1 (queued) and j+2
    # (blocked in backpressure), so the watermark sits no further than
    # slot j+2's close point — a derivable freshness bound.
    monkeypatch.setattr(stream_refresher, "_MAX_PENDING", 1)
    monkeypatch.setattr(stream_refresher, "_MAX_SLOTS_PER_PUBLISH", 1)
    config = StreamConfig(lateness_s=LATENESS_S, learning_rate=0.2)
    watermarks: List[float] = []
    try:
        with QueryService(
            system, config=ServeConfig(num_workers=3)
        ) as service:
            clients = [
                threading.Thread(target=client, args=(seed,), daemon=True)
                for seed in range(N_CLIENTS)
            ]
            refresher = StreamRefresher(system, config)
            for thread in clients:
                thread.start()
            started = time.perf_counter()
            for snapshot in feed:
                refresher.ingest(snapshot)
                watermarks.append(refresher.log.watermark)
            stats = refresher.close()
            elapsed = time.perf_counter() - started
            for thread in clients:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "client thread hung"

        assert failures == []
        # Throughput floor while serving concurrently.
        assert events / elapsed >= MIN_EVENTS_PER_S, (
            f"replayed {events} events in {elapsed:.3f}s "
            f"({events / elapsed:.0f}/s) — below the "
            f"{MIN_EVENTS_PER_S:.0f}/s floor"
        )
        # Every client resolved every request.
        assert len(versions) == N_CLIENTS * REQUESTS_PER_CLIENT

        # The stream actually refreshed the model, bounded-batch style.
        assert stats.publishes >= 2
        assert stats.published_slots == len(world["slots"])
        assert system.store.version == 1 + stats.publishes
        assert stats.max_pending_seen <= 1

        # Watermark (event-time clock) is monotone over the replay.
        assert all(a <= b for a, b in zip(watermarks, watermarks[1:]))

        # Freshness: one lag sample per publish, max is the running max,
        # and the lag stays bounded: two slots of backpressure exposure
        # plus the lateness horizon plus one snapshot window of
        # watermark granularity — in event time, independent of load.
        assert len(stats.lag_history) == stats.publishes
        assert all(lag >= 0.0 for lag in stats.lag_history)
        assert stats.max_publish_lag_s == max(stats.lag_history)
        bound = 2 * SLOT_SECONDS + LATENESS_S + 120.0
        assert stats.max_publish_lag_s <= bound

        # The freshness gauge is exported and mirrors the final publish.
        metrics = obs.get_metrics()
        exported_gauges = {g["name"] for g in metrics.snapshot()["gauges"]}
        assert "stream.publish_lag_seconds" in exported_gauges
        gauge = metrics.gauge("stream.publish_lag_seconds").value
        assert gauge == pytest.approx(stats.last_publish_lag_s)
        assert 0.0 <= gauge <= bound
        assert metrics.gauge("stream.watermark_seconds").value == watermarks[-1]
        accepted = metrics.counter(
            "stream.messages", {"outcome": "accepted"}
        ).value
        assert accepted == refresher.log.accepted > 0
    finally:
        obs.disable_all()
        obs.get_metrics().clear()
