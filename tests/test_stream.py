"""Unit and fault-injection tests for the streaming ingestion layer.

The adapter is the stream's exception boundary: raw feed garbage —
corrupt JSONL, missing fields, unknown roads, bad speeds, off-grid
slots, empty snapshots — must become *counted drops* (default) or a
typed :class:`FeedError` (strict), never a raw ``KeyError`` or
``ValueError`` (the contract ``tests/test_robustness.py`` enforces for
the crowd layer).  Behind the boundary, the ObservationLog and
StreamRefresher tests cover merge/dedup/late semantics, drain,
backpressure, and publisher-error propagation.
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.pipeline import CrowdRTSE
from repro.core.rtf import RTFModel, RTFSlot
from repro.core.store import ModelStore
from repro.errors import FeedError, ReproError, StreamError
from repro.stream import refresher as stream_refresher
from repro.stream import (
    DROP_REASONS,
    FeedAdapter,
    ObservationLog,
    ProbeMessage,
    StreamConfig,
    StreamRefresher,
    messages_from_trajectories,
    save_feed,
    slot_end_ts,
    slot_start_ts,
    synthesize_day_feed,
)
from repro.traffic.trajectories import TrajectoryGenerator


def _msg(road, slot=0, day=0, speed=50.0, ts=None, msg_id=None):
    if ts is None:
        ts = slot_start_ts(day, slot) + 10.0
    if msg_id is None:
        msg_id = f"r{road}.d{day}.t{slot}@{ts:.3f}"
    return ProbeMessage(
        road=road, day=day, slot=slot, speed_kmh=speed, ts=ts, msg_id=msg_id
    )


def _line(**overrides):
    payload = {"road": 0, "slot": 0, "speed_kmh": 42.0, "ts": 10.0}
    payload.update(overrides)
    return json.dumps({k: v for k, v in payload.items() if v is not ...})


def _flat_slot(net, slot, mu=50.0):
    return RTFSlot(
        slot=slot,
        mu=np.full(net.n_roads, float(mu)),
        sigma=np.full(net.n_roads, 3.0),
        rho=np.full(net.n_edges, 0.5),
    )


def _system(net, slots=(0, 1)):
    model = RTFModel(net, [_flat_slot(net, s) for s in slots])
    return CrowdRTSE(net, store=ModelStore(model))


class TestFeedAdapterFaults:
    """Malformed input is counted and dropped — never a raw exception."""

    @pytest.mark.parametrize(
        "line,reason",
        [
            ('{"road": 0, "slot": 0, "speed_', "corrupt"),  # truncated JSON
            ("not json at all", "corrupt"),
            ("[1, 2, 3]", "corrupt"),  # not an object
            ('"just a string"', "corrupt"),
            (_line(ts="soon"), "corrupt"),  # non-numeric ts
            (_line(road=...), "missing_field"),
            (_line(speed_kmh=...), "missing_field"),
            ('{"road": 0}', "missing_field"),
            (_line(road="no-such-road"), "unknown_road"),
            (_line(road=999), "unknown_road"),  # out of range
            (_line(road=-1), "unknown_road"),
            (_line(road=True), "unknown_road"),  # bool is not an index
            (_line(road=1.5), "unknown_road"),
            (_line(road=None), "unknown_road"),
            (_line(speed_kmh=0.0), "invalid_speed"),
            (_line(speed_kmh=-10.0), "invalid_speed"),
            (_line(speed_kmh="fast"), "invalid_speed"),
            ('{"road": 0, "slot": 0, "speed_kmh": NaN, "ts": 1.0}', "invalid_speed"),
            (
                '{"road": 0, "slot": 0, "speed_kmh": Infinity, "ts": 1.0}',
                "invalid_speed",
            ),
            (_line(slot=-1), "invalid_slot"),
            (_line(slot=288), "invalid_slot"),  # off the 5-minute grid
            (_line(slot="noon"), "invalid_slot"),
            (_line(slot=True), "invalid_slot"),
            (_line(day=-1), "invalid_slot"),
            (_line(day="today"), "invalid_slot"),
        ],
    )
    def test_bad_line_counts_one_drop(self, line_net, line, reason):
        adapter = FeedAdapter(line_net)
        messages = adapter.parse_snapshot([line])
        assert messages == []
        assert adapter.dropped[reason] == 1
        assert adapter.total_dropped == 1
        assert adapter.parsed == 0

    def test_strict_mode_raises_typed_error(self, line_net):
        adapter = FeedAdapter(line_net, strict=True)
        with pytest.raises(FeedError) as excinfo:
            adapter.parse_snapshot(["{broken"])
        assert excinfo.value.reason == "corrupt"
        assert isinstance(excinfo.value, ReproError)

    def test_strict_mode_names_the_reason(self, line_net):
        adapter = FeedAdapter(line_net, strict=True)
        with pytest.raises(FeedError) as excinfo:
            adapter.parse_snapshot([_line(road=999)], origin="probe.jsonl")
        assert excinfo.value.reason == "unknown_road"
        assert "probe.jsonl:1" in str(excinfo.value)

    def test_empty_snapshot_is_counted(self, line_net):
        adapter = FeedAdapter(line_net)
        assert adapter.parse_snapshot([]) == []
        assert adapter.parse_snapshot(["", "   ", "# comment only"]) == []
        assert adapter.dropped["empty_snapshot"] == 2
        with pytest.raises(FeedError):
            FeedAdapter(line_net, strict=True).parse_snapshot([])

    def test_bad_lines_do_not_poison_good_ones(self, line_net):
        adapter = FeedAdapter(line_net)
        messages = adapter.parse_snapshot(
            [_line(road=2), "{oops", _line(road=3, speed_kmh=-1.0), _line(road=4)]
        )
        assert [m.road for m in messages] == [2, 4]
        assert adapter.parsed == 2
        assert adapter.total_dropped == 2

    def test_drops_are_exported_as_metrics(self, line_net):
        obs.configure(metrics=True)
        try:
            obs.get_metrics().clear()
            adapter = FeedAdapter(line_net)
            adapter.parse_snapshot(["{oops", _line(road=999)])
            metrics = obs.get_metrics()
            assert metrics.counter("stream.dropped", {"reason": "corrupt"}).value == 1
            assert (
                metrics.counter("stream.dropped", {"reason": "unknown_road"}).value
                == 1
            )
            assert metrics.counter("stream.snapshots").value == 1
        finally:
            obs.disable_all()
            obs.get_metrics().clear()

    def test_every_drop_reason_is_catalogued(self, line_net):
        adapter = FeedAdapter(line_net)
        assert set(adapter.dropped) == set(DROP_REASONS)


class TestFeedAdapterParsing:
    def test_string_road_ids_resolve(self, line_net):
        name = line_net.road_ids[3]
        adapter = FeedAdapter(line_net)
        (message,) = adapter.parse_snapshot([_line(road=name)])
        assert message.road == 3

    def test_default_msg_id_dedups_exact_replays(self, line_net):
        adapter = FeedAdapter(line_net)
        line = _line(road=1, ts=12.5)
        first = adapter.parse_snapshot([line])
        second = adapter.parse_snapshot([line])
        assert first[0].msg_id == second[0].msg_id
        log = ObservationLog(line_net.n_roads)
        log.ingest(first)
        result = log.ingest(second)
        assert result.duplicates == 1 and result.accepted == 0

    def test_round_trip_through_feed_file(self, line_net, tmp_path):
        snapshots = [
            [_msg(0, ts=5.0), _msg(1, ts=20.0)],
            [_msg(1, ts=20.0), _msg(2, ts=40.0)],
        ]
        path = save_feed(snapshots, tmp_path / "feed.jsonl")
        adapter = FeedAdapter(line_net)
        parsed = adapter.parse_feed_file(path)
        assert parsed == snapshots
        assert adapter.total_dropped == 0

    def test_file_without_delimiters_is_one_snapshot(self, line_net, tmp_path):
        path = tmp_path / "flat.jsonl"
        path.write_text(_line(road=0) + "\n" + _line(road=1) + "\n")
        parsed = FeedAdapter(line_net).parse_feed_file(path)
        assert len(parsed) == 1 and len(parsed[0]) == 2


class TestObservationLog:
    def test_aggregate_is_mean_per_road(self, line_net):
        log = ObservationLog(line_net.n_roads)
        log.ingest(
            [
                _msg(0, speed=40.0, msg_id="a"),
                _msg(0, speed=60.0, msg_id="b"),
                _msg(1, speed=30.0, msg_id="c"),
            ]
        )
        assert log.observations(0, 0) == {0: 50.0, 1: 30.0}

    def test_reingest_is_idempotent(self, line_net):
        log = ObservationLog(line_net.n_roads)
        batch = [_msg(0, msg_id="a"), _msg(1, msg_id="b")]
        log.ingest(batch)
        before = log.observations(0, 0)
        result = log.ingest(batch)
        assert result.accepted == 0 and result.duplicates == 2
        assert log.observations(0, 0) == before

    def test_watermark_tracks_event_time_high_water(self, line_net):
        log = ObservationLog(line_net.n_roads, lateness_s=math.inf)
        assert log.watermark == -math.inf
        log.ingest([_msg(0, ts=100.0)])
        log.ingest([_msg(1, ts=50.0)])  # out of order: no regression
        assert log.watermark == 100.0

    def test_late_messages_are_dropped_after_horizon(self, line_net):
        log = ObservationLog(line_net.n_roads, lateness_s=30.0)
        # Advance the watermark past slot (0, 0)'s end + horizon.
        log.ingest([_msg(0, slot=1, ts=slot_end_ts(0, 0) + 30.0)])
        result = log.ingest([_msg(1, slot=0, ts=slot_start_ts(0, 0) + 5.0)])
        assert result.late == 1 and result.accepted == 0
        assert log.late == 1
        assert log.observations(0, 0) == {}

    def test_straggler_within_horizon_is_merged(self, line_net):
        log = ObservationLog(line_net.n_roads, lateness_s=120.0)
        log.ingest([_msg(0, slot=1, ts=slot_end_ts(0, 0) + 60.0)])
        result = log.ingest([_msg(1, slot=0, ts=slot_start_ts(0, 0) + 5.0)])
        assert result.accepted == 1
        assert 1 in log.observations(0, 0)

    def test_lateness_decided_against_previous_batch_watermark(self, line_net):
        # A batch that both advances the watermark far ahead and carries
        # an old reading still merges the old reading: lateness uses the
        # watermark as of the previous batch, so batches are internally
        # order-insensitive.
        log = ObservationLog(line_net.n_roads, lateness_s=0.0)
        result = log.ingest(
            [
                _msg(0, slot=3, ts=slot_start_ts(0, 3) + 1.0),
                _msg(1, slot=0, ts=slot_start_ts(0, 0) + 1.0),
            ]
        )
        assert result.accepted == 2 and result.late == 0
        # ... but the *next* batch sees the raised watermark.
        late = log.ingest([_msg(2, slot=0, ts=slot_start_ts(0, 0) + 2.0)])
        assert late.late == 1

    def test_closable_lists_passed_slots_oldest_first(self, line_net):
        log = ObservationLog(line_net.n_roads, lateness_s=60.0)
        log.ingest([_msg(0, slot=0), _msg(0, slot=1)])
        # Watermark is slot 1's start + 10s: inside slot 0's horizon.
        assert log.closable() == []
        log.ingest([_msg(0, slot=3, ts=slot_start_ts(0, 3) + 1.0)])
        assert log.closable() == [(0, 0), (0, 1)]

    def test_close_slot_pops_the_bucket(self, line_net):
        log = ObservationLog(line_net.n_roads)
        log.ingest([_msg(2, speed=33.0)])
        assert log.close_slot((0, 0)) == {2: 33.0}
        assert log.open_slots() == []
        with pytest.raises(StreamError):
            log.close_slot((0, 0))

    def test_out_of_range_road_is_a_contract_violation(self, line_net):
        log = ObservationLog(line_net.n_roads)
        with pytest.raises(StreamError, match="adapter"):
            log.ingest([_msg(line_net.n_roads)])

    def test_constructor_validation(self):
        with pytest.raises(StreamError):
            ObservationLog(0)
        with pytest.raises(StreamError):
            ObservationLog(4, lateness_s=-1.0)
        with pytest.raises(StreamError):
            ObservationLog(4, lateness_s=math.nan)


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": 1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(StreamError):
            StreamConfig(**kwargs)


class TestStreamRefresher:
    def test_sync_end_to_end_publishes_closed_slots(self, line_net):
        system = _system(line_net, slots=(0, 1))
        config = StreamConfig(
            lateness_s=0.0, learning_rate=0.5, async_publish=False
        )
        with StreamRefresher(system, config) as refresher:
            refresher.ingest([_msg(0, slot=0, speed=70.0, msg_id="a")])
            # Advancing past slot 0 closes and publishes it inline.
            refresher.ingest([_msg(0, slot=1, ts=slot_start_ts(0, 1) + 1.0)])
            assert system.store.version == 2
            assert system.store.current().slot(0).mu[0] == pytest.approx(60.0)
        # Context exit drains the trailing open slot 1.
        assert system.store.version == 3
        assert refresher.stats.published_slots == 2

    def test_drain_flushes_open_slots_without_closing(self, line_net):
        system = _system(line_net)
        refresher = StreamRefresher(
            system, StreamConfig(async_publish=False, learning_rate=0.5)
        )
        refresher.ingest([_msg(0, slot=0, speed=70.0)])
        assert system.store.version == 1
        refresher.drain()
        assert system.store.version == 2
        # Still open for business after a drain.
        refresher.ingest([_msg(1, slot=1, ts=slot_start_ts(0, 1) + 1.0)])
        refresher.close()
        assert system.store.version == 3

    def test_publish_lag_is_event_time(self, line_net):
        system = _system(line_net)
        config = StreamConfig(
            lateness_s=60.0, learning_rate=0.5, async_publish=False
        )
        with StreamRefresher(system, config) as refresher:
            refresher.ingest([_msg(0, slot=0, ts=10.0)])
            close_ts = slot_end_ts(0, 0) + 61.0
            refresher.ingest([_msg(0, slot=1, ts=close_ts)])
            # Lag = watermark at publish minus the slot's end.
            assert refresher.stats.last_publish_lag_s == pytest.approx(61.0)
            assert refresher.stats.max_publish_lag_s == pytest.approx(61.0)

    def test_unfitted_slot_is_counted_not_published(self, line_net):
        from repro import errors

        errors.reset_deprecation_warnings()
        system = _system(line_net, slots=(0,))
        config = StreamConfig(
            lateness_s=0.0, learning_rate=0.5, async_publish=False
        )
        with StreamRefresher(system, config) as refresher:
            with pytest.warns(RuntimeWarning, match="fitted slot range"):
                refresher.ingest(
                    [
                        _msg(0, slot=5, ts=slot_start_ts(0, 5) + 1.0),
                        _msg(0, slot=7, ts=slot_start_ts(0, 7) + 1.0),
                    ]
                )
        # Both the watermark-closed slot 5 and the drained slot 7 count.
        assert refresher.stats.skipped_unfitted == 2
        assert refresher.stats.publishes == 0
        assert system.store.version == 1
        errors.reset_deprecation_warnings()

    def test_backpressure_blocks_the_feed_thread(self, line_net, monkeypatch):
        system = _system(line_net, slots=(0, 1, 2, 3))
        release = threading.Event()
        original = CrowdRTSE.refresh

        def slow_refresh(self, day_samples, learning_rate):
            release.wait(timeout=10.0)
            return original(self, day_samples, learning_rate=learning_rate)

        monkeypatch.setattr(CrowdRTSE, "refresh", slow_refresh)
        monkeypatch.setattr(stream_refresher, "_MAX_PENDING", 1)
        monkeypatch.setattr(stream_refresher, "_MAX_SLOTS_PER_PUBLISH", 1)
        config = StreamConfig(lateness_s=0.0, learning_rate=0.5)
        refresher = StreamRefresher(system, config)
        done = threading.Event()

        def feed():
            # Slot k closes when slot k+1's first message raises the
            # watermark; with the publisher stalled, the queue fills and
            # ingest must block instead of growing it.
            for slot in range(4):
                refresher.ingest(
                    [_msg(0, slot=slot, ts=slot_start_ts(0, slot) + 1.0)]
                )
            refresher.drain()
            done.set()

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        stalled = not done.wait(timeout=0.5)
        release.set()
        assert done.wait(timeout=10.0), "feed thread never unblocked"
        feeder.join(timeout=10.0)
        refresher.close()
        assert stalled, "feed was never throttled by the full queue"
        assert refresher.stats.backpressure_waits >= 1
        assert refresher.stats.max_pending_seen <= 1
        assert refresher.stats.published_slots == 4

    def test_publisher_failure_surfaces_as_stream_error(self, line_net, monkeypatch):
        system = _system(line_net)

        def broken_refresh(self, day_samples, learning_rate):
            raise repro.ReproError("store exploded")

        monkeypatch.setattr(CrowdRTSE, "refresh", broken_refresh)
        config = StreamConfig(
            lateness_s=0.0, learning_rate=0.5, async_publish=False
        )
        refresher = StreamRefresher(system, config)
        refresher.ingest([_msg(0, slot=0)])
        with pytest.raises(StreamError, match="store exploded"):
            refresher.ingest([_msg(0, slot=2, ts=slot_start_ts(0, 2) + 1.0)])

    def test_async_publisher_failure_reaches_close(self, line_net, monkeypatch):
        system = _system(line_net)

        def broken_refresh(self, day_samples, learning_rate):
            raise repro.ReproError("store exploded")

        monkeypatch.setattr(CrowdRTSE, "refresh", broken_refresh)
        refresher = StreamRefresher(
            system, StreamConfig(lateness_s=0.0, learning_rate=0.5)
        )
        refresher.ingest([_msg(0, slot=0)])
        refresher.ingest([_msg(0, slot=2, ts=slot_start_ts(0, 2) + 1.0)])
        with pytest.raises(StreamError, match="store exploded"):
            refresher.close()
        # close() stays idempotent: the stored error is re-raised.
        with pytest.raises(StreamError, match="store exploded"):
            refresher.close()

    def test_ingest_after_close_is_refused(self, line_net):
        system = _system(line_net)
        refresher = StreamRefresher(system, StreamConfig(async_publish=False))
        refresher.close()
        with pytest.raises(StreamError, match="closed"):
            refresher.ingest([_msg(0)])
        with pytest.raises(StreamError, match="closed"):
            refresher.drain()


class TestSynth:
    def test_feed_is_deterministic_under_seed(self, tiny_dataset):
        kwargs = dict(slots=[tiny_dataset.slot], coverage=0.3, seed=9)
        first = synthesize_day_feed(tiny_dataset.test_history, 0, **kwargs)
        second = synthesize_day_feed(tiny_dataset.test_history, 0, **kwargs)
        assert first == second
        assert sum(len(s) for s in first) > 0

    def test_overlap_duplicates_dedup_to_distinct_ids(self, tiny_dataset):
        feed = synthesize_day_feed(
            tiny_dataset.test_history,
            0,
            slots=[tiny_dataset.slot],
            coverage=0.5,
            overlap_fraction=0.5,
            seed=3,
        )
        flat = [m for snapshot in feed for m in snapshot]
        distinct = {m.msg_id for m in flat}
        assert len(flat) > len(distinct), "overlap produced no resends"
        log = ObservationLog(
            tiny_dataset.network.n_roads, lateness_s=math.inf
        )
        total = 0
        for snapshot in feed:
            result = log.ingest(snapshot)
            total += result.accepted
        assert total == len(distinct)

    def test_disorder_stays_within_horizon(self, tiny_dataset):
        disorder = 20.0
        feed = synthesize_day_feed(
            tiny_dataset.test_history,
            0,
            slots=[tiny_dataset.slot],
            disorder_s=disorder,
            seed=5,
        )
        flat = [m for snapshot in feed for m in snapshot]
        high = -math.inf
        for message in flat:
            high = max(high, message.ts)
            assert message.ts >= high - 2 * disorder

    def test_validation(self, tiny_dataset):
        history = tiny_dataset.test_history
        with pytest.raises(StreamError):
            synthesize_day_feed(history, 0, coverage=0.0)
        with pytest.raises(StreamError):
            synthesize_day_feed(history, history.n_days)
        with pytest.raises(StreamError):
            synthesize_day_feed(history, 0, max_readings_per_road=0)
        with pytest.raises(StreamError):
            synthesize_day_feed(history, 0, snapshot_every_s=0.0)

    def test_messages_from_trajectories(self, small_world):
        network = small_world["network"]
        history = small_world["history"]
        slot = small_world["slot"]
        generator = TrajectoryGenerator(
            network, history.day(0)[history.local_slot(slot)], seed=21
        )
        trajectories = [
            generator.drive(f"v{k}", start_road=k, duration_s=180.0)
            for k in range(4)
        ]
        messages = messages_from_trajectories(
            network, trajectories, day=0, slot=slot
        )
        assert messages, "no dwell long enough to yield a speed"
        start = slot_start_ts(0, slot)
        for message in messages:
            assert 0 <= message.road < network.n_roads
            assert message.speed_kmh > 0.0
            assert message.ts >= start
        # The feed boundary accepts its own synthesis.
        log = ObservationLog(network.n_roads, lateness_s=math.inf)
        result = log.ingest(messages)
        assert result.accepted == len(messages)
