"""Property tests for the merge/dedup core (:class:`ObservationLog`).

Hypothesis searches for counterexamples to the invariants the streaming
layer is built on:

* **Order-insensitivity** — with the lateness horizon disabled, any
  permutation of the same message set (and any split into consecutive
  batches) yields bit-identical observations: aggregation sums in
  sorted msg-id order, never insertion order.
* **Idempotence** — re-ingesting an already-merged snapshot is a no-op
  (every message counts as a duplicate, no aggregate moves).
* **Watermark monotonicity** — the watermark is exactly the running max
  of every event timestamp seen and never regresses, whatever the
  arrival order.
* **No empty slot closes** — every :meth:`ObservationLog.close_slot`
  returns at least one observed road, so the refresher never publishes
  a slot from zero evidence.

Lateness is a deliberate exception to full-history permutation
invariance: which stragglers are dropped depends on when the watermark
passed them, i.e. on batch arrival order.  Within a *single* batch,
lateness is still decided against the pre-batch watermark, so batches
are internally order-insensitive — also checked here.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.stream import ObservationLog, ProbeMessage

N_ROADS = 5

_speeds = st.floats(
    min_value=0.5, max_value=200.0, allow_nan=False, allow_infinity=False
)
_timestamps = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

_messages = st.builds(
    ProbeMessage,
    road=st.integers(min_value=0, max_value=N_ROADS - 1),
    day=st.integers(min_value=0, max_value=1),
    slot=st.integers(min_value=0, max_value=3),
    speed_kmh=_speeds,
    ts=_timestamps,
    msg_id=st.text(alphabet="abcdef", min_size=1, max_size=3),
)

# A msg_id names one message: two distinct readings never share an id
# within their (day, slot, road) bucket (the adapter's content-derived
# ids guarantee this for real feeds).
_batches = st.lists(
    _messages,
    max_size=30,
    unique_by=lambda m: (m.day, m.slot, m.road, m.msg_id),
)


def _state(log: ObservationLog) -> dict:
    return {
        key: log.observations(*key)
        for key in log.open_slots()
    }


def _fresh_log() -> ObservationLog:
    return ObservationLog(N_ROADS, lateness_s=math.inf)


class TestOrderInsensitivity:
    @given(batch=_batches, permuted=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_permutation_yields_identical_observations(self, batch, permuted):
        shuffled = permuted.draw(st.permutations(batch))
        a, b = _fresh_log(), _fresh_log()
        ra = a.ingest(batch)
        rb = b.ingest(shuffled)
        assert _state(a) == _state(b)  # bit-identical floats
        assert (ra.accepted, ra.duplicates) == (rb.accepted, rb.duplicates)
        assert a.watermark == b.watermark

    @given(batch=_batches, cut=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_splits_merge_to_the_same_log(self, batch, cut):
        """Ingesting one batch vs. the same stream split at arbitrary
        points gives the same observations (merge associativity)."""
        point = cut.draw(st.integers(min_value=0, max_value=len(batch)))
        whole, split = _fresh_log(), _fresh_log()
        whole.ingest(batch)
        split.ingest(batch[:point])
        split.ingest(batch[point:])
        assert _state(whole) == _state(split)
        assert whole.accepted == split.accepted
        assert whole.watermark == split.watermark

    @given(batch=_batches, warm_ts=_timestamps)
    @settings(max_examples=60, deadline=None)
    def test_single_batch_lateness_ignores_within_batch_order(self, batch, warm_ts):
        """With a finite horizon, lateness inside one batch is decided
        against the pre-batch watermark — so reversing the batch cannot
        change what is accepted."""
        a = ObservationLog(N_ROADS, lateness_s=30.0)
        b = ObservationLog(N_ROADS, lateness_s=30.0)
        # Raise the watermark first so lateness can actually trigger.
        warmup = ProbeMessage(
            road=0, day=1, slot=3, speed_kmh=1.0, ts=warm_ts, msg_id="warmup"
        )
        a.ingest([warmup])
        b.ingest([warmup])
        ra = a.ingest(batch)
        rb = b.ingest(list(reversed(batch)))
        assert _state(a) == _state(b)
        assert ra.accepted == rb.accepted
        assert ra.late == rb.late


class TestIdempotence:
    @given(batch=_batches)
    @settings(max_examples=60, deadline=None)
    def test_reingest_is_a_noop(self, batch):
        log = _fresh_log()
        first = log.ingest(batch)
        before = _state(log)
        again = log.ingest(batch)
        assert again.accepted == 0
        assert again.duplicates == first.accepted
        assert _state(log) == before

    @given(batch=_batches, times=st.integers(min_value=2, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_repeated_overlap_never_skews_the_mean(self, batch, times):
        """However many times an overlapping snapshot re-sends the same
        messages, aggregates equal the single-ingest ones (duplication
        cannot bias the per-road mean)."""
        once, many = _fresh_log(), _fresh_log()
        once.ingest(batch)
        for _ in range(times):
            many.ingest(batch)
        assert _state(once) == _state(many)
        assert many.accepted == once.accepted


class TestWatermark:
    @given(stream=st.lists(_batches, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_watermark_is_the_running_max_and_monotone(self, stream):
        log = ObservationLog(N_ROADS, lateness_s=30.0)
        high = -math.inf
        previous = log.watermark
        for batch in stream:
            log.ingest(batch)
            for message in batch:
                high = max(high, message.ts)
            assert log.watermark == high
            assert log.watermark >= previous
            previous = log.watermark

    @given(stream=st.lists(_batches, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_counters_partition_the_stream(self, stream):
        """accepted + duplicates + late accounts for every message."""
        log = ObservationLog(N_ROADS, lateness_s=30.0)
        total = 0
        for batch in stream:
            result = log.ingest(batch)
            assert result.total == len(batch)
            total += len(batch)
        assert log.accepted + log.duplicates + log.late == total


class TestClosedSlots:
    @given(
        stream=st.lists(st.lists(_messages, max_size=30), max_size=5),
        lateness_s=st.sampled_from([0.0, 30.0, 600.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_closed_slot_has_an_observed_road(self, stream, lateness_s):
        """Late drops, redeliveries and drains never leave an empty bucket."""
        log = ObservationLog(N_ROADS, lateness_s=lateness_s)
        for batch in stream:
            log.ingest(batch)
            for key in log.closable():
                assert len(log.close_slot(key)) >= 1
        for key in log.open_slots():
            assert len(log.close_slot(key)) >= 1
        assert log.open_slots() == []
