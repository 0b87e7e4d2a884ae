"""Tests for the operational health layer (repro.obs.health).

Covers the metrics time-series windowing, bucket-quantile estimation,
the fast/slow burn-rate SLO engine, the flight recorder, and the
end-to-end acceptance scenario: an injected latency regression flips
the health status from ok to failing within two sampler windows.

The sampler thread is never started here — tests drive
``HealthMonitor.tick()`` (or ``MetricsTimeSeries.sample_now()``)
manually so window boundaries are deterministic.
"""

from __future__ import annotations

import math
import time

import pytest

from repro import obs
from repro.obs import DEFAULT_TIME_BUCKETS, MetricsRegistry, bucket_quantile
from repro.obs.export import validate_flight_record
from repro.obs.health import (
    SLO,
    FlightRecorder,
    HealthMonitor,
    HealthStatus,
    MetricsTimeSeries,
    SLOEngine,
    default_slos,
)


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


def _sleep_past(seconds: float) -> None:
    """Sleep just past a window boundary (monotonic-clock granularity)."""
    time.sleep(seconds + 0.01)


class TestBucketQuantile:
    def test_empty_histogram_is_nan(self):
        assert math.isnan(bucket_quantile((1.0, 2.0), (0, 0, 0), 0.5))

    def test_single_bucket_interpolates_from_zero(self):
        # 10 observations in (0, 1]: the median lands mid-bucket.
        value = bucket_quantile((1.0, 2.0), (10, 0, 0), 0.5)
        assert 0.0 < value <= 1.0

    def test_monotone_in_q(self, registry):
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        for v in (0.001, 0.004, 0.02, 0.02, 0.3, 1.2):
            hist.observe(v)
        quantiles = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] > 0

    def test_overflow_bucket_clamps_to_last_edge(self):
        edges = (1.0, 2.0)
        assert bucket_quantile(edges, (0, 0, 5), 0.99) == 2.0

    def test_disabled_histogram_quantile_is_zero(self):
        disabled = MetricsRegistry(enabled=False)
        assert disabled.histogram("x", (1.0,)).quantile(0.99) == 0.0

    def test_matches_known_interpolation(self):
        # 4 obs in (1,2], 4 in (2,4]: p50 is the upper edge of bucket 1.
        assert bucket_quantile((1.0, 2.0, 4.0), (0, 4, 4, 0), 0.5) == 2.0


class TestMetricsTimeSeries:
    def test_needs_two_samples_for_a_window(self, registry):
        series = MetricsTimeSeries(registry)
        assert series.window(10.0) is None
        series.sample_now()
        assert series.window(10.0) is None
        series.sample_now()
        assert series.window(10.0) is not None

    def test_counter_delta_and_rate(self, registry):
        series = MetricsTimeSeries(registry)
        counter = registry.counter("serve.completed", {"outcome": "ok"})
        counter.inc(5)
        series.sample_now()
        counter.inc(10)
        _sleep_past(0.02)
        series.sample_now()
        assert series.counter_delta("serve.completed", 60.0) == 10.0
        assert series.rate("serve.completed", 60.0) > 0
        # Label filter: the error outcome saw nothing.
        assert (
            series.counter_delta("serve.completed", 60.0, {"outcome": "error"}) == 0.0
        )

    def test_short_history_degrades_to_shorter_window(self, registry):
        series = MetricsTimeSeries(registry)
        counter = registry.counter("stream.publishes")
        series.sample_now()
        counter.inc(3)
        series.sample_now()
        # Asking for an hour still uses the 2-sample history.
        assert series.counter_delta("stream.publishes", 3600.0) == 3.0

    def test_fast_window_excludes_old_activity(self, registry):
        series = MetricsTimeSeries(registry)
        counter = registry.counter("serve.admitted")
        counter.inc(100)
        series.sample_now()
        _sleep_past(0.05)
        series.sample_now()  # counter unchanged since last sample
        # A window much narrower than the gap only spans the last pair.
        assert series.counter_delta("serve.admitted", 0.04) == 0.0
        assert series.counter_delta("serve.admitted", 3600.0) == 0.0

    def test_gauge_value_reads_latest(self, registry):
        series = MetricsTimeSeries(registry)
        gauge = registry.gauge("stream.publish_lag_seconds")
        gauge.set(12.0)
        series.sample_now()
        gauge.set(99.0)
        series.sample_now()
        assert series.gauge_value("stream.publish_lag_seconds") == 99.0
        assert series.gauge_value("no.such.gauge") is None

    def test_histogram_window_quantile(self, registry):
        series = MetricsTimeSeries(registry)
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        hist.observe(0.001)
        series.sample_now()
        for _ in range(20):
            hist.observe(1.0)
        _sleep_past(0.02)
        series.sample_now()
        window = series.histogram_delta("serve.latency_seconds", 60.0)
        assert window is not None and window.count == 20.0
        # The old 1 ms observation is outside the window's delta.
        assert series.quantile("serve.latency_seconds", 0.5, 60.0) > 0.5
        assert math.isnan(series.quantile("absent.metric", 0.5, 60.0))

    def test_capacity_bounds_memory(self, registry):
        series = MetricsTimeSeries(registry, capacity=4)
        for _ in range(10):
            series.sample_now()
        samples = series.samples()
        assert len(samples) == 4
        # Indices keep growing even as old samples fall off.
        assert samples[-1].index == 9

    def test_rejects_tiny_capacity(self, registry):
        with pytest.raises(ValueError):
            MetricsTimeSeries(registry, capacity=1)


def _latency_slo(threshold=0.25, fast=0.05, slow=0.15, min_count=1.0):
    return SLO(
        name="serve.latency.p99",
        kind="quantile",
        metric="serve.latency_seconds",
        quantile=0.99,
        threshold=threshold,
        fast_window_s=fast,
        slow_window_s=slow,
        min_count=min_count,
    )


class TestSLOEngine:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="nope", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="ratio", metric="m", threshold=1.0)  # no denominator
        with pytest.raises(ValueError):
            SLO(
                name="x", kind="gauge", metric="m", threshold=1.0,
                fast_window_s=10.0, slow_window_s=5.0,
            )
        with pytest.raises(ValueError):
            SLOEngine(
                [_latency_slo(), _latency_slo()],
                MetricsTimeSeries(MetricsRegistry()),
            )

    def test_no_data_reports_ok(self, registry):
        series = MetricsTimeSeries(registry)
        engine = SLOEngine([_latency_slo()], series)
        report = engine.evaluate()
        assert report.status is HealthStatus.OK
        assert report.results[0].fast.value is None

    def test_fast_only_violation_is_degraded(self, registry):
        series = MetricsTimeSeries(registry)
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        series.sample_now()
        # Slow window: a long healthy history (deep enough that the
        # later burst stays under the 1% tail).
        for _ in range(2000):
            hist.observe(0.001)
        _sleep_past(0.1)
        series.sample_now()
        # Fast window: a burst of slow requests only in the last slice.
        # The pre-burst sample must be at least fast_window_s older than
        # the final one so the fast window excludes the healthy history.
        for _ in range(10):
            hist.observe(2.0)
        _sleep_past(0.05)
        series.sample_now()
        engine = SLOEngine([_latency_slo(fast=0.05, slow=10.0)], series)
        report = engine.evaluate()
        result = report.results[0]
        assert result.fast.violated
        # The slow window still holds the 100 fast observations, so its
        # p99 stays under the threshold -> degraded, not failing.
        assert not result.slow.violated
        assert report.status is HealthStatus.DEGRADED
        assert report.alerts and report.alerts[0].severity is HealthStatus.DEGRADED

    def test_both_windows_violated_is_failing(self, registry):
        series = MetricsTimeSeries(registry)
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        series.sample_now()
        for _ in range(10):
            hist.observe(2.0)
        _sleep_past(0.06)
        series.sample_now()
        engine = SLOEngine([_latency_slo(fast=0.05, slow=0.05)], series)
        report = engine.evaluate()
        assert report.status is HealthStatus.FAILING

    def test_ratio_slo(self, registry):
        series = MetricsTimeSeries(registry)
        ok = registry.counter("serve.completed", {"outcome": "ok"})
        err = registry.counter("serve.completed", {"outcome": "error"})
        series.sample_now()
        ok.inc(5)
        err.inc(5)
        _sleep_past(0.02)
        series.sample_now()
        slo = SLO(
            name="serve.error.rate",
            kind="ratio",
            metric="serve.completed",
            labels={"outcome": "error"},
            denominator="serve.completed",
            threshold=0.05,
            fast_window_s=1.0,
            slow_window_s=1.0,
            min_count=5.0,
        )
        report = SLOEngine([slo], series).evaluate()
        assert report.results[0].fast.value == 0.5
        assert report.status is HealthStatus.FAILING

    def test_gauge_slo(self, registry):
        series = MetricsTimeSeries(registry)
        registry.gauge("stream.publish_lag_seconds").set(1000.0)
        series.sample_now()
        slo = SLO(
            name="stream.publish.lag",
            kind="gauge",
            metric="stream.publish_lag_seconds",
            threshold=600.0,
            fast_window_s=1.0,
            slow_window_s=1.0,
        )
        report = SLOEngine([slo], series).evaluate()
        assert report.status is HealthStatus.FAILING

    def test_default_slos_cover_serve_and_stream(self):
        slos = default_slos()
        names = {slo.name for slo in slos}
        assert "serve.latency.p99" in names
        assert "stream.publish.lag" in names
        assert len(names) == len(slos)

    def test_report_is_jsonable(self, registry):
        import json

        series = MetricsTimeSeries(registry)
        series.sample_now()
        report = SLOEngine(default_slos(), series).evaluate(info={"k": 1})
        parsed = json.loads(json.dumps(report.as_dict()))
        assert parsed["status"] == "ok"
        assert parsed["info"] == {"k": 1}


class TestFlightRecorder:
    def test_dump_validates_and_ring_bounds(self, registry):
        recorder = FlightRecorder(max_events=3)
        for k in range(10):
            recorder.note("warn", f"event {k}", k=k)
        series = MetricsTimeSeries(registry)
        registry.counter("serve.admitted").inc()
        recorder.record_sample(series.sample_now())
        document = recorder.dump()
        validate_flight_record(document)
        assert len(document["events"]) == 3
        assert document["events"][-1]["message"] == "event 9"
        assert document["samples"][0]["snapshot"]["counters"]

    def test_dump_includes_tracer_tail_and_health(self, registry):
        from repro.obs import Tracer

        tracer = Tracer(enabled=True)
        with tracer.span("serve.batch"):
            pass
        series = MetricsTimeSeries(registry)
        series.sample_now()
        report = SLOEngine([_latency_slo()], series).evaluate()
        recorder = FlightRecorder()
        document = recorder.dump(trigger="auto:serve", tracer=tracer, report=report)
        validate_flight_record(document)
        assert document["trigger"] == "auto:serve"
        assert document["spans"][-1]["name"] == "serve.batch"
        assert document["health"]["status"] == "ok"

    def test_dump_json_writes_file(self, registry, tmp_path):
        recorder = FlightRecorder()
        path = tmp_path / "flight.json"
        recorder.dump_json(str(path))
        import json

        validate_flight_record(json.loads(path.read_text()))

    def test_dump_index_increments(self):
        recorder = FlightRecorder()
        first = recorder.dump()
        second = recorder.dump()
        assert second["dump_index"] == first["dump_index"] + 1
        assert recorder.last_dump == second


class TestHealthMonitor:
    def test_tick_publishes_status_and_meta_metrics(self, registry):
        monitor = HealthMonitor(
            registry=registry, slos=[_latency_slo()], interval_s=0.05
        )
        report = monitor.tick()
        assert report.status is HealthStatus.OK
        assert monitor.status() is HealthStatus.OK
        snapshot = registry.snapshot()
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "health.samples" in names and "slo.evaluations" in names
        gauges = {entry["name"]: entry["value"] for entry in snapshot["gauges"]}
        assert gauges["health.status"] == 0

    def test_report_ticks_inline_without_thread(self, registry):
        monitor = HealthMonitor(registry=registry, slos=[_latency_slo()])
        assert monitor.report().status is HealthStatus.OK

    def test_info_providers_feed_the_report(self, registry):
        monitor = HealthMonitor(registry=registry, slos=[_latency_slo()])
        monitor.set_info("store_version", lambda: 7)
        monitor.set_info("broken", lambda: 1 / 0)
        report = monitor.tick()
        assert report.info["store_version"] == 7
        assert "error" in str(report.info["broken"])

    def test_sampler_thread_ticks_and_stops(self, registry):
        with HealthMonitor(
            registry=registry, slos=[_latency_slo()], interval_s=0.02
        ) as monitor:
            deadline = time.monotonic() + 5.0
            while not monitor.series.samples() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert monitor.series.samples()
        # After close the thread is gone and ticks stop.
        count = len(monitor.series.samples())
        time.sleep(0.06)
        assert len(monitor.series.samples()) == count

    def test_record_failure_notes_and_rate_limits_dumps(self, registry):
        monitor = HealthMonitor(
            registry=registry, slos=[_latency_slo()], min_dump_interval_s=3600.0
        )
        error = RuntimeError("boom")
        monitor.record_failure("serve", error)
        first = monitor.recorder.last_dump
        assert first is not None and first["trigger"] == "auto:serve"
        monitor.record_failure("serve", error)
        # Second failure inside the interval: noted, but no new dump.
        assert monitor.recorder.last_dump["dump_index"] == first["dump_index"]
        assert monitor.recorder.event_count() == 2

    def test_record_failure_writes_dump_dir(self, registry, tmp_path):
        import json

        monitor = HealthMonitor(
            registry=registry, slos=[_latency_slo()], dump_dir=str(tmp_path)
        )
        monitor.record_failure("stream", RuntimeError("publish failed"))
        files = list(tmp_path.glob("flightrecorder-*.json"))
        assert len(files) == 1
        validate_flight_record(json.loads(files[0].read_text()))

    def test_installed_monitor_routes_failures(self, registry):
        from repro.obs import health as obs_health

        monitor = HealthMonitor(registry=registry, slos=[_latency_slo()])
        obs_health.install(monitor)
        try:
            assert obs_health.get_monitor() is monitor
            obs_health.record_failure("serve", RuntimeError("x"))
            assert monitor.recorder.event_count() == 1
        finally:
            obs_health.uninstall()
        # Uninstalled: silently ignored.
        obs_health.record_failure("serve", RuntimeError("y"))
        assert obs_health.get_monitor() is None

    def test_rejects_bad_interval(self, registry):
        with pytest.raises(ValueError):
            HealthMonitor(registry=registry, interval_s=0.0)


class TestLatencyRegressionEndToEnd:
    """Acceptance: an injected latency regression flips ok -> failing
    within two sampler windows (burn-rate evaluation over fast+slow)."""

    def test_regression_flips_healthz_within_two_windows(self, registry):
        window_s = 0.08
        monitor = HealthMonitor(
            registry=registry,
            slos=[
                _latency_slo(
                    threshold=0.25, fast=window_s, slow=2 * window_s, min_count=1.0
                )
            ],
            interval_s=window_s / 2,
        )
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        # Healthy baseline traffic across one full slow window.
        for _ in range(4):
            for _ in range(5):
                hist.observe(0.002)
            _sleep_past(window_s / 2)
            assert monitor.tick().status is HealthStatus.OK

        # Inject the regression: every request now takes ~2 s.
        flipped_at = None
        for tick in range(1, 5):
            for _ in range(5):
                hist.observe(2.0)
            _sleep_past(window_s)
            if monitor.tick().status is HealthStatus.FAILING:
                flipped_at = tick
                break
        assert flipped_at is not None and flipped_at <= 2, (
            f"expected FAILING within two windows, flipped at {flipped_at}"
        )

    def test_healthz_payload_reflects_failing(self, registry):
        monitor = HealthMonitor(
            registry=registry,
            slos=[_latency_slo(fast=0.03, slow=0.03)],
        )
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        monitor.tick()
        for _ in range(10):
            hist.observe(2.0)
        _sleep_past(0.04)
        report = monitor.tick()
        assert report.status is HealthStatus.FAILING
        assert monitor.should_shed()
        payload = report.as_dict()
        assert payload["status"] == "failing"
        assert payload["alerts"]


def _failing_monitor() -> HealthMonitor:
    """A monitor whose last evaluation is FAILING (latency blown)."""
    registry = MetricsRegistry(enabled=True)
    monitor = HealthMonitor(
        registry=registry, slos=[_latency_slo(fast=0.03, slow=0.03)]
    )
    hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
    monitor.tick()
    for _ in range(10):
        hist.observe(2.0)
    _sleep_past(0.04)
    monitor.tick()
    assert monitor.should_shed()
    return monitor


class TestShedOnFailing:
    def test_query_service_sheds_when_monitor_failing(
        self, tiny_system, tiny_dataset
    ):
        from repro.errors import OverloadedError
        from repro.obs import health as obs_health
        from repro.serve import EstimationRequest, QueryService, ServeConfig

        request = EstimationRequest(
            queried=(0, 1), slot=tiny_dataset.slot, budget=5, warm_start=False
        )
        obs_health.install(_failing_monitor())
        try:
            service = QueryService(
                tiny_system,
                config=ServeConfig(num_workers=1, max_queue_depth=4),
                autostart=False,
            )
            # Below half-full: still admitted even while failing.
            service.submit(request)
            service.submit(request)
            # At half-full with a FAILING monitor: shed.
            with pytest.raises(OverloadedError):
                service.submit(request)
            service.close(drain=False)
        finally:
            obs_health.uninstall()

    def test_shedding_disabled_by_config(self, tiny_system, tiny_dataset):
        from repro.obs import health as obs_health
        from repro.serve import EstimationRequest, QueryService, ServeConfig

        request = EstimationRequest(
            queried=(0, 1), slot=tiny_dataset.slot, budget=5, warm_start=False
        )
        obs_health.install(_failing_monitor())
        try:
            service = QueryService(
                tiny_system,
                config=ServeConfig(
                    num_workers=1, max_queue_depth=4, shed_on_failing=False
                ),
                autostart=False,
            )
            for _ in range(4):
                service.submit(request)
            service.close(drain=False)
        finally:
            obs_health.uninstall()
