"""Tests for the admin endpoint and flight recorder under serving load.

The admin server binds to port 0 (an OS-assigned free port) so tests
never collide with a real deployment.  The hot-refresh race test
hammers ``/healthz`` and ``/metrics`` from client threads while the
model store republishes snapshots — every response must be a clean
200/503 with a parseable body, never a 500.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro import cli
from repro.errors import InternalError
from repro.obs import DEFAULT_TIME_BUCKETS, MetricsRegistry, parse_prometheus_text
from repro.obs.export import validate_flight_record
from repro.obs.health import AdminServer, HealthMonitor
from repro.obs import health as obs_health
from repro.serve import EstimationRequest, QueryService, ServeConfig


def _get(url: str, timeout: float = 5.0):
    """``(status, body_text)`` for a GET, treating HTTP errors as data."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture()
def monitor():
    registry = MetricsRegistry(enabled=True)
    mon = HealthMonitor(registry=registry, interval_s=0.05)
    yield mon
    mon.close()


@pytest.fixture()
def admin(monitor):
    server = AdminServer(monitor, port=0, registry=monitor.registry)
    server.start()
    yield server
    server.close()


class TestAdminEndpoint:
    def test_healthz_and_metrics_and_index(self, monitor, admin):
        monitor.registry.counter("serve.completed", {"outcome": "ok"}).inc(3)
        monitor.tick()

        status, body = _get(admin.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert isinstance(payload["results"], list)

        status, body = _get(admin.url + "/metrics")
        assert status == 200
        parsed = parse_prometheus_text(body)
        assert "serve_completed_total" in parsed

        status, body = _get(admin.url + "/")
        assert status == 200
        assert "/flightrecorder" in json.loads(body)["routes"]

        status, _ = _get(admin.url + "/nope")
        assert status == 404

    def test_flightrecorder_endpoint_is_parseable(self, monitor, admin):
        monitor.tick()
        status, body = _get(admin.url + "/flightrecorder")
        assert status == 200
        document = json.loads(body)
        validate_flight_record(document)
        assert document["trigger"] == "endpoint"

    def test_healthz_reports_503_when_failing(self):
        registry = MetricsRegistry(enabled=True)
        slo = obs_health.SLO(
            name="serve.latency.p99",
            kind="quantile",
            metric="serve.latency_seconds",
            threshold=0.25,
            fast_window_s=0.03,
            slow_window_s=0.03,
        )
        monitor = HealthMonitor(registry=registry, slos=[slo])
        hist = registry.histogram("serve.latency_seconds", DEFAULT_TIME_BUCKETS)
        monitor.tick()
        for _ in range(10):
            hist.observe(2.0)
        time.sleep(0.05)
        monitor.tick()
        with AdminServer(monitor, port=0, registry=registry) as server:
            status, body = _get(server.url + "/healthz")
        monitor.close()
        assert status == 503
        assert json.loads(body)["status"] == "failing"


class TestHotRefreshRace:
    def test_endpoints_stay_consistent_during_refresh(
        self, tiny_system, monitor, admin
    ):
        """No 500s and parseable bodies while the store republishes."""
        monitor.set_info("store", tiny_system.store.health_info)
        monitor.start()
        store = tiny_system.store
        stop = threading.Event()
        failures = []

        def client() -> None:
            while not stop.is_set():
                for path in ("/healthz", "/metrics"):
                    status, body = _get(admin.url + path)
                    if status not in (200, 503):
                        failures.append((path, status, body[:200]))
                        continue
                    try:
                        if path == "/healthz":
                            json.loads(body)
                        else:
                            parse_prometheus_text(body)
                    except Exception as exc:  # pragma: no cover - fail path
                        failures.append((path, status, repr(exc)))

        clients = [threading.Thread(target=client) for _ in range(3)]
        for thread in clients:
            thread.start()
        try:
            base_version = store.version
            current = store.current()
            slots = [current.slot(s) for s in current.slots]
            for _ in range(20):
                store.publish(slots)
        finally:
            stop.set()
            for thread in clients:
                thread.join(timeout=10)
        assert not failures, failures[:3]
        assert store.version >= base_version + 20
        # The monitor's info providers see the refreshed store (the
        # cached report can lag a sampler interval, so force a tick).
        report = monitor.tick()
        assert report.info["store"]["store_version"] == store.version


class TestInternalErrorBlackBox:
    def test_worker_internal_error_triggers_auto_dump(
        self, tiny_system, tiny_dataset, monkeypatch
    ):
        registry = MetricsRegistry(enabled=True)
        monitor = HealthMonitor(registry=registry, min_dump_interval_s=0.0)
        obs_health.install(monitor)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic worker fault")

        monkeypatch.setattr(tiny_system, "_select_and_probe", boom)
        market = repro.CrowdMarket(
            tiny_dataset.network,
            tiny_dataset.pool,
            tiny_dataset.cost_model,
            rng=np.random.default_rng(7),
        )
        truth = repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        )
        try:
            with QueryService(
                tiny_system,
                market=market,
                truth=truth,
                config=ServeConfig(num_workers=1),
            ) as service:
                ticket = service.submit(
                    EstimationRequest(
                        queried=(0, 1), slot=tiny_dataset.slot, budget=5,
                    )
                )
                with pytest.raises(InternalError):
                    ticket.result(timeout=30)
        finally:
            obs_health.uninstall()
            monitor.close()

        document = monitor.recorder.last_dump
        assert document is not None
        validate_flight_record(document)
        assert document["trigger"] == "auto:serve"
        # The black box is serialisable end to end.
        round_tripped = json.loads(json.dumps(document))
        assert round_tripped["schema"] == document["schema"]
        errors = [
            event["attrs"].get("error")
            for event in document["events"]
            if event["level"] == "error"
        ]
        assert "InternalError" in errors


class TestReproTopCLI:
    def test_top_renders_one_frame(self, monitor, admin, capsys):
        monitor.registry.counter("serve.completed", {"outcome": "ok"}).inc(2)
        monitor.tick()
        code = cli.main(
            [
                "top",
                "--url",
                admin.url,
                "--iterations",
                "1",
                "--no-clear",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status" in out.lower()
        assert "slo" in out.lower()

    def test_top_unreachable_url_exits_nonzero(self, capsys):
        code = cli.main(
            [
                "top",
                "--url",
                "http://127.0.0.1:9",  # discard port: nothing listens
                "--iterations",
                "1",
                "--no-clear",
            ]
        )
        assert code != 0
