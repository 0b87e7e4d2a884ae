"""Unit/integration tests for the serving layer (repro.serve).

Covers the ISSUE 4 serving contract: bounded admission with typed
backpressure, deadline expiry (degrade vs raise), coalescing
correctness against a sequential ``answer_query`` oracle, and the
degraded fallback's provable equivalence to the Per baseline.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import errors
from repro.baselines import EstimationContext, PeriodicEstimator, periodic_field
from repro.core.pipeline import Deadline
from repro.serve import (
    DEGRADED_BUDGET,
    DEGRADED_DEADLINE,
    EstimationRequest,
    QueryService,
    ReplayReport,
    ServeConfig,
    load_workload,
    replay,
    save_workload,
    synthesize_workload,
)

N_SERVE_SLOTS = 3


@pytest.fixture(scope="module")
def serve_world(tiny_dataset):
    """A CrowdRTSE fitted over a window of slots, for mixed-slot serving."""
    slots = [
        s
        for s in range(tiny_dataset.slot, tiny_dataset.slot + N_SERVE_SLOTS)
        if s in tiny_dataset.train_history.global_slots
    ]
    system = repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=slots
    )
    truths = {
        s: repro.truth_oracle_for(tiny_dataset.test_history, 0, s) for s in slots
    }
    return {"data": tiny_dataset, "system": system, "slots": slots, "truths": truths}


def make_market(data, seed):
    return repro.CrowdMarket(
        data.network, data.pool, data.cost_model, rng=np.random.default_rng(seed)
    )


def make_request(world, slot=None, seed=0, **overrides):
    data = world["data"]
    slot = world["slots"][0] if slot is None else slot
    kwargs = dict(
        queried=tuple(data.queried[:8]),
        slot=slot,
        budget=15,
        market=make_market(data, seed),
        truth=world["truths"][slot],
        rng=np.random.default_rng(seed),
        warm_start=False,
    )
    kwargs.update(overrides)
    return EstimationRequest(**kwargs)


class CountingMarket:
    """Delegating market that counts probe calls."""

    def __init__(self, inner):
        self._inner = inner
        self.probe_calls = 0

    def probe(self, roads, truth, ledger=None):
        self.probe_calls += 1
        return self._inner.probe(roads, truth, ledger)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FailingMarket:
    """Market whose crowd is gone: every probe raises NoWorkersError."""

    def __init__(self, inner):
        self._inner = inner

    def probe(self, roads, truth, ledger=None):
        raise errors.NoWorkersError("no drivers on any selected road")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class SignallingMarket:
    """Delegating market that sets an event once it has probed."""

    def __init__(self, inner, probed):
        self._inner = inner
        self._probed = probed

    def probe(self, roads, truth, ledger=None):
        answer = self._inner.probe(roads, truth, ledger)
        self._probed.set()
        return answer

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"max_queue_depth": 0},
            {"max_coalesce": 0},
            {"coalesce_window_s": -0.1},
            {"degrade_margin_s": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(errors.ServeError):
            ServeConfig(**kwargs)


class TestDeadline:
    def test_check_raises_typed_timeout_after_expiry(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        with pytest.raises(errors.QueryTimeoutError) as excinfo:
            deadline.check("probe")
        assert excinfo.value.stage == "probe"
        assert excinfo.value.deadline_seconds == 0.0

    def test_remaining_positive_before_expiry(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 60.0
        deadline.check("ocs")  # no raise


class TestAdmission:
    def test_served_result_matches_direct_answer_query(self, serve_world):
        request = make_request(serve_world, seed=11)
        with QueryService(serve_world["system"]) as service:
            served = service.serve(request)
        direct = serve_world["system"].answer_query(
            EstimationRequest(
                queried=request.queried,
                slot=request.slot,
                budget=request.budget,
                rng=np.random.default_rng(11),
                warm_start=False,
            ),
            market=make_market(serve_world["data"], 11), truth=request.truth,
        )
        np.testing.assert_allclose(served.estimates_kmh, direct.estimates_kmh)
        assert served.model_version == direct.model_version
        assert not served.degraded
        assert served.result is not None
        assert served.total_seconds > 0

        # A batch of three distinct same-slot requests, and a request on
        # a non-default backend, take the same path and answer exactly
        # what a direct answer_query on the same inputs answers.
        system = serve_world["system"]
        system.attach_backend("per", history=serve_world["data"].train_history)
        seeds = (12, 13, 14, 15)
        requests = [make_request(serve_world, seed=seed) for seed in seeds[:3]]
        requests.append(make_request(serve_world, seed=seeds[3], backend="per"))
        service = QueryService(
            system, config=ServeConfig(num_workers=1), autostart=False
        )
        tickets = [service.submit(r) for r in requests[:3]]
        service.start()
        served_all = [ticket.result(timeout=60) for ticket in tickets]
        served_all.append(service.serve(requests[3], timeout=60))
        service.close()
        for seed, request, served in zip(seeds, requests, served_all):
            direct = system.answer_query(
                EstimationRequest(
                    queried=request.queried,
                    slot=request.slot,
                    budget=request.budget,
                    rng=np.random.default_rng(seed),
                    backend=request.backend,
                    warm_start=False,
                ),
                market=make_market(serve_world["data"], seed),
                truth=request.truth,
            )
            assert served.result.backend == direct.backend == request.backend
            np.testing.assert_array_equal(
                served.full_field_kmh, direct.full_field_kmh
            )
            np.testing.assert_array_equal(
                served.estimates_kmh, direct.estimates_kmh
            )
            assert served.result.probes == direct.probes
            assert served.result.budget_spent == direct.budget_spent
            assert served.model_version == direct.model_version

    def test_queue_depth_visible_before_start(self, serve_world):
        service = QueryService(serve_world["system"], autostart=False)
        assert service.queue_depth() == 0
        tickets = [
            service.submit(make_request(serve_world, seed=s)) for s in range(3)
        ]
        assert service.queue_depth() == 3
        service.start()
        for ticket in tickets:
            assert np.all(np.isfinite(ticket.result(timeout=60).estimates_kmh))
        service.close()

    def test_submit_after_close_raises(self, serve_world):
        service = QueryService(serve_world["system"])
        service.close()
        with pytest.raises(errors.ServeError):
            service.submit(make_request(serve_world))

    def test_close_without_drain_fails_pending(self, serve_world):
        service = QueryService(serve_world["system"], autostart=False)
        ticket = service.submit(make_request(serve_world))
        service.close(drain=False)
        with pytest.raises(errors.ServeError, match="closed"):
            ticket.result(timeout=5)

    def test_missing_market_is_a_serve_error(self, serve_world):
        request = make_request(serve_world, market=None)
        with QueryService(serve_world["system"]) as service:
            with pytest.raises(errors.ServeError, match="market"):
                service.serve(request)


class TestBackpressure:
    def test_rejection_beyond_capacity(self, serve_world):
        config = ServeConfig(num_workers=1, max_queue_depth=2)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        tickets = [
            service.submit(make_request(serve_world, seed=s)) for s in range(2)
        ]
        with pytest.raises(errors.OverloadedError) as excinfo:
            service.submit(make_request(serve_world, seed=9))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.max_queue_depth == 2
        # Admitted work still completes once workers start.
        service.start()
        for ticket in tickets:
            ticket.result(timeout=60)
        service.close()

    def test_rejection_is_typed_repro_error(self, serve_world):
        config = ServeConfig(max_queue_depth=1)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        service.submit(make_request(serve_world))
        with pytest.raises(repro.ReproError):
            service.submit(make_request(serve_world))
        service.close(drain=False)


class TestDeadlines:
    def test_expired_deadline_degrades_to_per(self, serve_world):
        request = make_request(serve_world, deadline_s=1e-9)
        with QueryService(serve_world["system"]) as service:
            served = service.serve(request)
        assert served.degraded
        assert served.degraded_reason == DEGRADED_DEADLINE
        assert served.result is None
        snapshot = serve_world["system"].store.current()
        expected = periodic_field(snapshot.slot(request.slot))
        np.testing.assert_array_equal(served.full_field_kmh, expected)
        np.testing.assert_array_equal(
            served.estimates_kmh, expected[np.asarray(request.queried)]
        )

    def test_degrade_on_timeout_false_raises_typed_timeout(self, serve_world):
        config = ServeConfig(degrade_on_timeout=False)
        request = make_request(serve_world, deadline_s=1e-9)
        with QueryService(serve_world["system"], config=config) as service:
            ticket = service.submit(request)
            with pytest.raises(errors.QueryTimeoutError) as excinfo:
                ticket.result(timeout=60)
        assert excinfo.value.deadline_seconds == pytest.approx(1e-9)

    def test_default_deadline_from_config(self, serve_world):
        config = ServeConfig(default_deadline_s=1e-9)
        with QueryService(serve_world["system"], config=config) as service:
            served = service.serve(make_request(serve_world))
        assert served.degraded
        assert served.degraded_reason == DEGRADED_DEADLINE

    def test_generous_deadline_serves_normally(self, serve_world):
        request = make_request(serve_world, deadline_s=120.0)
        with QueryService(serve_world["system"]) as service:
            served = service.serve(request)
        assert not served.degraded
        assert served.result is not None


class TestDegradedEquivalence:
    def test_degraded_answer_equals_per_baseline(self, serve_world):
        """ISSUE 4 acceptance: degraded == Per, not just 'some numbers'."""
        data = serve_world["data"]
        slot = serve_world["slots"][0]
        request = make_request(serve_world, slot=slot, deadline_s=1e-9)
        with QueryService(serve_world["system"]) as service:
            served = service.serve(request)
        assert served.degraded
        snapshot = serve_world["system"].store.current()
        context = EstimationContext(
            network=data.network,
            history_samples=data.train_history.slot_samples(slot),
            probes={},
            slot_params=snapshot.slot(slot),
        )
        per = PeriodicEstimator().estimate(context)
        np.testing.assert_array_equal(served.full_field_kmh, per)

    def test_budget_exhaustion_degrades_with_budget_reason(self, serve_world):
        request = make_request(
            serve_world, market=FailingMarket(make_market(serve_world["data"], 44))
        )
        with QueryService(serve_world["system"]) as service:
            served = service.serve(request)
        assert served.degraded
        assert served.degraded_reason == DEGRADED_BUDGET
        snapshot = serve_world["system"].store.current()
        np.testing.assert_array_equal(
            served.full_field_kmh, periodic_field(snapshot.slot(request.slot))
        )


class TestCoalescing:
    def test_identical_requests_share_one_execution(self, serve_world):
        market = CountingMarket(make_market(serve_world["data"], 21))
        request = make_request(serve_world, market=market, rng=None)
        config = ServeConfig(num_workers=1)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        tickets = [service.submit(request) for _ in range(5)]
        service.start()
        results = [t.result(timeout=60) for t in tickets]
        service.close()
        assert market.probe_calls == 1
        leader = results[0]
        assert not leader.coalesced
        assert sum(r.coalesced for r in results) == 4
        for follower in results[1:]:
            assert follower.result is leader.result
            np.testing.assert_array_equal(
                follower.estimates_kmh, leader.estimates_kmh
            )

    def test_mixed_slot_batch_matches_sequential_oracle(self, serve_world):
        """Coalesced batched serving returns exactly what a sequential
        answer_query loop would, request by request."""
        data = serve_world["data"]
        requests = []
        for k in range(6):
            slot = serve_world["slots"][k % len(serve_world["slots"])]
            requests.append(
                make_request(
                    serve_world,
                    slot=slot,
                    seed=100 + k,
                    queried=tuple(data.queried[k % 3 : k % 3 + 6]),
                    budget=10 + k,
                )
            )
        config = ServeConfig(num_workers=1, max_coalesce=16)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        tickets = [service.submit(r) for r in requests]
        service.start()
        served = [t.result(timeout=120) for t in tickets]
        service.close()

        for k, (request, result) in enumerate(zip(requests, served)):
            oracle = serve_world["system"].answer_query(
                EstimationRequest(
                    queried=request.queried,
                    slot=request.slot,
                    budget=request.budget,
                    theta=request.theta,
                    selector=request.selector,
                    rng=np.random.default_rng(100 + k),
                    warm_start=False,
                ),
                market=make_market(data, 100 + k), truth=request.truth,
            )
            np.testing.assert_allclose(
                result.estimates_kmh, oracle.estimates_kmh, rtol=1e-10
            )
            assert result.model_version == oracle.model_version

    def test_non_coalescable_requests_run_alone(self, serve_world):
        request = make_request(serve_world, coalescable=False)
        config = ServeConfig(num_workers=1)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        tickets = [service.submit(request) for _ in range(3)]
        service.start()
        results = [t.result(timeout=60) for t in tickets]
        service.close()
        assert all(not r.coalesced for r in results)

    def test_max_coalesce_bounds_batches(self, serve_world):
        market = CountingMarket(make_market(serve_world["data"], 33))
        request = make_request(serve_world, market=market, rng=None)
        config = ServeConfig(num_workers=1, max_coalesce=2)
        service = QueryService(
            serve_world["system"], config=config, autostart=False
        )
        tickets = [service.submit(request) for _ in range(4)]
        service.start()
        for ticket in tickets:
            ticket.result(timeout=60)
        service.close()
        # 4 identical requests in batches of <=2 -> exactly 2 executions.
        assert market.probe_calls == 2


class TestExceptionBoundary:
    def test_only_repro_errors_escape_the_service(self, serve_world, monkeypatch):
        """A stray TypeError inside the pipeline surfaces as InternalError."""
        def explode(*args, **kwargs):
            raise TypeError("stray internal bug")

        monkeypatch.setattr(
            serve_world["system"], "_select_and_probe", explode, raising=True
        )
        with QueryService(serve_world["system"]) as service:
            ticket = service.submit(make_request(serve_world))
            with pytest.raises(errors.InternalError) as excinfo:
                ticket.result(timeout=60)
        assert excinfo.value.stage == "serve"
        assert isinstance(excinfo.value.original, TypeError)

    def test_repro_error_passes_through_untouched(self, serve_world):
        request = make_request(serve_world, selector="no-such-selector")
        with QueryService(serve_world["system"]) as service:
            ticket = service.submit(request)
            with pytest.raises(errors.SelectionError, match="no-such-selector"):
                ticket.result(timeout=60)

    @pytest.mark.parametrize("n_distinct", [1, 3])
    def test_gsp_failure_reports_gsp_stage(self, serve_world, monkeypatch, n_distinct):
        """A stray error inside propagation is an InternalError at stage
        "gsp" whatever the batch shape."""
        def explode(*args, **kwargs):
            raise ValueError("stray propagation bug")

        monkeypatch.setattr(serve_world["system"].gsp_engine, "propagate", explode)
        service = QueryService(
            serve_world["system"], config=ServeConfig(num_workers=1),
            autostart=False,
        )
        tickets = [
            service.submit(make_request(serve_world, seed=60 + k))
            for k in range(n_distinct)
        ]
        service.start()
        for ticket in tickets:
            with pytest.raises(errors.InternalError) as excinfo:
                ticket.result(timeout=60)
            assert excinfo.value.stage == "gsp"
            assert isinstance(excinfo.value.original, ValueError)
        service.close()


class TestProbeLock:
    def test_gsp_runs_outside_the_probe_lock(self, serve_world, monkeypatch):
        """While request A propagates, another worker can probe request B."""
        system = serve_world["system"]
        slot_a, slot_b = serve_world["slots"][:2]
        a_probed = threading.Event()
        b_probed = threading.Event()
        overlapped = []
        propagate = system.gsp_engine.propagate

        def waiting_propagate(*args, **kwargs):
            if not b_probed.is_set():
                overlapped.append(b_probed.wait(3.0))
            return propagate(*args, **kwargs)

        monkeypatch.setattr(system.gsp_engine, "propagate", waiting_propagate)
        config = ServeConfig(num_workers=2, serialize_probes=True)
        with QueryService(system, config=config) as service:
            ticket_a = service.submit(
                make_request(
                    serve_world, slot=slot_a, seed=70,
                    market=SignallingMarket(
                        make_market(serve_world["data"], 70), a_probed
                    ),
                )
            )
            assert a_probed.wait(30.0)
            ticket_b = service.submit(
                make_request(
                    serve_world, slot=slot_b, seed=71,
                    market=SignallingMarket(
                        make_market(serve_world["data"], 71), b_probed
                    ),
                )
            )
            ticket_a.result(timeout=60)
            ticket_b.result(timeout=60)
        assert overlapped == [True]


class TestServeMetrics:
    def test_serve_counters_and_spans(self, serve_world):
        from repro import obs

        obs.configure(metrics=True, tracing=True)
        obs.get_metrics().clear()
        obs.get_tracer().reset()
        try:
            config = ServeConfig(num_workers=1)
            service = QueryService(
                serve_world["system"], config=config, autostart=False
            )
            request = make_request(serve_world, seed=5)
            tickets = [service.submit(request) for _ in range(3)]
            service.start()
            for ticket in tickets:
                ticket.result(timeout=60)
            service.close()
            snap = obs.get_metrics().snapshot()
            counters = {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in snap["counters"]
            }
            assert counters[("serve.admitted", ())] == 3
            assert counters[("serve.completed", (("outcome", "ok"),))] == 3
            assert counters[("serve.coalesced", ())] == 2
            records = obs.get_tracer().records()
            names = {record.name for record in records}
            assert "serve.batch" in names
            assert "serve.request" in names
            assert "pipeline.answer_query" not in names
            assert {"ocs.select", "crowd.execute", "gsp.propagate"} <= names
            expected_parent = {
                "ocs.select": "serve.request",
                "crowd.execute": "serve.request",
                "serve.request": "serve.batch",
                "gsp.propagate": "serve.batch",
            }
            by_id = {record.span_id: record for record in records}
            for record in records:
                if record.name in expected_parent:
                    parent = by_id[record.parent_id]
                    assert parent.name == expected_parent[record.name]
        finally:
            obs.disable_all()
            obs.get_metrics().clear()
            obs.get_tracer().reset()

    @pytest.mark.parametrize("n_distinct", [1, 3])
    def test_pipeline_metrics_count_every_executed_answer(
        self, serve_world, n_distinct
    ):
        """pipeline.* counts each executed answer once, whatever the batch
        shape; a coalesced duplicate adds nothing."""
        from repro import obs

        obs.configure(metrics=True)
        obs.get_metrics().clear()
        try:
            service = QueryService(
                serve_world["system"], config=ServeConfig(num_workers=1),
                autostart=False,
            )
            requests = [
                make_request(serve_world, seed=80 + k) for k in range(n_distinct)
            ]
            tickets = [service.submit(r) for r in requests + requests[:1]]
            service.start()
            served = [ticket.result(timeout=60) for ticket in tickets]
            service.close()
            snap = obs.get_metrics().snapshot()
            counters = {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in snap["counters"]
            }
            assert counters[("serve.coalesced", ())] == 1
            assert counters[("pipeline.queries", (("selector", "hybrid"),))] == n_distinct
            assert counters[("pipeline.budget_spent", ())] == sum(
                r.result.budget_spent for r in served[:n_distinct]
            )
            (latency,) = [
                h for h in snap["histograms"]
                if h["name"] == "pipeline.latency_seconds"
            ]
            assert latency["count"] == n_distinct
        finally:
            obs.disable_all()
            obs.get_metrics().clear()


class TestWorkload:
    def test_roundtrip(self, tmp_path):
        items = [
            EstimationRequest(queried=(1, 2, 3), slot=93, budget=20.0),
            EstimationRequest(
                queried=(4,), slot=94, budget=10.0, theta=0.9,
                selector="ratio", deadline_s=0.25, day=1,
                precision="float32", warm_start=False,
            ),
        ]
        path = tmp_path / "trace.jsonl"
        save_workload(items, path)
        assert load_workload(path) == items

    def test_deadline_ms_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"slot": 1, "queried": [1], "budget": 5, "deadline_ms": 500}\n'
        )
        with pytest.raises(errors.DatasetError, match="unknown keys.*deadline_ms"):
            load_workload(path)

    def test_bad_precision_rejected_as_dataset_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"slot": 1, "queried": [1], "budget": 5, "precision": "float16"}\n'
        )
        with pytest.raises(errors.DatasetError, match="malformed request"):
            load_workload(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(errors.DatasetError, match="invalid JSON"):
            load_workload(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"slot": 1, "queried": [1], "budget": 5, "oops": 1}\n')
        with pytest.raises(errors.DatasetError, match="unknown keys"):
            load_workload(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(errors.DatasetError, match="cannot read"):
            load_workload(tmp_path / "nope.jsonl")

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("# only a comment\n")
        with pytest.raises(errors.DatasetError, match="no requests"):
            load_workload(path)

    def test_synthesize_respects_duplication(self):
        items = synthesize_workload(
            [93, 94], list(range(40)), n_requests=24, budget=10,
            duplication=4, seed=1,
        )
        assert len(items) == 24
        uniques = {(i.slot, i.queried) for i in items}
        assert len(uniques) == 6  # 24 / 4
        assert {i.slot for i in items} == {93, 94}

    def test_replay_aggregates_outcomes(self, serve_world):
        items = synthesize_workload(
            serve_world["slots"],
            list(serve_world["data"].queried),
            n_requests=12,
            budget=10,
            queried_size=5,
            duplication=3,
            seed=2,
        )

        def bind(item):
            return EstimationRequest(
                queried=item.queried,
                slot=item.slot,
                budget=item.budget,
                truth=serve_world["truths"][item.slot], warm_start=False,
            )

        market = make_market(serve_world["data"], 7)
        with QueryService(serve_world["system"], market=market) as service:
            report = replay(service, items, bind=bind)
        assert report.n_requests == 12
        assert report.n_ok + report.n_degraded == 12
        assert report.n_rejected == 0 and report.n_failed == 0
        assert len(report.latencies) == 12
        assert report.percentile(99) >= report.percentile(50) > 0
        assert report.throughput_qps > 0
        text = report.format()
        assert "p50" in text and "requests: 12" in text

    def test_report_percentiles_empty_safe(self):
        report = ReplayReport(n_requests=0)
        assert report.percentile(50) == 0.0
        assert report.throughput_qps == 0.0
        assert "requests: 0" in report.format()
