"""Integration tests: the instrumented pipeline end to end.

Enables the *global* registry/tracer (the ones the hot paths write to),
runs real queries, and checks the resulting span tree, metric catalog,
export round trips, convergence warnings, and the CLI surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.gsp import GSPConfig, GSPEngine, GSPKernel, GSPSchedule
from repro.errors import ConvergenceWarning


@pytest.fixture(autouse=True)
def clean_obs():
    """Enable obs for the test, restore the disabled default afterwards."""
    obs.configure(metrics=True, tracing=True)
    obs.get_metrics().clear()
    obs.get_tracer().reset()
    yield
    obs.disable_all()
    obs.get_metrics().clear()
    obs.get_tracer().reset()


@pytest.fixture()
def query_world(tiny_dataset, tiny_system):
    market = repro.CrowdMarket(
        tiny_dataset.network,
        tiny_dataset.pool,
        tiny_dataset.cost_model,
        rng=np.random.default_rng(5),
    )
    truth = repro.truth_oracle_for(tiny_dataset.test_history, 0, tiny_dataset.slot)
    return tiny_dataset, tiny_system, market, truth


def run_query(query_world, **kwargs):
    data, system, market, truth = query_world
    return system.answer_query(
        repro.EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=20,
            rng=np.random.default_rng(6),
        ),
        market=market, truth=truth, **kwargs,
    )


class TestSpanTree:
    def test_answer_query_produces_nested_tree(self, query_world):
        run_query(query_world)
        records = {r.name: r for r in obs.get_tracer().records()}
        root = records["pipeline.answer_query"]
        assert root.parent_id is None
        for child in ("ocs.select", "crowd.execute", "gsp.propagate"):
            assert records[child].parent_id == root.span_id, child
        assert root.attrs["selector"] == "hybrid"
        assert root.attrs["budget_spent"] == 20
        assert root.attrs["gsp_sweeps"] == records["gsp.propagate"].attrs["sweeps"]

    def test_gsp_span_carries_per_sweep_events(self, query_world):
        result = run_query(query_world)
        records = {r.name: r for r in obs.get_tracer().records()}
        sweeps = [
            e for e in records["gsp.propagate"].events if e["name"] == "gsp.sweep"
        ]
        assert len(sweeps) == result.gsp.sweeps
        deltas = [e["attrs"]["max_delta"] for e in sweeps]
        assert deltas == list(result.gsp.max_delta_history)

    def test_crowd_span_has_one_probe_event_per_road(self, query_world):
        result = run_query(query_world)
        records = {r.name: r for r in obs.get_tracer().records()}
        probes = records["crowd.execute"].events
        assert len(probes) == len(result.selection.selected)
        assert {e["attrs"]["road"] for e in probes} == set(result.selection.selected)

    def test_exports_validate_and_round_trip(self, query_world, tmp_path):
        run_query(query_world)
        tracer = obs.get_tracer()
        spans = obs.validate_trace_jsonl(tracer.to_jsonl())
        assert {s["name"] for s in spans} >= {
            "pipeline.answer_query", "ocs.select", "crowd.execute", "gsp.propagate",
        }
        obs.validate_chrome_trace(tracer.to_chrome_trace())


class TestMetricsCatalog:
    def test_query_populates_the_pipeline_metrics(self, query_world):
        run_query(query_world)
        snap = obs.get_metrics().snapshot()
        counters = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
            for e in snap["counters"]
        }
        assert counters[("pipeline.queries", (("selector", "hybrid"),))] == 1
        assert counters[("crowd.cost_spent", ())] == 20
        assert counters[("pipeline.budget_spent", ())] == 20
        names = {e["name"] for e in snap["counters"]}
        assert "gsp.propagations" in names
        assert "gsp.clamped_roads" in names
        gauges = {e["name"]: e["value"] for e in snap["gauges"]}
        assert gauges["crowd.budget_total"] == 20
        assert gauges["crowd.budget_remaining"] == 0
        histograms = {e["name"] for e in snap["histograms"]}
        assert "pipeline.latency_seconds" in histograms
        assert "gsp.sweeps" in histograms
        assert "gsp.runtime_seconds" in histograms

    def test_snapshot_round_trips_through_both_exporters(self, query_world):
        run_query(query_world)
        snap = obs.get_metrics().snapshot()
        # JSON-lines is lossless.
        assert obs.metrics_from_jsonl(obs.metrics_to_jsonl(snap)) == snap
        # Prometheus preserves every family and total counter mass.
        families = obs.parse_prometheus_text(obs.to_prometheus_text(snap))
        assert families["pipeline_queries_total"]["kind"] == "counter"
        spent = families["crowd_cost_spent_total"]["samples"]
        assert spent["crowd_cost_spent_total"] == 20.0

    def test_gsp_cache_metrics_replace_adhoc_flags(self, small_world):
        engine = GSPEngine(small_world["network"])
        params = small_world["params"]
        snapshot = repro.ModelStore.from_slots(small_world["network"], [params]).current()
        observed = {0: 30.0, 7: 45.0}
        cfg = GSPConfig(schedule=GSPSchedule.BFS_PARALLEL, kernel=GSPKernel.VECTORIZED)
        for _ in range(2):
            structure = snapshot.propagation_structure(params.slot)
            engine.propagate(params, observed, cfg, structure=structure)
        snap = obs.get_metrics().snapshot()

        def lookups(name):
            return {
                tuple(sorted(e["labels"].items())): e["value"]
                for e in snap["counters"]
                if e["name"] == name
            }

        # Structures are the store's artifacts; the engine counts only
        # its schedule cache.
        gsp = lookups("gsp.cache.lookups")
        assert gsp == {
            (("cache", "schedule"), ("result", "miss")): 1,
            (("cache", "schedule"), ("result", "hit")): 1,
        }
        store = lookups("store.artifacts.lookups")
        assert store[(("kind", "propagation"), ("result", "miss"))] == 1
        assert store[(("kind", "propagation"), ("result", "hit"))] == 1


class TestConvergenceWarnings:
    def test_gsp_budget_exhaustion_warns_and_counts(self, small_world):
        engine = GSPEngine(small_world["network"])
        cfg = GSPConfig(epsilon=1e-12, max_sweeps=2)
        with pytest.warns(ConvergenceWarning, match="max_sweeps=2"):
            result = engine.propagate(small_world["params"], {0: 30.0}, cfg)
        assert not result.converged
        failures = [
            e for e in obs.get_metrics().snapshot()["counters"]
            if e["name"] == "gsp.convergence.failures"
        ]
        assert sum(e["value"] for e in failures) == 1

    def test_inference_budget_exhaustion_warns_and_counts(self, line_net, rng):
        samples = 40.0 + rng.normal(size=(6, line_net.n_roads))
        config = repro.RTFInferenceConfig(
            max_iters=2, tol=1e-12, init="random", seed=3
        )
        with pytest.warns(ConvergenceWarning, match="max_iters=2"):
            _, diag = repro.infer_slot_parameters(line_net, samples, 0, config)
        assert not diag.converged
        nonconverged = [
            e for e in obs.get_metrics().snapshot()["counters"]
            if e["name"] == "inference.nonconverged"
        ]
        assert sum(e["value"] for e in nonconverged) == 1


class TestCliSurface:
    def test_stats_subcommand_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        chrome_path = tmp_path / "chrome.json"
        code = main(
            [
                "stats", "--roads", "40", "--queried", "6",
                "--train-days", "6", "--slots", "3", "--budget", "10",
                "--metrics-out", str(metrics_path),
                "--trace", str(trace_path),
                "--chrome-trace", str(chrome_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE pipeline_queries_total counter" in out
        snapshot = obs.read_metrics_json(str(metrics_path))
        assert any(e["name"] == "pipeline.queries" for e in snapshot["counters"])
        spans = obs.validate_trace_jsonl(trace_path.read_text())
        assert {s["name"] for s in spans} >= {"pipeline.answer_query", "ocs.select"}
        obs.validate_chrome_trace(json.loads(chrome_path.read_text()))

    def test_query_with_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "query", "--roads", "40", "--queried", "6",
                "--train-days", "6", "--slots", "3", "--budget", "10",
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        spans = obs.validate_trace_jsonl(trace_path.read_text())
        assert any(s["name"] == "gsp.propagate" for s in spans)

    def test_run_all_metrics_out(self, tmp_path):
        from repro.experiments.scalability import main as scalability_main

        metrics_path = tmp_path / "scal.json"
        scalability_main(["--scale", "quick", "--metrics-out", str(metrics_path)])
        snapshot = obs.read_metrics_json(str(metrics_path))
        assert any(e["name"] == "gsp.propagations" for e in snapshot["counters"])
