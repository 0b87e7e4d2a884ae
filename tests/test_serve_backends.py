"""Serving-layer tests for per-request backend selection and shadow mode.

The QueryService must route each request to the backend it names,
keep backend buckets out of each other's coalesced batches, leave the
default ``rtf_gsp`` path bit-identical, and score a configured shadow
challenger without ever touching the caller's result.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import errors, obs
from repro.serve import EstimationRequest, QueryService, ServeConfig, ShadowStats

N_SERVE_SLOTS = 2
ATTACHED = ("gmrf", "lsmrn", "per")


@pytest.fixture(scope="module")
def serve_world(tiny_dataset):
    """A fitted system with several backends attached, ready to serve."""
    data = tiny_dataset
    slots = [
        s
        for s in range(data.slot, data.slot + N_SERVE_SLOTS)
        if s in data.train_history.global_slots
    ]
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=slots)
    for name in ATTACHED:
        system.attach_backend(name, history=data.train_history)
    truths = {s: repro.truth_oracle_for(data.test_history, 0, s) for s in slots}
    return {"data": data, "system": system, "slots": slots, "truths": truths}


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


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ATTACHED)
    def test_request_routes_to_named_backend(self, serve_world, backend):
        with QueryService(serve_world["system"]) as service:
            served = service.submit(
                make_request(serve_world, backend=backend)
            ).result(timeout=60)
        result = served.result
        assert result.backend == backend
        assert result.gsp is None
        assert np.all(np.isfinite(served.full_field_kmh))
        assert served.full_field_kmh.shape == (
            serve_world["system"].network.n_roads,
        )

    def test_default_request_stays_on_rtf_gsp(self, serve_world):
        request = make_request(serve_world)
        assert request.backend == "rtf_gsp"
        with QueryService(serve_world["system"]) as service:
            served = service.submit(request).result(timeout=60)
        assert served.result.backend == "rtf_gsp"
        assert served.result.gsp is not None

    def test_served_field_matches_direct_backend_estimate(self, serve_world):
        """The serve path returns exactly what estimate_with_backend
        computes from the same probes (modulo the probe pinning both do)."""
        with QueryService(serve_world["system"]) as service:
            served = service.submit(
                make_request(serve_world, backend="gmrf")
            ).result(timeout=60)
        direct = serve_world["system"].estimate_with_backend(
            "gmrf", served.result.probes, serve_world["slots"][0]
        )
        np.testing.assert_allclose(
            served.full_field_kmh, direct.speeds, rtol=1e-10
        )

    def test_unattached_backend_fails_typed(self, serve_world):
        request = make_request(serve_world, backend="lasso")  # not attached
        with QueryService(serve_world["system"]) as service:
            ticket = service.submit(request)
            with pytest.raises(errors.BackendError, match="not attached"):
                ticket.result(timeout=60)


class TestBackendCoalescing:
    def test_backend_is_a_coalescing_dimension(self, serve_world):
        """Identical requests differing only in backend never share an
        execution; identical requests on the same backend still do."""
        market = CountingMarket(make_market(serve_world["data"], 21))
        base = dict(market=market, rng=None)
        service = QueryService(
            serve_world["system"],
            config=ServeConfig(num_workers=1),
            autostart=False,
        )
        tickets = (
            [service.submit(make_request(serve_world, **base)) for _ in range(2)]
            + [
                service.submit(
                    make_request(serve_world, backend="gmrf", **base)
                )
                for _ in range(2)
            ]
        )
        service.start()
        results = [t.result(timeout=60) for t in tickets]
        service.close()
        # One execution per backend bucket, not one for all four.
        assert market.probe_calls == 2
        assert sum(r.coalesced for r in results) == 2
        assert [r.result.backend for r in results] == [
            "rtf_gsp", "rtf_gsp", "gmrf", "gmrf",
        ]
        assert results[0].result is results[1].result
        assert results[2].result is results[3].result
        assert results[0].result is not results[2].result

    def test_mixed_backend_batch_all_complete(self, serve_world):
        backends = ["rtf_gsp", "gmrf", "lsmrn", "per", "gmrf", "rtf_gsp"]
        service = QueryService(
            serve_world["system"],
            config=ServeConfig(num_workers=1, max_coalesce=16),
            autostart=False,
        )
        tickets = [
            service.submit(
                make_request(serve_world, seed=100 + k, backend=name)
            )
            for k, name in enumerate(backends)
        ]
        service.start()
        served = [t.result(timeout=120) for t in tickets]
        service.close()
        assert [r.result.backend for r in served] == backends
        for result in served:
            assert np.all(np.isfinite(result.estimates_kmh))

    def test_rtf_gsp_requests_in_mixed_batch_match_oracle(self, serve_world):
        """Backend buckets in a batch don't perturb the default path."""
        data = serve_world["data"]
        service = QueryService(
            serve_world["system"],
            config=ServeConfig(num_workers=1, max_coalesce=16),
            autostart=False,
        )
        rtf_ticket = service.submit(make_request(serve_world, seed=300))
        other = [
            service.submit(
                make_request(serve_world, seed=301 + k, backend=name)
            )
            for k, name in enumerate(("gmrf", "per"))
        ]
        service.start()
        served = rtf_ticket.result(timeout=120)
        for ticket in other:
            ticket.result(timeout=120)
        service.close()

        oracle = serve_world["system"].answer_query(
            repro.EstimationRequest(
                queried=served.request.queried,
                slot=served.request.slot,
                budget=served.request.budget,
                rng=np.random.default_rng(300),
            ),
            market=make_market(data, 300), truth=served.request.truth,
        )
        np.testing.assert_allclose(
            served.estimates_kmh, oracle.estimates_kmh, rtol=1e-10
        )


class TestShadowMode:
    def _serve_with_shadow(self, serve_world, shadow, n=3):
        config = ServeConfig(num_workers=1, shadow_backend=shadow)
        with QueryService(serve_world["system"], config=config) as service:
            results = [
                service.submit(make_request(serve_world, seed=40 + k)).result(
                    timeout=60
                )
                for k in range(n)
            ]
        # Tickets resolve *before* shadow scoring by design; only the
        # drain on close() guarantees the tally is final.
        stats = service.shadow_stats
        return results, stats

    def test_shadow_scores_without_touching_results(self, serve_world):
        obs.configure(metrics=True)
        obs.get_metrics().clear()
        try:
            results, stats = self._serve_with_shadow(serve_world, "gmrf")
            baseline, _ = self._serve_with_shadow(serve_world, None)
            for shadowed, plain in zip(results, baseline):
                assert shadowed.result.backend == "rtf_gsp"
                np.testing.assert_allclose(
                    shadowed.estimates_kmh, plain.estimates_kmh, rtol=1e-10
                )
            assert isinstance(stats, ShadowStats)
            assert stats.scored == 3
            assert stats.errors == 0
            assert np.isfinite(stats.mean_divergence_kmh)

            snap = obs.get_metrics().snapshot()
            counters = {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in snap["counters"]
            }
            assert counters[
                (
                    "serve.shadow.scored",
                    (("backend", "gmrf"), ("outcome", "ok")),
                )
            ] == 3
            histograms = {e["name"] for e in snap["histograms"]}
            assert "serve.shadow.latency_seconds" in histograms
            assert "serve.shadow.divergence_kmh" in histograms
        finally:
            obs.disable_all()
            obs.get_metrics().clear()

    def test_shadow_errors_counted_not_raised(self, serve_world):
        obs.configure(metrics=True)
        obs.get_metrics().clear()
        try:
            # "lasso" is registered but never attached: every shadow
            # score fails, no caller notices.
            results, stats = self._serve_with_shadow(serve_world, "lasso")
            assert all(r.result.backend == "rtf_gsp" for r in results)
            assert stats.scored == 0
            assert stats.errors == 3
            snap = obs.get_metrics().snapshot()
            counters = {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in snap["counters"]
            }
            assert counters[
                (
                    "serve.shadow.scored",
                    (("backend", "lasso"), ("outcome", "error")),
                )
            ] == 3
        finally:
            obs.disable_all()
            obs.get_metrics().clear()

    def test_shadow_skips_self_comparison(self, serve_world):
        """Challenger == served backend is a no-op, not a score of 0."""
        _, stats = self._serve_with_shadow(serve_world, "rtf_gsp")
        assert stats.scored == 0
        assert stats.errors == 0

    def test_shadow_stats_property_returns_copy(self, serve_world):
        _, stats = self._serve_with_shadow(serve_world, "gmrf", n=1)
        stats.scored = 999
        _, fresh = self._serve_with_shadow(serve_world, "gmrf", n=1)
        assert fresh.scored == 1
        assert stats.as_dict()["scored"] == 999
