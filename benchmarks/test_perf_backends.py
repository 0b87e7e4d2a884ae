"""Perf gate: pluggable-backend dispatch must not tax the default path.

Routing a query through the backend dispatch point
(``EstimationRequest(backend="rtf_gsp")``) may add at most 5% latency
over a request with no backend argument, and the two must return
bit-identical numbers — the paper's RTF+GSP path is still the same
code, merely reachable through a named default.

The gate is the median of the per-pair latency ratios: with fewer than
40 pairs a p99 is the maximum of the samples, so host noise alone can
fail it.  A deterministic spy checks that both spellings resolve to the
same single ``RTFGSPBackend.estimate_batch`` call.

Runs in two modes:

* full (default) — 120-road network, 100 timed pairs;
* quick (``BACKEND_PERF_QUICK=1``) — 60-road network, 30 pairs, used by
  the CI smoke job so the harness itself cannot rot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro

QUICK = os.environ.get("BACKEND_PERF_QUICK", "") == "1"
N_ROADS = 60 if QUICK else 120
N_PAIRS = 30 if QUICK else 100
N_WARMUP = 3 if QUICK else 10
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def backend_perf_world():
    config = repro.SemiSynConfig(
        n_roads=N_ROADS,
        n_queried=16,
        n_train_days=10,
        n_test_days=2,
        n_slots=6,
        seed=99,
    )
    data = repro.build_semisyn(config)
    system = repro.CrowdRTSE.fit(
        data.network, data.train_history, slots=[data.slot]
    )
    truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
    return {"data": data, "system": system, "truth": truth}


def _run_query(world, seed, backend):
    data = world["data"]
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(seed),
    )
    kwargs = {} if backend is None else {"backend": backend}
    start = time.perf_counter()
    result = world["system"].answer_query(
        repro.EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=12,
            rng=np.random.default_rng(seed),
            **kwargs,
        ),
        market=market,
        truth=world["truth"],
    )
    return time.perf_counter() - start, result


def test_default_backend_dispatch_overhead_within_5_percent(
    backend_perf_world,
):
    for k in range(N_WARMUP):  # prime caches / JIT-free steady state
        _run_query(backend_perf_world, 10_000 + k, None)

    ratios = []
    for k in range(N_PAIRS):
        seed = 20_000 + k
        # Alternate arm order so drift cannot favour one side.
        if k % 2 == 0:
            t_plain, r_plain = _run_query(backend_perf_world, seed, None)
            t_backend, r_backend = _run_query(
                backend_perf_world, seed, "rtf_gsp"
            )
        else:
            t_backend, r_backend = _run_query(
                backend_perf_world, seed, "rtf_gsp"
            )
            t_plain, r_plain = _run_query(backend_perf_world, seed, None)
        ratios.append(t_backend / t_plain)
        # Bit-identical default path: same seeds, same numbers.
        np.testing.assert_array_equal(
            r_plain.full_field_kmh, r_backend.full_field_kmh
        )
        assert r_backend.backend == "rtf_gsp"
        assert r_backend.gsp is not None

    overhead = float(np.median(ratios)) - 1.0
    print(
        f"\n[backend-perf] {N_PAIRS} pairs, {N_ROADS} roads: "
        f"median dispatch/plain latency ratio overhead {overhead * 100:+.1f}%"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"backend dispatch is {overhead:.1%} slower than a request with no "
        f"backend in the median pair (bound {MAX_OVERHEAD:.0%})"
    )


def test_both_spellings_make_one_estimate_batch_call(
    backend_perf_world, monkeypatch
):
    """``backend=None`` and ``"rtf_gsp"`` reach the same single call."""
    calls = []
    real = repro.RTFGSPBackend.estimate_batch

    def spy(self, queries, gsp_config=None):
        outcomes = real(self, queries, gsp_config)
        calls.append([outcome.speeds for outcome in outcomes])
        return outcomes

    monkeypatch.setattr(repro.RTFGSPBackend, "estimate_batch", spy)
    fields = {}
    for backend in (None, "rtf_gsp"):
        calls.clear()
        _, result = _run_query(backend_perf_world, 40_000, backend)
        assert len(calls) == 1 and len(calls[0]) == 1
        np.testing.assert_array_equal(calls[0][0], result.full_field_kmh)
        fields[backend] = calls[0][0]
    np.testing.assert_array_equal(fields[None], fields["rtf_gsp"])


def test_attached_backend_estimate_is_cheap_relative_to_query(
    backend_perf_world,
):
    """The template layer (spans, metrics, validation) must stay noise:
    a gmrf estimate off already-gathered probes is far cheaper than the
    full query that gathered them."""
    world = backend_perf_world
    system = world["system"]
    data = world["data"]
    system.attach_backend("gmrf", history=data.train_history)

    t_query, result = _run_query(world, 31_000, None)
    timings = []
    for _ in range(10):
        start = time.perf_counter()
        estimate = system.estimate_with_backend(
            "gmrf", result.probes, data.slot
        )
        timings.append(time.perf_counter() - start)
    assert np.all(np.isfinite(estimate.speeds))
    median_est = float(np.median(timings))
    print(
        f"\n[backend-perf] full query {t_query * 1e3:.2f}ms, "
        f"gmrf re-estimate median {median_est * 1e3:.2f}ms"
    )
    assert median_est < t_query, (
        "re-estimating from gathered probes should be cheaper than the "
        "full pipeline run that gathered them"
    )
