"""Perf gate: coalesced concurrent serving vs a sequential query loop.

Acceptance bar for the serving layer (ISSUE 4): on a duplicate-heavy
mixed-slot workload — many users asking about the same roads in the
same slot, the shape request coalescing is built for — a
:class:`QueryService` must finish the whole workload at least 2× faster
than a naive sequential ``answer_query`` loop, while returning the same
numbers for every request.

The speedup comes from work elimination, not parallelism tricks:
identical requests share one pipeline execution and distinct same-slot
requests share one batched GSP call, so the service executes ~1/D of
the sequential pipeline runs (D = duplication factor).

Runs in two modes:

* full (default) — 120-road network, 96 requests, duplication 4;
* quick (``SERVE_PERF_QUICK=1``) — 60-road network, 32 requests, used
  by the CI smoke job so the harness itself cannot rot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from repro.serve import EstimationRequest, QueryService, ServeConfig

QUICK = os.environ.get("SERVE_PERF_QUICK", "") == "1"
N_ROADS = 60 if QUICK else 120
N_REQUESTS = 32 if QUICK else 96
DUPLICATION = 4
N_SLOTS = 3
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def serve_perf_world():
    config = repro.SemiSynConfig(
        n_roads=N_ROADS,
        n_queried=16,
        n_train_days=10,
        n_test_days=2,
        n_slots=6,
        seed=99,
    )
    data = repro.build_semisyn(config)
    slots = [
        s
        for s in range(data.slot, data.slot + N_SLOTS)
        if s in data.train_history.global_slots
    ][:N_SLOTS]
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=slots)
    truths = {s: repro.truth_oracle_for(data.test_history, 0, s) for s in slots}

    # Duplicate-heavy mixed-slot workload: N_REQUESTS arrivals over
    # N_REQUESTS/DUPLICATION unique (slot, queried, market) requests,
    # interleaved across slots.
    rng = np.random.default_rng(5)
    n_unique = N_REQUESTS // DUPLICATION
    uniques = []
    for k in range(n_unique):
        slot = slots[k % len(slots)]
        queried = tuple(
            int(q)
            for q in rng.choice(data.queried, size=8, replace=False)
        )
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(1000 + k),
        )
        uniques.append(
            (
                k,
                EstimationRequest(
                    queried=queried,
                    slot=slot,
                    budget=12,
                    market=market,
                    truth=truths[slot],
                ),
            )
        )
    arrivals = [uniques[i % n_unique] for i in range(N_REQUESTS)]
    order = rng.permutation(N_REQUESTS)
    arrivals = [arrivals[i] for i in order]
    return {"data": data, "system": system, "arrivals": arrivals}


def test_coalesced_serving_beats_sequential_loop(serve_perf_world):
    data = serve_perf_world["data"]
    system = serve_perf_world["system"]
    arrivals = serve_perf_world["arrivals"]

    # Sequential baseline: a naive serving loop executes the pipeline
    # once per arrival.  Fresh identically-seeded markets are built
    # outside the timed region (the service got its markets up front
    # too), so the comparison times pipeline work only.
    sequential_markets = [
        repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(1000 + unique_id),
        )
        for unique_id, _ in arrivals
    ]
    start = time.perf_counter()
    sequential = [
        system.answer_query(
            EstimationRequest(
                queried=request.queried,
                slot=request.slot,
                budget=request.budget,
            ),
            market=market,
            truth=request.truth,
        )
        for (_, request), market in zip(arrivals, sequential_markets)
    ]
    sequential_s = time.perf_counter() - start

    # max_coalesce covers the whole backlog so each slot drains into one
    # batch and every unique request executes exactly once; a shared
    # stateful market probed twice would (correctly) draw fresh answers,
    # which would break the exact-equality check below.
    service = QueryService(
        system,
        config=ServeConfig(
            num_workers=2,
            max_queue_depth=2 * N_REQUESTS,
            max_coalesce=N_REQUESTS,
        ),
        autostart=False,
    )
    tickets = [service.submit(request) for _, request in arrivals]
    start = time.perf_counter()
    service.start()
    served = [ticket.result(timeout=600) for ticket in tickets]
    concurrent_s = time.perf_counter() - start
    service.close()

    # Same numbers, request for request: duplicates share an execution
    # but each sequential duplicate re-ran an identically-seeded market,
    # so the answers must agree everywhere.
    for result, oracle in zip(served, sequential):
        assert not result.degraded
        np.testing.assert_allclose(
            result.estimates_kmh, oracle.estimates_kmh, rtol=1e-10
        )

    n_coalesced = sum(r.coalesced for r in served)
    assert n_coalesced > 0, "workload never coalesced — the gate is vacuous"

    speedup = sequential_s / concurrent_s
    print(
        f"\n[serve-perf] {N_REQUESTS} requests ({DUPLICATION}x duplication, "
        f"{N_SLOTS} slots, {N_ROADS} roads): sequential {sequential_s:.3f}s, "
        f"coalesced {concurrent_s:.3f}s, speedup {speedup:.1f}x, "
        f"{n_coalesced} coalesced"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced serving only {speedup:.2f}x faster than the sequential "
        f"loop (need ≥{MIN_SPEEDUP}x)"
    )
