"""Perf gate: vectorized GSP kernel vs the per-node reference.

Acceptance bar for the kernel work: on a ≥2k-road generated network the
fused-group kernel must be at least 3× faster than the per-node Alg. 5
loop *while producing the same numbers* (≤ 1e-8 max abs diff — checked
here on the identical sweep budget, and exhaustively by
``tests/test_gsp_differential.py``).  This holds for the parallel
schedules and for the default ``BFS`` schedule, which runs as wavefront
groups.

Runs in two modes:

* full (default) — a 46×46 grid (2116 roads), 25 sweeps;
* quick (``GSP_PERF_QUICK=1``) — a 20×20 grid, 10 sweeps, used by the
  CI smoke job so the harness itself cannot rot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from repro.core.gsp import GSPConfig, GSPEngine, GSPKernel, GSPSchedule
from repro.core.rtf import RTFSlot

QUICK = os.environ.get("GSP_PERF_QUICK", "") == "1"
GRID = (20, 20) if QUICK else (46, 46)
SWEEPS = 10 if QUICK else 25
MIN_SPEEDUP = 3.0
MAX_ABS_DIFF = 1e-8


@pytest.fixture(scope="module")
def perf_world():
    network = repro.grid_network(*GRID)
    n = network.n_roads
    if not QUICK:
        assert n >= 2000, "perf gate must run on a ≥2k-road network"
    rng = np.random.default_rng(7)
    params = RTFSlot(
        slot=0,
        mu=rng.uniform(25.0, 85.0, n),
        sigma=rng.uniform(0.8, 5.0, n),
        rho=rng.uniform(0.1, 0.95, network.n_edges),
    )
    observed_roads = rng.choice(n, size=max(10, n // 50), replace=False)
    observed = {
        int(r): float(max(1.0, params.mu[r] * 0.8)) for r in observed_roads
    }
    return network, params, observed


def _config(kernel: GSPKernel) -> GSPConfig:
    # epsilon far below reach: both kernels run exactly SWEEPS sweeps, so
    # the wall-clock ratio compares identical work.
    return GSPConfig(
        epsilon=1e-300,
        max_sweeps=SWEEPS,
        schedule=GSPSchedule.BFS_PARALLEL,
        kernel=kernel,
    )


@pytest.mark.parametrize(
    "schedule", [GSPSchedule.BFS_PARALLEL, GSPSchedule.BFS_COLORED, GSPSchedule.BFS]
)
def test_vectorized_kernel_speedup_and_equivalence(perf_world, schedule):
    network, params, observed = perf_world
    engine = GSPEngine(network)
    ref_config = GSPConfig(
        epsilon=1e-300, max_sweeps=SWEEPS, schedule=schedule,
        kernel=GSPKernel.REFERENCE,
    )
    vec_config = GSPConfig(
        epsilon=1e-300, max_sweeps=SWEEPS, schedule=schedule,
        kernel=GSPKernel.VECTORIZED,
    )

    start = time.perf_counter()
    reference = engine.propagate(params, observed, ref_config)
    reference_s = time.perf_counter() - start

    engine.propagate(params, observed, vec_config)  # compile + warm caches
    vectorized_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        vectorized = engine.propagate(params, observed, vec_config)
        vectorized_s = min(vectorized_s, time.perf_counter() - start)

    # Equal work: the counters surfaced on GSPResult prove both kernels
    # swept the same number of times before the wall-clocks are compared.
    assert reference.sweeps == vectorized.sweeps == SWEEPS
    assert reference.kernel is GSPKernel.REFERENCE
    assert vectorized.kernel is GSPKernel.VECTORIZED

    max_diff = float(np.max(np.abs(reference.speeds - vectorized.speeds)))
    assert max_diff <= MAX_ABS_DIFF, f"kernels disagree by {max_diff:.3g}"

    speedup = reference_s / vectorized_s
    print(
        f"\n[{schedule.value}] {network.n_roads} roads, {SWEEPS} sweeps: "
        f"reference {reference_s:.4f}s, vectorized {vectorized_s:.4f}s, "
        f"speedup {speedup:.1f}x, max abs diff {max_diff:.2e}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernel only {speedup:.2f}x faster (need ≥{MIN_SPEEDUP}x)"
    )


def test_warm_cache_skips_compilation(perf_world):
    network, params, observed = perf_world
    engine = GSPEngine(network)
    config = _config(GSPKernel.VECTORIZED)
    cold = engine.propagate(params, observed, config)
    warm = engine.propagate(params, observed, config)
    assert not cold.provenance.structure_cache_hit and not cold.provenance.schedule_cache_hit
    assert warm.provenance.structure_cache_hit and warm.provenance.schedule_cache_hit
    assert np.array_equal(cold.speeds, warm.speeds)
    stats = engine.stats.as_dict()
    assert stats["structure_misses"] == 1
    assert stats["schedule_misses"] == 1


def test_batch_reuses_schedule_across_slots(perf_world):
    network, params, observed = perf_world
    slots = [
        RTFSlot(params.slot + k, params.mu + k, params.sigma, params.rho)
        for k in range(3)
    ]
    engine = GSPEngine(network)
    results = engine.propagate_batch(
        [(slot, observed) for slot in slots], _config(GSPKernel.VECTORIZED)
    )
    assert [r.provenance.schedule_cache_hit for r in results] == [False, True, True]
    assert engine.stats.structure_misses == 3  # one structure per slot
    assert engine.stats.schedule_misses == 1  # one shared compilation
