"""Perf gates for the query-latency work.

Two independently-gated optimizations, each checked for speed AND for
answer fidelity:

* **Warm-started GSP** — steady-state sweeps-to-convergence must drop
  ≥1.5× when seeding from the previous converged field (measured in
  sweeps, not wall-clock, so the gate is deterministic).
* **mmap snapshot cold start** — ``load_store`` must beat the
  ``.npz``-decompress-then-hash path ≥5× while adopting digests that
  match a byte-exact reload.

Runs in two modes:

* full (default) — a 40×40 warm-start grid, a 70×70 grid / 48-slot store;
* quick (``LATENCY_PERF_QUICK=1``) — scaled-down instances with relaxed
  speedup floors, used by the CI smoke job so the harness cannot rot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from repro.core.gsp import GSPConfig, GSPEngine
from repro.core.rtf import RTFModel, RTFSlot, params_signature
from repro.core.snapshot_io import load_store, write_snapshot
from repro.core.store import ModelStore

QUICK = os.environ.get("LATENCY_PERF_QUICK", "") == "1"

WARM_GRID = (20, 20) if QUICK else (40, 40)
WARM_MIN_SWEEP_RATIO = 1.5

MMAP_GRID = (35, 35) if QUICK else (70, 70)
MMAP_N_SLOTS = 12 if QUICK else 48
MMAP_MIN_SPEEDUP = 2.0 if QUICK else 5.0
MMAP_REPEATS = 3 if QUICK else 5


def test_warm_started_gsp_cuts_steady_state_sweeps():
    network = repro.grid_network(*WARM_GRID)
    n = network.n_roads
    rng = np.random.default_rng(11)
    params = RTFSlot(
        slot=0,
        mu=rng.uniform(25.0, 85.0, n),
        sigma=rng.uniform(0.8, 5.0, n),
        rho=rng.uniform(0.1, 0.95, network.n_edges),
    )
    observed_roads = rng.choice(n, size=max(5, n // 40), replace=False)
    observed = {
        int(r): float(max(1.0, params.mu[r] * 0.8)) for r in observed_roads
    }
    engine = GSPEngine(network)
    config = GSPConfig(epsilon=1e-5, max_sweeps=2000)

    cold = engine.propagate(params, observed, config)
    warm = engine.propagate(
        params, observed, config, initial_field=cold.speeds
    )
    assert cold.converged and warm.converged
    # Same fixed point within the solver's ε — the fidelity half of the gate.
    np.testing.assert_allclose(warm.speeds, cold.speeds, rtol=0, atol=1e-3)

    ratio = cold.sweeps / max(warm.sweeps, 1)
    print(
        f"\nwarm GSP: cold {cold.sweeps} sweeps vs warm {warm.sweeps} "
        f"({ratio:.1f}x, gate {WARM_MIN_SWEEP_RATIO}x)"
    )
    assert ratio >= WARM_MIN_SWEEP_RATIO, (
        f"warm-start sweep ratio {ratio:.2f}x below the "
        f"{WARM_MIN_SWEEP_RATIO}x gate"
    )


def test_mmap_cold_start_beats_npz_load(tmp_path):
    network = repro.grid_network(*MMAP_GRID)
    n = network.n_roads
    rng = np.random.default_rng(13)
    model = RTFModel(
        network,
        [
            RTFSlot(
                slot=t,
                mu=rng.uniform(25.0, 85.0, n),
                sigma=rng.uniform(0.8, 5.0, n),
                rho=rng.uniform(0.1, 0.95, network.n_edges),
            )
            for t in range(MMAP_N_SLOTS)
        ],
    )
    npz_path = tmp_path / "model.npz"
    snap_path = tmp_path / "model.snap"
    model.save(npz_path)
    # Parameter arrays only: the .npz baseline carries no propagation
    # arrays either, so the two cold starts load the same content.
    write_snapshot(snap_path, model, include_propagation=False)

    npz_times = []
    mmap_times = []
    store = None
    for _ in range(MMAP_REPEATS):
        start = time.perf_counter()
        baseline = ModelStore(RTFModel.load(npz_path, network))
        npz_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        store = load_store(snap_path, network)
        mmap_times.append(time.perf_counter() - start)

    # Fidelity: the mmap-loaded store serves byte-exact parameters.
    assert store is not None
    snapshot = store.current()
    for t in model.slots:
        assert snapshot.digest(t) == params_signature(model.slot(t))
        assert np.array_equal(snapshot.slot(t).mu, baseline.current().slot(t).mu)

    speedup = min(npz_times) / min(mmap_times)
    print(
        f"\nmmap cold start: npz {min(npz_times) * 1e3:.1f} ms vs "
        f"mmap {min(mmap_times) * 1e3:.1f} ms "
        f"({speedup:.1f}x, gate {MMAP_MIN_SPEEDUP}x)"
    )
    assert speedup >= MMAP_MIN_SPEEDUP, (
        f"mmap cold-start speedup {speedup:.2f}x below the "
        f"{MMAP_MIN_SPEEDUP}x gate"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
