"""Perf gate for snapshot cold start, checked for speed AND fidelity.

``load_store`` on an mmap snapshot must beat the
``.npz``-decompress-then-hash path ≥5× while adopting digests that
match a byte-exact reload.

Runs in two modes:

* full (default) — a 70×70 grid / 48-slot store;
* quick (``LATENCY_PERF_QUICK=1``) — a scaled-down instance with a
  relaxed speedup floor, used by the CI smoke job so the harness cannot
  rot.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from repro.core.rtf import RTFModel, RTFSlot, params_signature
from repro.core.snapshot_io import load_store, write_snapshot
from repro.core.store import ModelStore

QUICK = os.environ.get("LATENCY_PERF_QUICK", "") == "1"

MMAP_GRID = (35, 35) if QUICK else (70, 70)
MMAP_N_SLOTS = 12 if QUICK else 48
MMAP_MIN_SPEEDUP = 2.0 if QUICK else 5.0
MMAP_REPEATS = 3 if QUICK else 5


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
