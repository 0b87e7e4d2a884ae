"""Perf gate: disabled observability must be (nearly) free.

The telemetry added to the online loop is only acceptable if a
deployment that never enables it pays nothing.  This gate times the
instrumented ``GSPEngine.propagate`` (obs disabled, the default) against
an inlined replica of the *pre-instrumentation* propagate — the same
validation, cache access, and vectorized sweeps on the same handed-in
structure, with none of the span / metrics bookkeeping — and bounds the
relative overhead at 5%.

Runs in two modes:

* full (default) — a 46×46 grid (2116 roads), 25 sweeps, 5% bound;
* quick (``OBS_PERF_QUICK=1``) — a 20×20 grid, 10 sweeps.  Timings that
  small are noise-dominated, so the bound is relaxed to 50% plus an
  absolute floor; CI uses this mode only to keep the harness alive.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro
from repro import obs
from repro.core import gsp as gsp_module
from repro.core.gsp import (
    GSPConfig,
    GSPEngine,
    GSPKernel,
    GSPSchedule,
    build_propagation_structure,
)
from repro.core.rtf import RTFSlot
from repro.obs.metrics import _NOOP
from repro.obs.tracing import _NULL_SPAN

QUICK = os.environ.get("OBS_PERF_QUICK", "") == "1"
GRID = (20, 20) if QUICK else (46, 46)
SWEEPS = 10 if QUICK else 25
ROUNDS = 5 if QUICK else 9
#: Relative overhead bound, plus an absolute floor under which we don't
#: care (sub-100µs deltas are clock jitter at this scale).
MAX_OVERHEAD = 0.50 if QUICK else 0.05
ABS_FLOOR_S = 100e-6


@pytest.fixture(scope="module")
def perf_world():
    network = repro.grid_network(*GRID)
    n = network.n_roads
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
    config = GSPConfig(
        epsilon=1e-300,
        max_sweeps=SWEEPS,
        schedule=GSPSchedule.BFS_PARALLEL,
        kernel=GSPKernel.VECTORIZED,
    )
    return network, params, observed, config


def slot_structure(network, params):
    """The slot's compiled structure, as the serving path hands it in."""
    return build_propagation_structure(network, params.propagation_arrays(network))


def baseline_propagate(engine, network, params, observed, cfg, structure):
    """The propagate body as it stood before instrumentation.

    Validation, clamping, warm-cache access and the vectorized sweeps —
    everything ``GSPEngine.propagate`` does on this path except the
    span/metrics bookkeeping whose cost this gate bounds.
    """
    kernel = cfg.kernel
    params.check_against(network)
    n = network.n_roads
    for road, value in observed.items():
        if not 0 <= road < n:
            raise ValueError(road)
        if not np.isfinite(value) or value <= 0:
            raise ValueError(value)
    speeds = params.mu.astype(np.float64).copy()
    for road, value in observed.items():
        speeds[road] = float(value)
    observed_set = frozenset(int(road) for road in observed)
    compiled, _ = engine.schedule_for(cfg.schedule, observed_set, structure)
    speeds, sweeps, converged, history = gsp_module._vectorized_sweeps(
        structure, compiled, speeds, cfg
    )
    assert kernel is GSPKernel.VECTORIZED
    return speeds, sweeps, converged, history


def test_disabled_obs_overhead_within_bound(perf_world):
    network, params, observed, config = perf_world
    obs.disable_all()
    engine = GSPEngine(network)
    structure = slot_structure(network, params)
    engine.propagate(params, observed, config, structure=structure)  # warm caches

    def measure():
        baseline_s = instrumented_s = float("inf")
        # Interleave the variants so thermal / frequency drift hits both.
        for _ in range(ROUNDS):
            start = time.perf_counter()
            speeds_base, sweeps_base, _, _ = baseline_propagate(
                engine, network, params, observed, config, structure
            )
            baseline_s = min(baseline_s, time.perf_counter() - start)

            start = time.perf_counter()
            result = engine.propagate(params, observed, config, structure=structure)
            instrumented_s = min(instrumented_s, time.perf_counter() - start)
        # Same work, same numbers — apples to apples.
        assert result.sweeps == sweeps_base == SWEEPS
        assert np.array_equal(result.speeds, speeds_base)
        return baseline_s, instrumented_s

    # A shared/loaded machine can swing whole measurement windows by more
    # than the 5% being asserted; retry with fresh windows and keep the
    # attempt with the least ambient noise (lowest instrumented time).
    best = None
    for attempt in range(1, 4):
        baseline_s, instrumented_s = measure()
        overhead = instrumented_s / baseline_s - 1.0
        print(
            f"\n[{network.n_roads} roads, {SWEEPS} sweeps, try {attempt}] "
            f"baseline {baseline_s * 1e3:.3f}ms, instrumented "
            f"{instrumented_s * 1e3:.3f}ms, overhead {overhead * 100:+.2f}%"
        )
        if best is None or instrumented_s < best[1]:
            best = (baseline_s, instrumented_s, overhead)
        if overhead <= MAX_OVERHEAD or instrumented_s - baseline_s <= ABS_FLOOR_S:
            return
    baseline_s, instrumented_s, overhead = best
    raise AssertionError(
        f"disabled-obs overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% in every attempt (best attempt: baseline "
        f"{baseline_s * 1e3:.3f}ms, instrumented {instrumented_s * 1e3:.3f}ms)"
    )


def test_enabled_sampler_overhead_within_bound(perf_world):
    """A 1 Hz health sampler must not tax the enabled-obs hot path.

    Both variants run with metrics enabled; the instrumented one also
    has a :class:`HealthMonitor` sampler thread snapshotting the live
    registry once per second.  The only cost the sampler can impose on
    ``propagate`` is registry-lock contention during those snapshots,
    bounded here at the same 5% (50% quick) as the disabled-obs gate.
    """
    from repro.obs.health import HealthMonitor, default_slos

    network, params, observed, config = perf_world
    obs.configure(metrics=True, tracing=False)
    try:
        engine = GSPEngine(network)
        structure = slot_structure(network, params)
        engine.propagate(params, observed, config, structure=structure)  # warm caches

        def measure():
            plain_s = sampled_s = float("inf")
            for _ in range(ROUNDS):
                start = time.perf_counter()
                result_plain = engine.propagate(
                    params, observed, config, structure=structure
                )
                plain_s = min(plain_s, time.perf_counter() - start)
            monitor = HealthMonitor(
                registry=obs.get_metrics(),
                slos=default_slos(),
                interval_s=1.0,
            )
            monitor.start()
            try:
                for _ in range(ROUNDS):
                    start = time.perf_counter()
                    result_sampled = engine.propagate(
                        params, observed, config, structure=structure
                    )
                    sampled_s = min(sampled_s, time.perf_counter() - start)
            finally:
                monitor.close()
            assert result_plain.sweeps == result_sampled.sweeps == SWEEPS
            assert np.array_equal(result_plain.speeds, result_sampled.speeds)
            return plain_s, sampled_s

        best = None
        for attempt in range(1, 4):
            plain_s, sampled_s = measure()
            overhead = sampled_s / plain_s - 1.0
            print(
                f"\n[{network.n_roads} roads, {SWEEPS} sweeps, try {attempt}] "
                f"no sampler {plain_s * 1e3:.3f}ms, 1Hz sampler "
                f"{sampled_s * 1e3:.3f}ms, overhead {overhead * 100:+.2f}%"
            )
            if best is None or sampled_s < best[1]:
                best = (plain_s, sampled_s, overhead)
            if overhead <= MAX_OVERHEAD or sampled_s - plain_s <= ABS_FLOOR_S:
                return
        plain_s, sampled_s, overhead = best
        raise AssertionError(
            f"1Hz-sampler overhead {overhead * 100:.1f}% exceeds "
            f"{MAX_OVERHEAD * 100:.0f}% in every attempt (best attempt: "
            f"no sampler {plain_s * 1e3:.3f}ms, sampled "
            f"{sampled_s * 1e3:.3f}ms)"
        )
    finally:
        obs.disable_all()
        obs.get_metrics().clear()


def test_disabled_obs_records_nothing(perf_world):
    network, params, observed, config = perf_world
    obs.disable_all()
    obs.get_metrics().clear()
    obs.get_tracer().reset()
    engine = GSPEngine(network)
    engine.propagate(params, observed, config)
    assert obs.get_tracer().records() == ()
    snap = obs.get_metrics().snapshot()
    assert snap == {"counters": [], "gauges": [], "histograms": []}


def test_disabled_instruments_are_shared_singletons():
    """The disabled fast path allocates nothing per call."""
    obs.disable_all()
    registry = obs.get_metrics()
    tracer = obs.get_tracer()
    assert registry.counter("x") is _NOOP
    assert registry.histogram("y") is _NOOP
    assert registry.gauge("z") is _NOOP
    assert tracer.span("s", a=1) is _NULL_SPAN
