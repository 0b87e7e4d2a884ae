"""The float32 kernel mode's tolerance contract (PrecisionPolicy).

``float64`` is the reference precision: requesting it changes nothing —
``resolve_gsp_config`` returns the caller's config (including ``None``)
untouched and answers stay bit-identical.  ``float32`` is the opt-in
fast mode; its documented contract (:class:`PrecisionPolicy`) is that on
converged runs every non-observed road stays within ``field_rtol``
relative divergence of the float64 field, observed roads are re-clamped
to their exact probed values, and everything upstream of GSP (the OCS
selection, the probes) is precision-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.gsp import (
    GSPConfig,
    GSPKernel,
    GSPSchedule,
    PrecisionPolicy,
    propagate,
)
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.errors import ModelError

RTOL = PrecisionPolicy.FLOAT32.field_rtol


@pytest.fixture(scope="module")
def observed(small_world):
    params = small_world["params"]
    roads = [0, 7, 19, 33, 48]
    return {r: float(params.mu[r] * 0.8) for r in roads}


class TestWithPrecision:
    def test_float64_is_identity_on_precision(self):
        config = GSPConfig(schedule=GSPSchedule.BFS)
        adjusted = config.with_precision("float64")
        assert adjusted.precision is PrecisionPolicy.FLOAT64
        assert adjusted.schedule is GSPSchedule.BFS

    def test_auto_kernel_upgrades_schedule_for_float32(self):
        adjusted = GSPConfig(schedule=GSPSchedule.RANDOM).with_precision("float32")
        assert adjusted.precision is PrecisionPolicy.FLOAT32
        assert adjusted.schedule is GSPSchedule.BFS_PARALLEL

    def test_vectorizable_schedule_kept(self):
        adjusted = GSPConfig(schedule=GSPSchedule.BFS_COLORED).with_precision(
            "float32"
        )
        assert adjusted.schedule is GSPSchedule.BFS_COLORED

    def test_sequential_schedules_kept_for_float32(self):
        for schedule in (GSPSchedule.BFS, GSPSchedule.INDEX):
            adjusted = GSPConfig(schedule=schedule).with_precision("float32")
            assert adjusted.precision is PrecisionPolicy.FLOAT32
            assert adjusted.schedule is schedule

    def test_reference_kernel_rejected(self):
        config = GSPConfig(
            schedule=GSPSchedule.BFS_PARALLEL, kernel=GSPKernel.REFERENCE
        )
        with pytest.raises(ModelError, match="float32"):
            config.with_precision("float32")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ModelError, match="precision"):
            GSPConfig().with_precision("float16")


class TestResolveGSPConfig:
    def test_float64_returns_config_untouched(self):
        config = GSPConfig(epsilon=1e-5)
        assert CrowdRTSE.resolve_gsp_config(config, "float64") is config
        assert CrowdRTSE.resolve_gsp_config(None, "float64") is None

    def test_float32_builds_default_config_when_none(self):
        resolved = CrowdRTSE.resolve_gsp_config(None, "float32")
        assert resolved is not None
        assert resolved.precision is PrecisionPolicy.FLOAT32


class TestFieldTolerance:
    def test_float32_field_within_contract(self, small_world, observed):
        network = small_world["network"]
        params = small_world["params"]
        mask = np.ones(network.n_roads, dtype=bool)
        mask[list(observed)] = False
        for schedule in (GSPSchedule.BFS_PARALLEL, GSPSchedule.BFS):
            # ε must stay within float32 resolution for the fast run to
            # converge; 1e-4 is reachable by both precisions.
            base = GSPConfig(schedule=schedule, epsilon=1e-4)
            ref = propagate(network, params, observed, base)
            fast = propagate(network, params, observed, base.with_precision("float32"))
            assert ref.converged and fast.converged
            divergence = np.abs(fast.speeds[mask] - ref.speeds[mask])
            assert np.all(divergence <= RTOL * np.abs(ref.speeds[mask]))

    def test_observed_roads_clamped_exactly(self, small_world, observed):
        network = small_world["network"]
        params = small_world["params"]
        fast = propagate(
            network,
            params,
            observed,
            GSPConfig(schedule=GSPSchedule.BFS_PARALLEL).with_precision("float32"),
        )
        for road, speed in observed.items():
            assert fast.speeds[road] == speed

    def test_float32_field_is_float64_dtype_on_return(self, small_world, observed):
        """The public field is always float64; precision is internal."""
        fast = propagate(
            small_world["network"],
            small_world["params"],
            observed,
            GSPConfig(schedule=GSPSchedule.BFS_PARALLEL).with_precision("float32"),
        )
        assert fast.speeds.dtype == np.float64


class TestEndToEndPrecision:
    def _answer(self, system, data, precision):
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(3),
        )
        truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
        return system.answer_query(
            EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=15,
                precision=precision,
                warm_start=False,
            ),
            market=market,
            truth=truth,
        )

    def test_selection_is_precision_independent(self, tiny_system, tiny_dataset):
        ref = self._answer(tiny_system, tiny_dataset, "float64")
        fast = self._answer(tiny_system, tiny_dataset, "float32")
        assert ref.selection.selected == fast.selection.selected
        assert ref.probes == fast.probes

    def test_answers_within_contract(self, tiny_system, tiny_dataset):
        ref = self._answer(tiny_system, tiny_dataset, "float64")
        fast = self._answer(tiny_system, tiny_dataset, "float32")
        assert np.all(
            np.abs(fast.estimates_kmh - ref.estimates_kmh)
            <= RTOL * np.abs(ref.estimates_kmh)
        )

    def test_float64_requests_are_reproducible(self, tiny_system, tiny_dataset):
        first = self._answer(tiny_system, tiny_dataset, "float64")
        second = self._answer(tiny_system, tiny_dataset, "float64")
        assert np.array_equal(first.full_field_kmh, second.full_field_kmh)
