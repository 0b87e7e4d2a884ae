"""Unit tests for the exception hierarchy and boundary helpers."""

import warnings

import numpy as np
import pytest

import repro
from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.NetworkError,
            errors.ModelError,
            errors.SelectionError,
            errors.CrowdError,
            errors.DatasetError,
            errors.ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.RoadNotFoundError, errors.NetworkError)
        assert issubclass(errors.EdgeNotFoundError, errors.NetworkError)
        assert issubclass(errors.NotFittedError, errors.ModelError)
        assert issubclass(errors.ConvergenceError, errors.ModelError)
        assert issubclass(errors.BudgetError, errors.SelectionError)
        assert issubclass(errors.NoWorkersError, errors.CrowdError)

    def test_road_not_found_carries_id(self):
        exc = errors.RoadNotFoundError("r9")
        assert exc.road_id == "r9"
        assert "r9" in str(exc)

    def test_edge_not_found_carries_endpoints(self):
        exc = errors.EdgeNotFoundError("a", "b")
        assert exc.road_a == "a" and exc.road_b == "b"

    def test_catchable_as_repro_error(self, line_net):
        with pytest.raises(errors.ReproError):
            line_net.index_of("missing")

    def test_serve_errors_derive_from_repro_error(self):
        assert issubclass(errors.ServeError, errors.ReproError)
        assert issubclass(errors.OverloadedError, errors.ServeError)
        assert issubclass(errors.QueryTimeoutError, errors.ServeError)
        assert issubclass(errors.InternalError, errors.ReproError)

    def test_overloaded_carries_queue_state(self):
        exc = errors.OverloadedError(64, 64)
        assert exc.queue_depth == 64
        assert exc.max_queue_depth == 64
        assert "64" in str(exc)

    def test_query_timeout_carries_stage_and_budget(self):
        exc = errors.QueryTimeoutError("gsp", 0.75, 0.5)
        assert exc.stage == "gsp"
        assert exc.elapsed_seconds == 0.75
        assert exc.deadline_seconds == 0.5
        assert "gsp" in str(exc)

    def test_internal_error_chains_original(self):
        original = ValueError("boom")
        exc = errors.InternalError("ocs", original)
        assert exc.stage == "ocs"
        assert exc.original is original
        assert "ValueError" in str(exc)


class TestWrapInternal:
    def test_converts_stray_builtins(self):
        for stray in (ValueError("v"), KeyError("k"), IndexError("i"),
                      ZeroDivisionError("z")):
            with pytest.raises(errors.InternalError) as excinfo:
                with errors.wrap_internal("stage-x"):
                    raise stray
            assert excinfo.value.stage == "stage-x"
            assert excinfo.value.original is stray
            assert excinfo.value.__cause__ is stray

    def test_repro_errors_pass_through_unwrapped(self):
        with pytest.raises(errors.BudgetError):
            with errors.wrap_internal("ocs"):
                raise errors.BudgetError("over budget")

    def test_unrelated_exceptions_pass_through(self):
        with pytest.raises(RuntimeError):
            with errors.wrap_internal("ocs"):
                raise RuntimeError("not a leak class")

    def test_no_exception_is_a_noop(self):
        with errors.wrap_internal("ocs"):
            pass


class TestAnswerQueryBoundary:
    def test_selector_value_error_surfaces_as_internal(
        self, tiny_dataset, tiny_system, monkeypatch
    ):
        """A stray ValueError inside the OCS stage must not leak raw."""
        from repro.core import pipeline as pipeline_mod

        def exploding_selector(*args, **kwargs):
            raise ValueError("selector blew up")

        monkeypatch.setattr(pipeline_mod, "trivial_solution", exploding_selector)
        market = repro.CrowdMarket(
            tiny_dataset.network,
            tiny_dataset.pool,
            tiny_dataset.cost_model,
            rng=np.random.default_rng(0),
        )
        truth = repro.truth_oracle_for(tiny_dataset.test_history, 0, tiny_dataset.slot)
        with pytest.raises(errors.InternalError) as excinfo:
            tiny_system.answer_query(
                repro.EstimationRequest(
                    queried=tiny_dataset.queried,
                    slot=tiny_dataset.slot,
                    budget=15,
                    warm_start=False,
                ),
                market=market, truth=truth,
            )
        assert excinfo.value.stage == "ocs"
        assert isinstance(excinfo.value.original, ValueError)


class TestDeprecationOnce:
    def test_warns_exactly_once_per_key(self):
        key = "test.once.alpha"
        errors.reset_deprecation_warnings(key)
        with pytest.warns(DeprecationWarning, match="alpha gone"):
            assert errors.warn_deprecated_once(key, "alpha gone") is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Second call is swallowed even with warnings-as-errors.
            assert errors.warn_deprecated_once(key, "alpha gone") is False

    def test_reset_reenables_one_key(self):
        key = "test.once.beta"
        errors.reset_deprecation_warnings(key)
        with pytest.warns(DeprecationWarning):
            errors.warn_deprecated_once(key, "beta gone")
        errors.reset_deprecation_warnings(key)
        with pytest.warns(DeprecationWarning):
            assert errors.warn_deprecated_once(key, "beta gone") is True

    def test_warns_once_across_call_sites(self):
        """One warning per key per process, whichever site raises it."""
        key = "test.once.gamma"

        def old_property():
            return errors.warn_deprecated_once(key, "gamma gone")

        errors.reset_deprecation_warnings(key)
        with pytest.warns(DeprecationWarning, match="gamma gone"):
            assert old_property() is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert errors.warn_deprecated_once(key, "gamma gone") is False
            assert old_property() is False
