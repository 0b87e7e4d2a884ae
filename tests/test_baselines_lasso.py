"""Unit tests for the from-scratch lasso solver and the LASSO field."""

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.baselines import LassoFieldModel
from repro.baselines.lasso import (
    fit_lasso_field,
    lasso_coordinate_descent,
    lasso_coordinate_descent_multi,
    lasso_field,
)


def make_regression(n=80, p=5, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(n, p))
    beta = np.array([2.0, -1.5, 0.0, 0.0, 3.0])[:p]
    target = design @ beta + noise * rng.normal(size=n)
    return design, target, beta


def fit_coef(design, target, alpha, max_iter=300):
    """Single-target lasso coefficients of raw (uncentred) data."""
    n = design.shape[0]
    xc = design - design.mean(axis=0)
    gram = xc.T @ xc / n
    corr = xc.T @ (target - target.mean()) / n
    return lasso_coordinate_descent(gram, corr, alpha, max_iter=max_iter)


class TestCoordinateDescent:
    def test_alpha_zero_matches_ols(self):
        design, target, _ = make_regression()
        n = design.shape[0]
        xc = design - design.mean(axis=0)
        yc = target - target.mean()
        gram = xc.T @ xc / n
        corr = xc.T @ yc / n
        beta_cd = lasso_coordinate_descent(gram, corr, alpha=0.0, max_iter=2000, tol=1e-12)
        beta_ols = np.linalg.solve(gram, corr)
        assert np.allclose(beta_cd, beta_ols, atol=1e-6)

    def test_recovers_sparse_signal(self):
        design, target, beta_true = make_regression(n=300, noise=0.05)
        coef = fit_coef(design, target, alpha=0.02, max_iter=2000)
        assert np.allclose(coef, beta_true, atol=0.1)

    def test_large_alpha_zeroes_everything(self):
        design, target, _ = make_regression()
        assert np.allclose(fit_coef(design, target, alpha=1e6), 0.0)

    def test_alpha_shrinks_l1_norm(self):
        design, target, _ = make_regression(n=150)
        norms = []
        for alpha in (0.0, 0.1, 0.5, 2.0):
            coef = fit_coef(design, target, alpha=alpha, max_iter=2000)
            norms.append(np.abs(coef).sum())
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ModelError):
            lasso_coordinate_descent(np.eye(2), np.ones(2), alpha=-1)

    def test_degenerate_column_gets_zero(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(50, 3))
        design[:, 1] = 7.0  # constant column: zero variance after centring
        target = design[:, 0] * 2
        assert fit_coef(design, target, alpha=0.01)[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            lasso_coordinate_descent(np.eye(3), np.ones(2), alpha=0.1)


class TestMultiTarget:
    def test_matches_single_target(self):
        rng = np.random.default_rng(2)
        design = rng.normal(size=(60, 4))
        targets = rng.normal(size=(60, 6))
        n = design.shape[0]
        xc = design - design.mean(axis=0)
        gram = xc.T @ xc / n
        corr = xc.T @ (targets - targets.mean(axis=0)) / n
        multi = lasso_coordinate_descent_multi(gram, corr, alpha=0.05, max_iter=2000)
        for k in range(6):
            single = lasso_coordinate_descent(gram, corr[:, k], alpha=0.05, max_iter=2000)
            assert np.allclose(multi[:, k], single, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            lasso_coordinate_descent_multi(np.eye(3), np.ones(3), alpha=0.1)

    def test_warm_start_reaches_same_optimum(self):
        rng = np.random.default_rng(5)
        design = rng.normal(size=(120, 6))
        targets = rng.normal(size=(120, 4))
        n = design.shape[0]
        xc = design - design.mean(axis=0)
        gram = xc.T @ xc / n
        corr = xc.T @ (targets - targets.mean(axis=0)) / n
        cold = lasso_coordinate_descent_multi(
            gram, corr, alpha=0.05, max_iter=3000, tol=1e-10
        )
        warm = lasso_coordinate_descent_multi(
            gram, corr, alpha=0.05, max_iter=3000, tol=1e-10, warm_start=True
        )
        assert np.allclose(cold, warm, atol=1e-6)


class TestLassoField:
    def test_probed_roads_pass_through(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        probes = {0: 25.0, 5: 66.0}
        field = lasso_field(net, samples, probes)
        assert field[0] == pytest.approx(25.0)
        assert field[5] == pytest.approx(66.0)

    def test_no_probes_falls_back_to_mean(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        field = lasso_field(net, samples, {})
        assert np.allclose(field, samples.mean(axis=0))

    def test_all_positive(self, small_world):
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        field = lasso_field(net, samples, {2: 10.0, 9: 80.0})
        assert np.all(field > 0)

    def test_bad_alpha(self, line_net):
        with pytest.raises(ModelError):
            lasso_field(line_net, np.ones((5, 6)), {}, alpha=-0.1)

    def test_probes_improve_over_mean(self, small_world):
        """With informative probes the lasso should beat the plain mean
        on the probe-adjacent roads for a day that deviates from it."""
        net = small_world["network"]
        history = small_world["history"]
        slot = small_world["slot"]
        samples = history.slot_samples(slot)
        truth_day = samples[-1]
        train = samples[:-1]
        probe_roads = list(range(0, net.n_roads, 4))
        probes = {r: float(truth_day[r]) for r in probe_roads}
        field = lasso_field(net, train, probes, alpha=0.05)
        mean = train.mean(axis=0)
        free = [i for i in range(net.n_roads) if i not in probes]
        lasso_err = np.abs(field[free] - truth_day[free]).mean()
        mean_err = np.abs(mean[free] - truth_day[free]).mean()
        assert lasso_err < mean_err * 1.05


class TestLassoFieldModel:
    """The serializable fitted-state split (backend satellite)."""

    def _fitted(self, small_world, alpha=0.05):
        samples = small_world["history"].slot_samples(small_world["slot"])
        observed = np.arange(0, small_world["network"].n_roads, 4)
        return samples, observed, fit_lasso_field(samples, observed, alpha)

    def test_estimator_delegates_to_fit_field(self, small_world):
        """lasso_field() == fit_lasso_field().predict() on the probes
        read in sorted road order (coordinate descent is order-sensitive)."""
        net = small_world["network"]
        samples = small_world["history"].slot_samples(small_world["slot"])
        probes = {8: 66.0, 0: 25.0, 4: 50.0}
        field = lasso_field(net, samples, probes, alpha=0.05)
        model = fit_lasso_field(samples, np.array([0, 4, 8]), 0.05)
        np.testing.assert_array_equal(
            field, model.predict(np.array([25.0, 50.0, 66.0]))
        )

    def test_pickle_roundtrip_predicts_identically(self, small_world):
        import pickle

        samples, observed, model = self._fitted(small_world)
        assert isinstance(model, LassoFieldModel)
        revived = pickle.loads(pickle.dumps(model))
        probe_values = samples[-1][observed]
        np.testing.assert_array_equal(
            model.predict(probe_values), revived.predict(probe_values)
        )
        np.testing.assert_array_equal(revived.beta, model.beta)
        np.testing.assert_array_equal(revived.observed, model.observed)

    def test_predict_pins_probes_and_floors(self, small_world):
        samples, observed, model = self._fitted(small_world)
        probe_values = samples[-1][observed]
        field = model.predict(probe_values)
        np.testing.assert_allclose(field[observed], probe_values)
        assert np.all(field >= 0.5)

    def test_empty_observation_returns_target_means(self, small_world):
        samples = small_world["history"].slot_samples(small_world["slot"])
        model = fit_lasso_field(samples, np.array([], dtype=int), alpha=0.05)
        field = model.predict(np.array([]))
        np.testing.assert_allclose(field, samples.mean(axis=0))
