"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.core.correlation import road_road_correlation_matrix
from repro.core.gsp import GSPConfig, propagate
from repro.core.inference import empirical_slot_parameters
from repro.core.ocs import (
    OCSInstance,
    brute_force_ocs,
    hybrid_greedy,
    objective_greedy,
    ratio_greedy,
)
from repro.core.rtf import RTFSlot
from repro.crowd.aggregation import Aggregator, aggregate_answers
from repro.eval.metrics import (
    dape_histogram,
    false_estimation_rate,
    mean_absolute_percentage_error,
)
from repro.experiments.ablations import _reciprocal_correlation_matrix

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

speeds = st.floats(min_value=1.0, max_value=150.0, allow_nan=False)
rhos = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def small_network(draw):
    """A random connected network of 3-10 roads."""
    n = draw(st.integers(min_value=3, max_value=10))
    roads = [repro.Road(road_id=f"r{i}") for i in range(n)]
    # Spanning-tree edges guarantee connectivity.
    edges = set()
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((parent, i))
    # Extra random edges.
    n_extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(n_extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return repro.TrafficNetwork(
        roads, [(f"r{i}", f"r{j}") for i, j in sorted(edges)]
    )


@st.composite
def network_with_rho(draw):
    net = draw(small_network())
    rho = np.array([draw(rhos) for _ in range(net.n_edges)])
    return net, rho


# ----------------------------------------------------------------------
# Correlation matrix properties (Eq. 7-10)
# ----------------------------------------------------------------------


class TestCorrelationProperties:
    @given(network_with_rho())
    @settings(max_examples=40, deadline=None)
    def test_matrix_symmetric_unit_diag_bounded(self, net_rho):
        net, rho = net_rho
        corr = road_road_correlation_matrix(net, rho)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.all(corr >= -1e-12)
        assert np.all(corr <= 1.0 + 1e-9)

    @given(network_with_rho())
    @settings(max_examples=40, deadline=None)
    def test_adjacent_at_least_edge_rho(self, net_rho):
        """A path can only improve on the direct edge product."""
        net, rho = net_rho
        corr = road_road_correlation_matrix(net, rho)
        for e, (i, j) in enumerate(net.edges):
            assert corr[i, j] >= rho[e] - 1e-9

    @given(network_with_rho())
    @settings(max_examples=30, deadline=None)
    def test_log_mode_dominates_reciprocal(self, net_rho):
        net, rho = net_rho
        exact = road_road_correlation_matrix(net, rho)
        paper = _reciprocal_correlation_matrix(net, rho)
        assert np.all(exact >= paper - 1e-9)

    @given(network_with_rho())
    @settings(max_examples=30, deadline=None)
    def test_triangle_style_inequality(self, net_rho):
        """corr(i,k) >= corr(i,j) * corr(j,k): paths compose."""
        net, rho = net_rho
        corr = road_road_correlation_matrix(net, rho)
        n = net.n_roads
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert corr[i, k] >= corr[i, j] * corr[j, k] - 1e-9


# ----------------------------------------------------------------------
# OCS properties
# ----------------------------------------------------------------------


@st.composite
def ocs_instance(draw):
    net, rho = draw(network_with_rho())
    corr = road_road_correlation_matrix(net, rho)
    n = net.n_roads
    sigma = np.array([draw(st.floats(0.5, 8.0)) for _ in range(n)])
    n_q = draw(st.integers(min_value=1, max_value=n))
    queried = tuple(sorted(draw(st.permutations(range(n)))[:n_q]))
    costs = np.array([draw(st.integers(1, 4)) for _ in range(n)], dtype=float)
    budget = draw(st.integers(min_value=1, max_value=12))
    theta = draw(st.floats(min_value=0.3, max_value=1.0))
    return OCSInstance(
        queried=queried,
        candidates=tuple(range(n)),
        costs=costs,
        budget=budget,
        theta=theta,
        corr=corr,
        sigma=sigma,
    )


class TestOCSProperties:
    @given(ocs_instance())
    @settings(max_examples=40, deadline=None)
    def test_greedy_solutions_always_feasible(self, instance):
        for solver in (ratio_greedy, objective_greedy, hybrid_greedy):
            result = solver(instance)
            assert instance.is_feasible(result.selected)

    @given(ocs_instance())
    @settings(max_examples=40, deadline=None)
    def test_hybrid_at_least_both_components(self, instance):
        hybrid = hybrid_greedy(instance).objective
        assert hybrid >= ratio_greedy(instance).objective - 1e-9
        assert hybrid >= objective_greedy(instance).objective - 1e-9

    @given(ocs_instance())
    @settings(max_examples=25, deadline=None)
    def test_theorem2_bound_against_brute_force(self, instance):
        assume(instance.n_candidates <= 10)
        optimal = brute_force_ocs(instance).objective
        hybrid = hybrid_greedy(instance).objective
        assert hybrid >= (1 - 1 / np.e) / 2 * optimal - 1e-9
        assert hybrid <= optimal + 1e-9

    @given(ocs_instance())
    @settings(max_examples=30, deadline=None)
    def test_objective_submodular_style_monotonicity(self, instance):
        """Adding a road never decreases Eq. 13."""
        result = hybrid_greedy(instance)
        selection = list(result.selected)
        for cut in range(len(selection)):
            assert instance.objective(selection[: cut + 1]) >= instance.objective(
                selection[:cut]
            ) - 1e-9


# ----------------------------------------------------------------------
# GSP properties
# ----------------------------------------------------------------------


class TestGSPProperties:
    @given(
        small_network(),
        st.floats(10.0, 100.0),
        st.floats(1.0, 8.0),
        st.floats(0.1, 0.95),
        st.floats(5.0, 120.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_propagated_speeds_between_probe_and_prior(
        self, net, mu, sigma, rho, probe
    ):
        """With a flat prior, every inferred speed lies between the
        probe value and the prior mean (convex-combination update)."""
        params = RTFSlot(
            0,
            np.full(net.n_roads, mu),
            np.full(net.n_roads, sigma),
            np.full(net.n_edges, rho),
        )
        result = propagate(
            net, params, {0: probe}, GSPConfig(epsilon=1e-9, max_sweeps=4000)
        )
        low, high = min(mu, probe), max(mu, probe)
        assert np.all(result.speeds >= low - 1e-6)
        assert np.all(result.speeds <= high + 1e-6)

    @given(small_network(), st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_no_probe_is_fixed_point(self, net, rho):
        params = RTFSlot(
            0,
            np.full(net.n_roads, 50.0),
            np.full(net.n_roads, 3.0),
            np.full(net.n_edges, rho),
        )
        result = propagate(net, params, {})
        assert np.allclose(result.speeds, 50.0)


# ----------------------------------------------------------------------
# Metrics properties
# ----------------------------------------------------------------------


class TestMetricsProperties:
    @given(
        st.lists(speeds, min_size=1, max_size=50),
        st.lists(speeds, min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_mape_nonnegative_and_fer_bounded(self, est, truth):
        n = min(len(est), len(truth))
        estimates = np.array(est[:n])
        truths = np.array(truth[:n])
        assert mean_absolute_percentage_error(estimates, truths) >= 0
        fer = false_estimation_rate(estimates, truths)
        assert 0.0 <= fer <= 1.0

    @given(st.lists(speeds, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_perfect_estimates(self, values):
        truths = np.array(values)
        assert mean_absolute_percentage_error(truths, truths) == 0.0
        assert false_estimation_rate(truths, truths) == 0.0

    @given(
        st.lists(speeds, min_size=2, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_dape_sums_to_one(self, values):
        truths = np.array(values)
        estimates = truths * 1.1
        fractions, _ = dape_histogram(estimates, truths)
        assert fractions.sum() == pytest.approx(1.0)

    @given(st.lists(speeds, min_size=1, max_size=30), st.floats(1.001, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_error_monotone(self, values, factor):
        truths = np.array(values)
        closer = truths * (1 + (factor - 1) / 2)
        farther = truths * factor
        assert mean_absolute_percentage_error(
            closer, truths
        ) <= mean_absolute_percentage_error(farther, truths) + 1e-12


# ----------------------------------------------------------------------
# Aggregation properties
# ----------------------------------------------------------------------


class TestAggregationProperties:
    @given(st.lists(speeds, min_size=1, max_size=20), st.sampled_from(list(Aggregator)))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_within_answer_range(self, answers, aggregator):
        value = aggregate_answers(answers, aggregator)
        assert min(answers) - 1e-9 <= value <= max(answers) + 1e-9

    @given(speeds, st.integers(1, 10), st.sampled_from(list(Aggregator)))
    @settings(max_examples=60, deadline=None)
    def test_identical_answers_aggregate_to_value(self, value, count, aggregator):
        assert aggregate_answers([value] * count, aggregator) == pytest.approx(value)


# ----------------------------------------------------------------------
# Inference properties
# ----------------------------------------------------------------------


class TestInferenceProperties:
    @given(small_network(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_empirical_parameters_well_formed(self, net, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(10, 100, size=(8, net.n_roads))
        params = empirical_slot_parameters(net, samples, slot=0)
        assert np.all(params.sigma > 0)
        assert np.all((params.rho >= 0) & (params.rho <= 1))
        assert np.all(np.isfinite(params.mu))
