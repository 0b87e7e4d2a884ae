"""Tests of the experiment harness: each table/figure runs at QUICK scale
and reproduces the paper's qualitative shapes."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    default_gmission,
    default_semisyn,
    fit_system,
    ocs_instance_for,
)
from repro.experiments.common import ESTIMATOR_LABELS, run_estimation_trial
from repro.experiments import (
    ablations,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    table2,
    table3,
)

QUICK = ExperimentScale.QUICK


class TestCommon:
    def test_datasets_memoized(self):
        assert default_semisyn(QUICK) is default_semisyn(QUICK)
        assert default_gmission(QUICK) is default_gmission(QUICK)

    def test_fit_system_memoized(self):
        assert fit_system("semisyn", QUICK) is fit_system("semisyn", QUICK)

    def test_trial_scores_every_figure_backend(self):
        data = default_semisyn(QUICK)
        system = fit_system("semisyn", QUICK)
        trial = run_estimation_trial(data, system, 30, "hybrid", day=1)
        assert list(trial.estimates) == list(ESTIMATOR_LABELS)
        assert [ESTIMATOR_LABELS[n] for n in trial.estimates] == [
            "GSP", "LASSO", "GRMC", "Per"
        ]
        assert set(trial.seconds) == set(ESTIMATOR_LABELS)
        for estimates in trial.estimates.values():
            assert estimates.shape == trial.truths.shape == (len(data.queried),)

    @pytest.mark.parametrize("selector", ["hybrid", "random"])
    def test_trial_gsp_column_is_the_backend_estimate(self, selector, monkeypatch):
        """The GSP column reuses the answered query's field; it must equal
        a fresh rtf_gsp estimate on the same probes bit for bit."""
        data = default_semisyn(QUICK)
        system = fit_system("semisyn", QUICK)
        answered = []
        answer_query = system.answer_query

        def spy(*args, **kwargs):
            answered.append(answer_query(*args, **kwargs))
            return answered[-1]

        monkeypatch.setattr(system, "answer_query", spy)
        trial = run_estimation_trial(
            data, system, 15, selector, day=2, backends=("rtf_gsp",), seed=17
        )
        fresh = system.estimate_with_backend(
            "rtf_gsp", answered[0].probes, data.slot
        )
        queried = np.asarray(data.queried, dtype=int)
        np.testing.assert_array_equal(
            trial.estimates["rtf_gsp"], fresh.speeds[queried]
        )

    def test_ocs_instance_for(self):
        data = default_semisyn(QUICK)
        system = fit_system("semisyn", QUICK)
        instance = ocs_instance_for(data, system, budget=20)
        assert instance.budget == 20
        assert instance.theta == data.theta


class TestTable2:
    def test_rows_cover_both_datasets(self):
        rows = table2.run(QUICK)
        assert [r.dataset for r in rows] == ["semisyn", "gmission"]

    def test_gmission_workers_subset(self):
        rows = {r.dataset: r for r in table2.run(QUICK)}
        gm = rows["gmission"]
        assert gm.n_worker_roads < gm.n_queried
        semi = rows["semisyn"]
        assert semi.n_worker_roads == semi.n_roads

    def test_format_table(self):
        text = table2.format_table(table2.run(QUICK))
        assert "semisyn" in text and "gmission" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def points(self):
        return figure2.run(QUICK)

    def test_vo_monotone_in_budget(self, points):
        for cost_range in ("C1", "C2"):
            for algo in ("Ratio", "OBJ", "Hybrid"):
                series = [
                    p.objective
                    for p in sorted(
                        (q for q in points if q.cost_range == cost_range and q.algorithm == algo),
                        key=lambda q: q.budget,
                    )
                ]
                assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_hybrid_dominates(self, points):
        by_key = {}
        for p in points:
            by_key.setdefault((p.cost_range, p.budget), {})[p.algorithm] = p.objective
        for algos in by_key.values():
            assert algos["Hybrid"] >= algos["Ratio"] - 1e-9
            assert algos["Hybrid"] >= algos["OBJ"] - 1e-9

    def test_ratios_at_most_one(self, points):
        for _, _, _, ratio in figure2.ratios_to_hybrid(points):
            assert ratio <= 1.0 + 1e-9

    def test_components_converge_at_large_budget(self, points):
        """At the largest K the winner's margin shrinks (paper: Ratio
        reaches Hybrid when budget is large enough)."""
        ratios = figure2.ratios_to_hybrid(points)
        largest = max(r[1] for r in ratios)
        best_at_largest = max(r[3] for r in ratios if r[1] == largest)
        assert best_at_largest >= 0.99


class TestFigure3:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure3.run(
            QUICK, n_trials=3, selectors=("hybrid", "random"), budgets=(15, 45, 75)
        )

    def test_all_cells_present(self, cells):
        keys = {(c.selector, c.budget, c.estimator) for c in cells}
        assert len(keys) == 2 * 3 * 4

    def test_gsp_best_at_smallest_budget(self, cells):
        smallest = min(c.budget for c in cells)
        hybrid_cells = {
            c.estimator: c.summary.mape
            for c in cells
            if c.selector == "hybrid" and c.budget == smallest
        }
        assert hybrid_cells["GSP"] == min(hybrid_cells.values())

    def test_gsp_improves_with_budget(self, cells):
        series = sorted(
            (c for c in cells if c.selector == "hybrid" and c.estimator == "GSP"),
            key=lambda c: c.budget,
        )
        assert series[-1].summary.mape <= series[0].summary.mape + 0.02

    def test_hybrid_selection_beats_random_for_gsp(self, cells):
        smallest = min(c.budget for c in cells)
        by_selector = {
            c.selector: c.summary.mape
            for c in cells
            if c.estimator == "GSP" and c.budget == smallest
        }
        assert by_selector["hybrid"] <= by_selector["random"] + 0.02

    def test_format_helpers(self, cells):
        assert "MAPE" in figure3.format_table(cells)
        assert "selector" in figure3.format_dape(cells, min(c.budget for c in cells))


class TestFigure4:
    def test_ocs_runtime_points(self):
        points = figure4.run_ocs_runtime(QUICK, repeats=1)
        budgets = {p.budget for p in points}
        assert len(budgets) == 5
        for p in points:
            assert p.seconds >= 0
            # Paper scalability claim: Hybrid within one second.
            assert p.seconds < 1.0

    def test_estimator_runtime_relative_order(self):
        points = figure4.run_estimator_runtime(QUICK, repeats=1)
        by_method = {}
        for p in points:
            by_method.setdefault(p.method, []).append(p.seconds)
        # LASSO fastest on average, GRMC slowest (paper Fig. 4b).
        assert np.mean(by_method["LASSO"]) < np.mean(by_method["GRMC"])
        assert np.mean(by_method["GSP"]) < np.mean(by_method["GRMC"])


class TestFigure5:
    def test_iterations_grow_with_size(self):
        points = figure5.run(QUICK, sizes=(20, 60, 100), tol=0.05, max_iters=3000)
        assert [p.n_roads for p in points] == [20, 60, 100]
        assert all(p.converged for p in points)
        assert points[-1].iterations >= points[0].iterations

    def test_format(self):
        points = figure5.run(QUICK, sizes=(20,), tol=0.1, max_iters=500)
        assert "iterations" in figure5.format_table(points)


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3.run(QUICK, random_trials=3)

    def test_all_strategies_and_budgets(self, rows):
        strategies = {r.strategy for r in rows}
        assert strategies == {"OBJ", "Rand", "Hybrid"}

    def test_two_hop_at_least_one_hop(self, rows):
        for r in rows:
            assert r.two_hop >= r.one_hop
            assert r.two_hop <= r.n_queried

    def test_hybrid_covers_most(self, rows):
        by_budget = {}
        for r in rows:
            by_budget.setdefault(r.budget, {})[r.strategy] = r
        for budget, strategies in by_budget.items():
            assert strategies["Hybrid"].two_hop >= strategies["Rand"].two_hop

    def test_coverage_monotone_in_budget(self, rows):
        hybrid = sorted(
            (r for r in rows if r.strategy == "Hybrid"), key=lambda r: r.budget
        )
        twos = [r.two_hop for r in hybrid]
        assert all(a <= b + 1 for a, b in zip(twos, twos[1:]))

    def test_format(self, rows):
        assert "/" in table3.format_table(rows)


class TestFigure6:
    def test_gmission_shapes(self):
        cells = figure6.run(QUICK, n_trials=2)
        assert {c.estimator for c in cells} == {"GSP", "LASSO", "GRMC", "Per"}
        smallest = min(c.budget for c in cells)
        at_smallest = {
            c.estimator: c.summary.mape for c in cells if c.budget == smallest
        }
        # GSP at least beats the correlation-only baselines on the
        # worker-scarce instance.
        assert at_smallest["GSP"] <= at_smallest["LASSO"] + 0.02
        assert at_smallest["GSP"] <= at_smallest["GRMC"] + 0.02


class TestAblations:
    def test_path_weight_rows(self):
        rows = ablations.path_weight_ablation(QUICK)
        values = {r.variant: r.value for r in rows}
        assert values["exact >= paper (should be ~1)"] >= 0.999

    def test_gsp_schedule_rows(self):
        rows = ablations.gsp_schedule_ablation(QUICK)
        schedules = {r.variant for r in rows}
        assert "bfs" in schedules and "random" in schedules

    @pytest.mark.parametrize("name", ["bfs-colored", "random", "index"])
    def test_ablation_order_reaches_exact_mean(self, small_world, name):
        from repro.core.exact_inference import exact_conditional_mean
        from repro.core.gsp import GSPConfig

        network = small_world["network"]
        params = small_world["params"]
        observed = {
            0: float(params.mu[0] * 0.6),
            9: float(params.mu[9] * 1.3),
            21: float(params.mu[21] * 0.9),
        }
        order = ablations._ablation_orders(network, observed)[name]
        speeds, sweeps = ablations._gauss_seidel(
            network, params, observed, order, GSPConfig(epsilon=1e-11, max_sweeps=8000)
        )
        assert sweeps < 8000
        for road, value in observed.items():
            assert speeds[road] == value
        exact = exact_conditional_mean(network, params, observed)
        np.testing.assert_allclose(speeds, exact, rtol=0, atol=1e-6)

    def test_aggregation_rows(self):
        rows = ablations.aggregation_ablation(QUICK, n_trials=2)
        assert {r.variant for r in rows} == {"mean", "median", "trimmed-mean"}
        for r in rows:
            assert 0 <= r.value < 0.5

    def test_inference_init_rows(self):
        rows = ablations.inference_init_ablation(QUICK)
        iters = {r.variant: r.value for r in rows if r.metric == "iterations"}
        # Random init needs (weakly) more iterations than empirical.
        assert iters["random"] >= iters["empirical"]


class TestDailyRefresh:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments import daily_refresh

        return daily_refresh.run(QUICK)

    def test_one_row_per_test_day(self, rows):
        data = default_semisyn(QUICK)
        assert [r.day for r in rows] == list(range(data.test_history.n_days))

    def test_versions_increment_per_refresh(self, rows):
        assert [r.store_version for r in rows] == list(
            range(2, len(rows) + 2)
        )

    def test_one_correlation_derivation_per_day(self, rows):
        # Each day derives Γ_R rows for the single refreshed slot only:
        # the rows OCS reads (R^q plus the roads it selects), never the
        # whole table.
        n_roads = default_semisyn(QUICK).network.n_roads
        totals = [r.corr_derivations for r in rows]
        per_day = np.diff([0] + totals)
        assert all(0 < k < n_roads for k in per_day), (per_day, n_roads)

    def test_format_table(self, rows):
        from repro.experiments import daily_refresh

        text = daily_refresh.format_table(rows)
        assert "refreshed MAPE" in text
        assert str(rows[-1].store_version) in text
