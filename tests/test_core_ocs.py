"""Unit tests for repro.core.ocs: greedy solvers vs brute force."""

import numpy as np
import pytest

import repro
from repro.errors import BudgetError, SelectionError
from repro.core.ocs import (
    BRUTE_FORCE_LIMIT,
    OCSInstance,
    brute_force_ocs,
    hybrid_greedy,
    objective_greedy,
    random_selection,
    ratio_greedy,
    trivial_solution,
)

APPROX_RATIO = (1 - 1 / np.e) / 2


def make_instance(
    n=10,
    queried=(0, 1, 2),
    candidates=None,
    costs=None,
    budget=5,
    theta=1.0,
    seed=0,
):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 0.95, size=(n, n))
    corr = (base + base.T) / 2
    np.fill_diagonal(corr, 1.0)
    sigma = rng.uniform(1.0, 5.0, size=n)
    candidates = tuple(candidates if candidates is not None else range(n))
    if costs is None:
        costs = np.ones(len(candidates))
    return OCSInstance(
        queried=tuple(queried),
        candidates=candidates,
        costs=np.asarray(costs, dtype=float),
        budget=budget,
        theta=theta,
        corr=corr,
        sigma=sigma,
    )


class TestInstanceValidation:
    def test_empty_queried(self):
        with pytest.raises(SelectionError):
            make_instance(queried=())

    def test_duplicate_candidates(self):
        with pytest.raises(SelectionError):
            make_instance(candidates=(0, 0, 1))

    def test_nonpositive_cost(self):
        with pytest.raises(BudgetError):
            make_instance(costs=[1, 0] + [1] * 8)

    def test_nonpositive_budget(self):
        with pytest.raises(BudgetError):
            make_instance(budget=0)
        with pytest.raises(BudgetError):
            make_instance(budget=float("nan"))

    def test_theta_out_of_range(self):
        with pytest.raises(SelectionError):
            make_instance(theta=0.0)
        with pytest.raises(SelectionError):
            make_instance(theta=1.5)

    def test_index_out_of_range(self):
        with pytest.raises(SelectionError):
            make_instance(queried=(99,))


class TestObjective:
    def test_empty_selection_zero(self):
        inst = make_instance()
        assert inst.objective([]) == 0.0

    def test_monotone_in_selection(self):
        inst = make_instance(seed=1)
        assert inst.objective([3]) <= inst.objective([3, 4]) + 1e-12

    def test_matches_manual_computation(self):
        inst = make_instance(seed=2, queried=(0, 1))
        sel = [4, 7]
        expected = sum(
            inst.sigma[q] * max(inst.corr[q, 4], inst.corr[q, 7]) for q in (0, 1)
        )
        assert inst.objective(sel) == pytest.approx(expected)

    def test_selection_cost(self):
        inst = make_instance(costs=np.arange(1, 11, dtype=float))
        assert inst.selection_cost([0, 4]) == pytest.approx(1 + 5)

    def test_cost_of_non_candidate_raises(self):
        inst = make_instance(candidates=(0, 1, 2))
        with pytest.raises(SelectionError):
            inst.selection_cost([5])


class TestFeasibility:
    def test_budget_violation(self):
        inst = make_instance(budget=2)
        assert not inst.is_feasible([0, 1, 2])
        assert inst.is_feasible([0, 1])

    def test_redundancy_violation(self):
        inst = make_instance(theta=0.2, seed=3)
        # Find a pair above theta.
        pair = None
        for a in range(10):
            for b in range(a + 1, 10):
                if inst.corr[a, b] > 0.2:
                    pair = [a, b]
                    break
            if pair:
                break
        assert pair is not None
        assert not inst.is_feasible(pair)

    def test_duplicates_infeasible(self):
        inst = make_instance()
        assert not inst.is_feasible([1, 1])

    def test_non_candidate_infeasible(self):
        inst = make_instance(candidates=(0, 1))
        assert not inst.is_feasible([5])


class TestGreedySolvers:
    @pytest.mark.parametrize("solver", [ratio_greedy, objective_greedy, hybrid_greedy])
    def test_solutions_feasible(self, solver):
        for seed in range(5):
            inst = make_instance(
                seed=seed,
                budget=6,
                theta=0.9,
                costs=np.random.default_rng(seed).integers(1, 4, 10).astype(float),
            )
            result = solver(inst)
            assert inst.is_feasible(result.selected)
            assert result.objective == pytest.approx(inst.objective(result.selected))

    def test_hybrid_is_max_of_components(self):
        for seed in range(8):
            costs = np.random.default_rng(seed).integers(1, 5, 10).astype(float)
            inst = make_instance(seed=seed, budget=7, costs=costs, theta=0.95)
            hybrid = hybrid_greedy(inst)
            ratio = ratio_greedy(inst)
            objective = objective_greedy(inst)
            assert hybrid.objective == pytest.approx(
                max(ratio.objective, objective.objective)
            )

    def test_objective_monotone_in_budget(self):
        costs = np.random.default_rng(4).integers(1, 5, 10).astype(float)
        values = []
        for budget in (2, 4, 6, 8, 10):
            inst = make_instance(seed=4, budget=budget, costs=costs, theta=0.95)
            values.append(hybrid_greedy(inst).objective)
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_paper_example1_worst_case(self):
        """Paper Example 1: Ratio-Greedy picks the cheap low-value road."""
        big_k = 10.0
        corr = np.zeros((3, 3))
        np.fill_diagonal(corr, 1.0)
        corr[2, 0] = corr[0, 2] = 0.1  # corr(q, r1) small but ratio-best
        corr[2, 1] = corr[1, 2] = 0.9
        inst = OCSInstance(
            queried=(2,),
            candidates=(0, 1),
            costs=np.array([1.0, big_k]),
            budget=big_k,
            theta=1.0,
            corr=corr,
            sigma=np.ones(3),
        )
        ratio = ratio_greedy(inst)
        # Ratio grabs r0 first (ratio 0.1 > 0.9/10 = 0.09), then cannot
        # afford r1: objective 0.1.
        assert ratio.selected == (0,)
        objective = objective_greedy(inst)
        assert objective.selected == (1,)
        hybrid = hybrid_greedy(inst)
        assert hybrid.objective == pytest.approx(0.9)

    def test_runtime_recorded(self):
        result = hybrid_greedy(make_instance())
        assert result.runtime_seconds >= 0
        assert result.algorithm == "hybrid-greedy"

    def test_redundancy_respected_during_greedy(self):
        inst = make_instance(seed=6, theta=0.5, budget=10)
        result = hybrid_greedy(inst)
        for a in result.selected:
            for b in result.selected:
                if a != b:
                    assert inst.corr[a, b] <= 0.5 + 1e-9


class TestHybridApproximationRatio:
    """Empirical check of Theorem 2 against exact optima."""

    def test_ratio_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(6, 12))
            queried = tuple(rng.choice(n, size=3, replace=False).tolist())
            costs = rng.integers(1, 4, n).astype(float)
            inst = make_instance(
                n=n,
                queried=queried,
                costs=costs,
                budget=int(rng.integers(3, 8)),
                theta=float(rng.uniform(0.6, 1.0)),
                seed=trial,
            )
            optimal = brute_force_ocs(inst)
            hybrid = hybrid_greedy(inst)
            assert inst.is_feasible(optimal.selected)
            assert hybrid.objective >= APPROX_RATIO * optimal.objective - 1e-9
            assert hybrid.objective <= optimal.objective + 1e-9

    def test_brute_force_limit(self):
        inst = make_instance(n=BRUTE_FORCE_LIMIT + 5, budget=3)
        with pytest.raises(SelectionError, match="limited"):
            brute_force_ocs(inst)

    def test_brute_force_exact_on_tiny(self):
        inst = make_instance(n=5, queried=(0,), budget=2, seed=9)
        result = brute_force_ocs(inst)
        # Enumerate manually.
        best = 0.0
        from itertools import combinations
        for k in range(3):
            for subset in combinations(range(5), k):
                if inst.is_feasible(list(subset)):
                    best = max(best, inst.objective(list(subset)))
        assert result.objective == pytest.approx(best)


class TestRandomSelection:
    def test_feasible(self, rng):
        inst = make_instance(seed=11, theta=0.8, budget=6)
        result = random_selection(inst, rng)
        assert inst.is_feasible(result.selected)

    def test_deterministic_with_same_rng_seed(self):
        inst = make_instance(seed=12, budget=5)
        a = random_selection(inst, np.random.default_rng(3))
        b = random_selection(inst, np.random.default_rng(3))
        assert a.selected == b.selected

    def test_usually_worse_than_hybrid(self):
        wins = 0
        for seed in range(10):
            inst = make_instance(seed=seed, budget=4, theta=0.95)
            hybrid = hybrid_greedy(inst)
            rand = random_selection(inst, np.random.default_rng(seed))
            if hybrid.objective >= rand.objective - 1e-9:
                wins += 1
        assert wins >= 8


class TestTrivialSolution:
    def test_requires_theta_one_and_unit_costs(self):
        inst = make_instance(theta=0.9)
        assert trivial_solution(inst) is None
        inst = make_instance(costs=np.full(10, 2.0))
        assert trivial_solution(inst) is None

    def test_over_adequate_budget_selects_all(self):
        inst = make_instance(budget=20, theta=1.0)
        result = trivial_solution(inst)
        assert result is not None
        assert set(result.selected) == set(inst.candidates)

    def test_few_queried_picks_best_per_query(self):
        inst = make_instance(queried=(0, 1), budget=5, theta=1.0)
        result = trivial_solution(inst)
        assert result is not None
        expected = set()
        c = np.asarray(inst.candidates)
        for q in inst.queried:
            expected.add(int(c[np.argmax(inst.corr[q, c])]))
        assert set(result.selected) == expected

    def test_trivial_matches_brute_force(self):
        inst = make_instance(n=8, queried=(0, 1), budget=4, theta=1.0, seed=14)
        trivial = trivial_solution(inst)
        optimal = brute_force_ocs(inst)
        assert trivial is not None
        assert trivial.objective == pytest.approx(optimal.objective)

    def test_neither_case_returns_none(self):
        inst = make_instance(queried=tuple(range(6)), budget=5, theta=1.0)
        assert trivial_solution(inst) is None
