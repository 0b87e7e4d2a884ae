"""Unit tests for the OCS local search of the ablation studies."""

import numpy as np
import pytest

import repro
from repro.errors import SelectionError
from repro.core.ocs import OCSInstance, brute_force_ocs, hybrid_greedy
from repro.experiments.ablations import local_search


def make_instance(n=10, queried=(0, 1, 2), budget=4, theta=0.95, seed=0, costs=None):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 0.95, size=(n, n))
    corr = (base + base.T) / 2
    np.fill_diagonal(corr, 1.0)
    return OCSInstance(
        queried=tuple(queried),
        candidates=tuple(range(n)),
        costs=np.asarray(
            costs if costs is not None else np.ones(n), dtype=float
        ),
        budget=budget,
        theta=theta,
        corr=corr,
        sigma=rng.uniform(1.0, 5.0, size=n),
    )


class TestLocalSearch:
    def test_result_feasible(self):
        for seed in range(5):
            inst = make_instance(seed=seed)
            result = local_search(inst)
            assert inst.is_feasible(result.selected)

    def test_never_worse_than_start(self):
        for seed in range(6):
            inst = make_instance(seed=seed)
            greedy = hybrid_greedy(inst)
            refined = local_search(inst, greedy.selected)
            assert refined.objective >= greedy.objective - 1e-9

    def test_infeasible_start_rejected(self):
        inst = make_instance(budget=2)
        with pytest.raises(SelectionError):
            local_search(inst, [0, 1, 2, 3, 4])

    def test_from_scratch_reaches_positive_objective(self):
        inst = make_instance(seed=3)
        result = local_search(inst)
        assert result.objective > 0

    def test_local_optimum_no_improving_add(self):
        inst = make_instance(seed=4)
        result = local_search(inst)
        selected = set(result.selected)
        for road in inst.candidates:
            if road in selected:
                continue
            trial = sorted(selected | {road})
            if inst.is_feasible(trial):
                assert inst.objective(trial) <= result.objective + 1e-9

    def test_matches_brute_force_on_tiny(self):
        for seed in range(6):
            inst = make_instance(n=7, budget=3, seed=seed)
            optimum = brute_force_ocs(inst)
            refined = local_search(inst, hybrid_greedy(inst).selected)
            # Local search closes most of the greedy gap on tiny cases.
            assert refined.objective >= 0.95 * optimum.objective - 1e-9


class TestGreedyPlusLocalSearch:
    def test_gap_nonnegative_and_small(self):
        gaps = []
        for seed in range(8):
            costs = np.random.default_rng(seed).integers(1, 4, 12).astype(float)
            inst = make_instance(n=12, budget=6, seed=seed, costs=costs)
            greedy = hybrid_greedy(inst)
            refined = local_search(inst, greedy.selected)
            gap = (refined.objective - greedy.objective) / greedy.objective
            assert gap >= 0.0
            assert inst.is_feasible(refined.selected)
            gaps.append(gap)
        # Empirically Hybrid-Greedy leaves little on the table.
        assert float(np.mean(gaps)) < 0.15
