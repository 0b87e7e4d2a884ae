"""OCS gain evaluation on real-valued instances: feasibility, saturation, local optima.

Each greedy round rescans the marginal gains of Eq. 13 and takes the
argmax, ties to the first candidate.  Once the objective saturates —
every feasible candidate adds exactly nothing — all scores are 0.0, so
the remaining picks must follow candidate order.  A gain path that
carries rounding residue across rounds breaks exactly this tail, which
is what moved Figure 2's |R^c| at C2, K=75; the saturation tests replay
a selection with exact comparisons (no float sums) and check it.

Hypothesis draws real-valued correlations, intensities and θ, not values
on an exactly representable grid, so rounding is part of every example.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_search import local_search
from repro.core.ocs import (
    OCSInstance,
    hybrid_greedy,
    objective_greedy,
    ratio_greedy,
)
from repro.experiments import figure2
from repro.experiments.common import (
    ExperimentScale,
    alt_cost_model,
    default_semisyn,
    fit_system,
    ocs_instance_for,
)

SETTINGS = settings(max_examples=60, deadline=None)

SOLVERS = {
    "ratio": ratio_greedy,
    "objective": objective_greedy,
    "hybrid": hybrid_greedy,
}


@st.composite
def ocs_instances(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    roads = list(range(n))
    queried = draw(
        st.lists(st.sampled_from(roads), min_size=1, max_size=4, unique=True)
    )
    candidates = draw(
        st.lists(st.sampled_from(roads), min_size=2, max_size=n, unique=True)
    )
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    # Symmetric correlation matrix with unit diagonal.
    upper = draw(st.lists(unit, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    corr = np.eye(n)
    idx = np.triu_indices(n, k=1)
    corr[idx] = upper
    corr[(idx[1], idx[0])] = upper
    sigma = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
            )
        ),
        dtype=np.float64,
    )
    costs = np.array(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=5),
                min_size=len(candidates),
                max_size=len(candidates),
            )
        ),
        dtype=np.float64,
    )
    budget = float(draw(st.integers(min_value=1, max_value=15)))
    theta = draw(st.floats(min_value=0.125, max_value=1.0))
    return OCSInstance(
        queried=tuple(queried),
        candidates=tuple(candidates),
        costs=costs,
        budget=budget,
        theta=theta,
        corr=corr,
        sigma=sigma,
    )


def saturated_picks(instance: OCSInstance, selected: Sequence[int]) -> int:
    """Replay a greedy selection; return how many of its picks were saturated.

    A pick is saturated when no feasible candidate beats the current best
    correlation on any queried road, i.e. every feasible gain is exactly
    0.0.  Such a pick must be the first feasible candidate.  The replay
    also checks that the greedy stopped only when nothing was feasible.
    """
    q = np.asarray(instance.queried, dtype=int)
    candidates = np.asarray(instance.candidates, dtype=int)
    position = {int(road): k for k, road in enumerate(candidates)}
    corr_qc = np.asarray(instance.corr[np.ix_(q, candidates)])
    costs = np.asarray(instance.costs, dtype=np.float64)
    best = np.zeros(len(q))
    available = np.ones(len(candidates), dtype=bool)
    remaining = float(instance.budget)
    saturated = 0
    for road in selected:
        feasible = available & (costs <= remaining + 1e-9)
        adds_nothing = np.all(corr_qc <= best[:, None], axis=0)
        if np.all(adds_nothing[feasible]):
            first = int(candidates[np.flatnonzero(feasible)[0]])
            assert road == first, (
                f"saturated pick {saturated}: took road {road}, "
                f"first feasible candidate is {first}"
            )
            saturated += 1
        pos = position[road]
        best = np.maximum(best, corr_qc[:, pos])
        available[pos] = False
        remaining -= costs[pos]
        available &= ~instance.redundant(road, candidates)
    assert not (available & (costs <= remaining + 1e-9)).any()
    return saturated


@pytest.fixture(scope="module")
def figure2_c2_k75() -> OCSInstance:
    """The Figure 2 instance at cost range C2, K=75 (quick scale)."""
    scale = ExperimentScale.QUICK
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    low, high = figure2.COST_RANGES["C2"]
    return ocs_instance_for(
        data, system, 75, theta=0.92, cost_model=alt_cost_model(data, low, high)
    )


class TestGreedyFeasibility:
    @SETTINGS
    @given(instance=ocs_instances())
    def test_feasibility_on_real_valued_instances(self, instance):
        for solver in SOLVERS.values():
            assert instance.is_feasible(solver(instance).selected)


class TestSaturatedPicksFollowCandidateOrder:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_figure2_c2_k75(self, figure2_c2_k75, name):
        result = SOLVERS[name](figure2_c2_k75)
        assert saturated_picks(figure2_c2_k75, result.selected) > 0

    @SETTINGS
    @given(instance=ocs_instances())
    def test_real_valued_instances(self, instance):
        for solver in SOLVERS.values():
            saturated_picks(instance, solver(instance).selected)


class TestLocalSearchOptimum:
    @SETTINGS
    @given(instance=ocs_instances())
    def test_no_single_move_improves(self, instance):
        start = hybrid_greedy(instance).selected
        result = local_search(instance, start)
        selected = list(result.selected)
        assert instance.is_feasible(selected)
        assert result.objective == instance.objective(selected)
        outside = [r for r in instance.candidates if r not in selected]
        trials = [selected + [road] for road in outside]
        trials += [
            [r for r in selected if r != out] + [road]
            for out in selected
            for road in outside
        ]
        for trial in trials:
            if instance.is_feasible(trial):
                assert instance.objective(trial) <= result.objective + 1e-9, trial
