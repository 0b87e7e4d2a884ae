"""Ablation bench: how much slack does Hybrid-Greedy leave?

Refines Hybrid-Greedy's selections with a swap/add local search on the
QUICK instance and reports the relative objective gap — an empirical
tightness check on Theorem 2's (1 − 1/e)/2 bound at realistic sizes.
Run with ``-s`` to see the per-budget gaps.
"""


from repro.core.ocs import hybrid_greedy
from repro.experiments.ablations import local_search
from repro.experiments.common import ExperimentScale, ocs_instance_for

QUICK = ExperimentScale.QUICK


def test_local_search_refinement(benchmark, semisyn, semisyn_system):
    instance = ocs_instance_for(
        semisyn, semisyn_system, budget=min(semisyn.budgets)
    )
    greedy = hybrid_greedy(instance)
    refined = benchmark.pedantic(
        local_search,
        args=(instance, greedy.selected),
        kwargs={"max_rounds": 30},
        rounds=1,
        iterations=1,
    )
    assert instance.is_feasible(refined.selected)
    assert refined.objective >= greedy.objective - 1e-9
    # The greedy is empirically near-locally-optimal: local search
    # improves it by well under the worst-case bound.
    gap = (refined.objective - greedy.objective) / max(greedy.objective, 1e-9)
    assert gap < 0.2


def test_greedy_gap_across_budgets(benchmark, semisyn, semisyn_system):
    def gaps():
        out = []
        for budget in semisyn.budgets[:3]:
            instance = ocs_instance_for(semisyn, semisyn_system, budget)
            greedy = hybrid_greedy(instance)
            refined = local_search(instance, greedy.selected, max_rounds=20)
            gap = (refined.objective - greedy.objective) / max(
                greedy.objective, 1e-9
            )
            out.append(max(gap, 0.0))
        return out

    values = benchmark.pedantic(gaps, rounds=1, iterations=1)
    print(
        "greedy gap per budget: "
        + ", ".join(
            f"{budget}: {gap!r}" for budget, gap in zip(semisyn.budgets, values)
        )
    )
    assert all(0.0 <= g < 0.2 for g in values)
