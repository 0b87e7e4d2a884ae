"""Figure 4 — running time.

Panel (a): OCS solve time of Ratio/OBJ/Hybrid versus budget K (paper:
linear growth, Hybrid under one second at the largest K).

Panel (b): estimator time of LASSO/GRMC/GSP versus K (paper: LASSO
fastest — a single linear-algebra pass; GRMC slowest — full ALS;
GSP nearly independent of K and always under half a second).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.ocs import hybrid_greedy, objective_greedy, ratio_greedy
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.experiments.common import (
    ESTIMATOR_LABELS,
    ExperimentScale,
    alt_cost_model,
    attach_backends,
    default_semisyn,
    fit_system,
    format_rows,
    market_for,
    ocs_instance_for,
)

_SOLVERS = {
    "Ratio": ratio_greedy,
    "OBJ": objective_greedy,
    "Hybrid": hybrid_greedy,
}


@dataclass(frozen=True)
class RuntimePoint:
    """One (budget, method) timing measurement."""

    panel: str
    budget: int
    method: str
    seconds: float


def run_ocs_runtime(
    scale: ExperimentScale = ExperimentScale.PAPER,
    repeats: int = 3,
) -> List[RuntimePoint]:
    """Panel (a): OCS solver wall-clock versus budget (C1 costs)."""
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    cost_model = alt_cost_model(data, 1, 10)
    points: List[RuntimePoint] = []
    for budget in data.budgets:
        instance = ocs_instance_for(data, system, budget, cost_model=cost_model)
        for name, solver in _SOLVERS.items():
            best = min(
                _timed(lambda s=solver, inst=instance: s(inst))
                for _ in range(repeats)
            )
            points.append(RuntimePoint("a", int(budget), name, best))
    return points


def run_estimator_runtime(
    scale: ExperimentScale = ExperimentScale.PAPER,
    repeats: int = 2,
) -> List[RuntimePoint]:
    """Panel (b): estimator wall-clock versus budget (Hybrid probes).

    Times each backend's per-request estimate on the query's probes.
    """
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    backends = ("lasso", "grmc", "rtf_gsp")
    attach_backends(system, data, backends)
    points: List[RuntimePoint] = []
    for budget in data.budgets:
        market = market_for(data, seed=1)
        truth = truth_oracle_for(data.test_history, 0, data.slot)
        result = system.answer_query(
            EstimationRequest(
                queried=data.queried, slot=data.slot, budget=budget
            ),
            market=market,
            truth=truth,
        )
        for name in backends:
            best = min(
                _timed(
                    lambda n=name, p=result.probes: system.estimate_with_backend(
                        n, p, data.slot
                    )
                )
                for _ in range(repeats)
            )
            points.append(
                RuntimePoint("b", int(budget), ESTIMATOR_LABELS[name], best)
            )
    return points


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def format_table(points: Sequence[RuntimePoint]) -> str:
    """Render the timing series."""
    header = ["panel", "K", "method", "seconds"]
    body = [[p.panel, p.budget, p.method, f"{p.seconds:.4f}"] for p in points]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print both panels of Figure 4."""
    print("Figure 4(a): OCS running time vs budget")
    print(format_table(run_ocs_runtime()))
    print("\nFigure 4(b): estimator running time vs budget")
    print(format_table(run_estimator_runtime()))


if __name__ == "__main__":
    main()
