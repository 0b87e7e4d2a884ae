"""Figure 3 — estimation quality of GSP vs LASSO vs GRMC vs Per.

The paper's 3×5 grid: rows are MAPE / FER / DAPE, columns are

* (a) crowdsourced roads selected by Hybrid-Greedy,
* (b) selected by Objective-Greedy,
* (c) selected randomly,
* (d) GSP quality across the three selection strategies,
* (e) GSP quality for θ = 1 vs the fine-tuned θ = 0.92.

Expected shapes: GSP gives the best MAPE/FER in most cases, with the
clearest margin at the smallest budget; quality gains per budget step
shrink as K grows; Hybrid selection beats OBJ and Random; the tuned θ
helps only at small K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.metrics import summarize_errors, ErrorSummary
from repro.experiments.common import (
    ESTIMATOR_LABELS,
    ExperimentScale,
    dataset_by_name,
    evaluation_days,
    fit_system,
    format_rows,
    run_estimation_trial,
)

#: Selection strategies compared in columns (a)-(d).
SELECTORS: Tuple[str, ...] = ("hybrid", "objective", "random")

#: θ settings compared in column (e): Theta(*) = 0.92, Theta(1) = 1.0.
THETAS: Tuple[float, ...] = (0.92, 1.0)


@dataclass(frozen=True)
class Figure3Cell:
    """Quality of one (selector, θ, budget, estimator) configuration."""

    selector: str
    theta: float
    budget: int
    estimator: str
    summary: ErrorSummary


def run(
    scale: ExperimentScale = ExperimentScale.PAPER,
    n_trials: int = 5,
    dataset_name: str = "semisyn",
    selectors: Sequence[str] = SELECTORS,
    thetas: Sequence[float] = (0.92,),
    budgets: Optional[Sequence[int]] = None,
) -> List[Figure3Cell]:
    """Run the quality grid.

    Each (selector, θ, budget) probes once per trial day and feeds the
    same probes to the four backends of
    :data:`~repro.experiments.common.ESTIMATOR_LABELS`; errors are
    pooled over trials.

    Args:
        scale: Experiment sizing.
        n_trials: Test days used as independent trials.
        dataset_name: ``"semisyn"`` (Fig. 3) or ``"gmission"`` (Fig. 6).
        selectors: Selection strategies to include.
        thetas: Redundancy thresholds to include (pass ``THETAS`` for
            column (e)).
        budgets: Budget sweep; defaults to the dataset's.
    """
    data = dataset_by_name(dataset_name, scale)
    system = fit_system(dataset_name, scale)
    budget_sweep = tuple(budgets) if budgets is not None else data.budgets
    cells: List[Figure3Cell] = []
    for theta in thetas:
        for selector in selectors:
            for budget in budget_sweep:
                pooled: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
                for day_idx in evaluation_days(data, n_trials):
                    trial = run_estimation_trial(
                        data,
                        system,
                        budget=budget,
                        selector=selector,
                        day=day_idx,
                        theta=theta,
                        seed=17,
                    )
                    for name, estimates in trial.estimates.items():
                        pooled.setdefault(ESTIMATOR_LABELS[name], []).append(
                            (estimates, trial.truths)
                        )
                for name, pairs in pooled.items():
                    estimates = np.concatenate([p[0] for p in pairs])
                    truths = np.concatenate([p[1] for p in pairs])
                    cells.append(
                        Figure3Cell(
                            selector=selector,
                            theta=theta,
                            budget=int(budget),
                            estimator=name,
                            summary=summarize_errors(estimates, truths),
                        )
                    )
    return cells


def format_table(cells: List[Figure3Cell]) -> str:
    """Render MAPE and FER for every cell."""
    header = ["selector", "theta", "K", "estimator", "MAPE", "FER", "cases"]
    body = [
        [
            c.selector,
            c.theta,
            c.budget,
            c.estimator,
            f"{c.summary.mape:.4f}",
            f"{c.summary.fer:.4f}",
            c.summary.n_cases,
        ]
        for c in cells
    ]
    return format_rows(header, body)


def format_dape(cells: List[Figure3Cell], budget: int) -> str:
    """Render the DAPE row of the figure for one budget."""
    selected = [c for c in cells if c.budget == budget]
    if not selected:
        return "(no cells at that budget)"
    edges = selected[0].summary.dape_edges
    header = ["selector", "estimator"] + [
        f"<{edges[i + 1]:.2f}" for i in range(len(edges) - 1)
    ] + [f">={edges[-1]:.2f}"]
    body = [
        [c.selector, c.estimator] + [f"{frac:.3f}" for frac in c.summary.dape]
        for c in selected
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the Figure 3 grid (columns a–c, d, e)."""
    cells = run(thetas=THETAS)
    print("Figure 3: estimation quality (MAPE / FER)")
    print(format_table(cells))
    smallest = min(c.budget for c in cells)
    print(f"\nFigure 3 (row 3): DAPE at K={smallest}")
    print(format_dape([c for c in cells if c.theta == 0.92], smallest))


if __name__ == "__main__":
    main()
