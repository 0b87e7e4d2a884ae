"""Backend leaderboard — every registered estimator on shared probes.

Not a paper table: this is the acceptance harness of the pluggable
estimator-backend layer.  It runs the trial function of the paper's
Fig. 3 (:func:`~repro.experiments.common.run_estimation_trial`) with
every registered backend: one ``rtf_gsp`` query per test day buys the
probes, and every other backend estimates from the *same* probes off
the *same* snapshot, so accuracy and latency differences are
attributable to the estimator alone.

Reported per backend: MAPE and FER over the queried roads (paper
§VII-C) and the mean/max per-estimate latency in milliseconds (for
``rtf_gsp``, the served propagation's runtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.backends.registry import available_backends
from repro.eval.metrics import (
    false_estimation_rate,
    mean_absolute_percentage_error,
)
from repro.experiments.common import (
    ExperimentScale,
    dataset_by_name,
    evaluation_days,
    fit_system,
    format_rows,
    run_estimation_trial,
)


@dataclass(frozen=True)
class LeaderboardRow:
    """One backend's accuracy/latency summary."""

    backend: str
    mape: float
    fer: float
    mean_ms: float
    max_ms: float


def run(
    scale: ExperimentScale = ExperimentScale.PAPER,
    n_trials: int = 3,
) -> List[LeaderboardRow]:
    """Score every registered backend on the semi-synthesized dataset.

    Replays ``n_trials`` test days at the middle budget with Hybrid
    selection; the trials attach every registered backend to the
    memoized system.
    """
    data = dataset_by_name("semisyn", scale)
    system = fit_system("semisyn", scale)
    backends = available_backends()
    budget = float(sorted(data.budgets)[len(data.budgets) // 2])
    trials = [
        run_estimation_trial(data, system, budget, "hybrid", day, backends=backends)
        for day in evaluation_days(data, n_trials)
    ]
    truth_vec = np.concatenate([trial.truths for trial in trials])
    rows: List[LeaderboardRow] = []
    for name in backends:
        estimate_vec = np.concatenate([trial.estimates[name] for trial in trials])
        millis = [trial.seconds[name] * 1e3 for trial in trials]
        rows.append(
            LeaderboardRow(
                backend=name,
                mape=mean_absolute_percentage_error(estimate_vec, truth_vec),
                fer=false_estimation_rate(estimate_vec, truth_vec),
                mean_ms=float(np.mean(millis)),
                max_ms=float(np.max(millis)),
            )
        )
    rows.sort(key=lambda row: row.mape)
    return rows


def format_table(rows: List[LeaderboardRow]) -> str:
    """Render the leaderboard, best MAPE first."""
    header = ["backend", "MAPE", "FER", "mean ms", "max ms"]
    body: List[List[object]] = [
        [
            r.backend,
            f"{r.mape:.4f}",
            f"{r.fer:.4f}",
            f"{r.mean_ms:.2f}",
            f"{r.max_ms:.2f}",
        ]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the backend leaderboard at paper scale."""
    print("Backend leaderboard: shared probes, per-backend estimation")
    print(format_table(run()))


if __name__ == "__main__":
    main()
