"""Backend leaderboard — every registered estimator on shared probes.

Not a paper table: this is the acceptance harness of the pluggable
estimator-backend layer.  One ``rtf_gsp`` query per test day buys the
probes; every attached backend then estimates from the *same* probes
off the *same* snapshot, so accuracy and latency differences are
attributable to the estimator alone (the same controlled setup as the
paper's Fig. 3, extended to the backend registry).

Reported per backend: MAPE and FER over the queried roads (paper
§VII-C) and the mean/max per-estimate latency in milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import repro.backends  # noqa: F401 - registers the built-in backends
from repro.backends.registry import available_backends
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.eval.metrics import (
    false_estimation_rate,
    mean_absolute_percentage_error,
)
from repro.experiments.common import (
    ExperimentScale,
    dataset_by_name,
    evaluation_days,
    format_rows,
    market_for,
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

    Fits a fresh system (the memoized one is shared with other
    experiments and must not grow attached backends), attaches every
    registered backend, and replays ``n_trials`` test days.
    """
    data = dataset_by_name("semisyn", scale)
    system = CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
    backends = available_backends()
    for name in backends:
        if name not in system.store.attached_backends:  # rtf_gsp is built in
            system.attach_backend(name, history=data.train_history)

    budget = float(sorted(data.budgets)[len(data.budgets) // 2])
    queried = np.asarray(data.queried, dtype=int)
    estimates: Dict[str, List[np.ndarray]] = {name: [] for name in backends}
    timings: Dict[str, List[float]] = {name: [] for name in backends}
    truths: List[np.ndarray] = []
    for day in evaluation_days(data, n_trials):
        truth = truth_oracle_for(data.test_history, day, data.slot)
        result = system.answer_query(
            EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=budget,
                theta=data.theta,
                rng=np.random.default_rng(day),
                warm_start=False,
            ),
            market=market_for(data, seed=day),
            truth=truth,
        )
        truths.append(np.array([truth(int(q)) for q in queried]))
        for name in backends:
            start = time.perf_counter()
            estimate = system.estimate_with_backend(
                name, result.probes, data.slot
            )
            timings[name].append((time.perf_counter() - start) * 1e3)
            estimates[name].append(estimate.speeds[queried])

    truth_vec = np.concatenate(truths)
    rows: List[LeaderboardRow] = []
    for name in backends:
        estimate_vec = np.concatenate(estimates[name])
        rows.append(
            LeaderboardRow(
                backend=name,
                mape=mean_absolute_percentage_error(estimate_vec, truth_vec),
                fer=false_estimation_rate(estimate_vec, truth_vec),
                mean_ms=float(np.mean(timings[name])),
                max_ms=float(np.max(timings[name])),
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
