"""Worker-noise sensitivity: when does crowdsourcing stop paying?

Sweeps the workers' measurement noise and tracks GSP's quality against
the (noise-independent) periodic baseline.  At low noise the crowd
probes are gold; past some noise level the propagated errors outweigh
the realtime information and Per catches up — the economic boundary of
the paper's whole premise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.request import EstimationRequest
from repro.crowd.market import CrowdMarket
from repro.crowd.workers import WorkerPool
from repro.datasets import truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    fit_system,
    format_rows,
)

#: Relative worker noise levels swept (fraction of the true speed).
DEFAULT_NOISE_LEVELS = (0.02, 0.05, 0.1, 0.2, 0.4)


@dataclass(frozen=True)
class NoiseRow:
    """Quality at one worker-noise level."""

    noise: float
    gsp_mape: float
    per_mape: float
    probe_mape: float


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    noise_levels: Sequence[float] = DEFAULT_NOISE_LEVELS,
    n_trials: int = 3,
    budget: int = 0,
) -> List[NoiseRow]:
    """Sweep worker noise at a fixed budget.

    Args:
        scale: Experiment sizing.
        noise_levels: Relative noise std levels to test.
        n_trials: Test days per level.
        budget: Budget K; 0 means the dataset's smallest.
    """
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    params = system.model.slot(data.slot)
    use_budget = budget if budget > 0 else min(data.budgets)
    rows: List[NoiseRow] = []
    for noise in noise_levels:
        pool = WorkerPool.cover_all_roads(
            data.network,
            workers_per_road=10,
            noise_std_fraction=noise,
            seed=808,
        )
        gsp_errors: List[float] = []
        per_errors: List[float] = []
        probe_errors: List[float] = []
        for day in range(n_trials):
            day_idx = day % data.test_history.n_days
            market = CrowdMarket(
                data.network, pool, data.cost_model,
                rng=np.random.default_rng(500 + day),
            )
            truth = truth_oracle_for(data.test_history, day_idx, data.slot)
            result = system.answer_query(
                EstimationRequest(
                    queried=data.queried,
                    slot=data.slot,
                    budget=use_budget,
                ),
                market=market,
                truth=truth,
            )
            truths = np.array([truth(q) for q in data.queried])
            gsp_errors.append(
                mean_absolute_percentage_error(result.estimates_kmh, truths)
            )
            per_errors.append(
                mean_absolute_percentage_error(
                    params.mu[list(data.queried)], truths
                )
            )
            probe_errors.extend(
                abs(r.aggregated_kmh - r.true_kmh) / r.true_kmh
                for r in result.receipts
            )
        rows.append(
            NoiseRow(
                noise=float(noise),
                gsp_mape=float(np.mean(gsp_errors)),
                per_mape=float(np.mean(per_errors)),
                probe_mape=float(np.mean(probe_errors)),
            )
        )
    return rows


def format_table(rows: Sequence[NoiseRow]) -> str:
    """Render the sweep."""
    header = ["worker noise", "probe MAPE", "GSP MAPE", "Per MAPE", "crowd helps"]
    body = [
        [
            f"{r.noise:.2f}",
            f"{r.probe_mape:.4f}",
            f"{r.gsp_mape:.4f}",
            f"{r.per_mape:.4f}",
            "yes" if r.gsp_mape < r.per_mape else "no",
        ]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the noise-sensitivity sweep."""
    print("Worker-noise sensitivity (smallest budget)")
    print(format_table(run(ExperimentScale.PAPER)))


if __name__ == "__main__":
    main()
