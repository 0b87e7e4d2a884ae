"""Budget-allocation study: need-based vs uniform cross-slot budgets.

Extension of the paper (DESIGN.md S30): a service monitoring several
slots with one daily budget can either split it evenly or follow the RTF
σ-need (:func:`repro.core.allocation.allocate_budget`).  This study
replays a monitored window both ways and compares the pooled MAPE.
Expected shape: need-based allocation wins when slots differ in
volatility, and ties otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.allocation import allocate_budget
from repro.core.inference import fit_rtf
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    format_rows,
    market_for,
)


@dataclass(frozen=True)
class AllocationRow:
    """Result of one allocation policy."""

    policy: str
    mape: float
    budgets: Dict[int, int]
    total_budget: int


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    n_slots: int = 4,
    total_budget: int = 80,
    n_trials: int = 3,
) -> List[AllocationRow]:
    """Compare uniform vs σ-need budget allocation over several slots.

    Args:
        scale: Experiment sizing.
        n_slots: Monitored slots (taken from the dataset window).
        total_budget: Daily budget to split.
        n_trials: Test days replayed.
    """
    data = default_semisyn(scale)
    window = list(data.train_history.global_slots)
    stride = max(1, len(window) // n_slots)
    slots = window[::stride][:n_slots]

    model, _ = fit_rtf(data.network, data.train_history, slots=slots)
    system = CrowdRTSE(data.network, model)

    per_slot = total_budget // len(slots)
    uniform = {slot: per_slot for slot in slots}
    # Keep totals identical (drop any remainder from both policies).
    need_based = allocate_budget(
        model, data.queried, slots, total_budget=per_slot * len(slots), floor=1
    )

    rows: List[AllocationRow] = []
    for policy, budgets in (("uniform", uniform), ("need-based", need_based)):
        estimates_all: List[np.ndarray] = []
        truths_all: List[np.ndarray] = []
        for day in range(n_trials):
            day_idx = day % data.test_history.n_days
            for slot in slots:
                market = market_for(data, seed=1000 * day + slot)
                truth = truth_oracle_for(data.test_history, day_idx, slot)
                result = system.answer_query(
                    EstimationRequest(
                        queried=data.queried,
                        slot=slot,
                        budget=budgets[slot],
                    ),
                    market=market,
                    truth=truth,
                )
                estimates_all.append(result.estimates_kmh)
                truths_all.append(
                    np.array([truth(q) for q in data.queried])
                )
        mape = mean_absolute_percentage_error(
            np.concatenate(estimates_all), np.concatenate(truths_all)
        )
        rows.append(
            AllocationRow(
                policy=policy,
                mape=mape,
                budgets=dict(budgets),
                total_budget=sum(budgets.values()),
            )
        )
    return rows


def format_table(rows: Sequence[AllocationRow]) -> str:
    """Render the comparison."""
    header = ["policy", "MAPE", "total K", "per-slot budgets"]
    body = [
        [
            r.policy,
            f"{r.mape:.4f}",
            r.total_budget,
            " ".join(f"{slot}:{k}" for slot, k in sorted(r.budgets.items())),
        ]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the allocation comparison."""
    print("Cross-slot budget allocation: uniform vs sigma-need")
    print(format_table(run(ExperimentScale.PAPER, total_budget=150)))


if __name__ == "__main__":
    main()
