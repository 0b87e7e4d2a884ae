"""Query-pattern sensitivity experiment (extension, not in the paper).

How does CrowdRTSE's advantage over the periodic baseline depend on the
*shape* of the query — uniform scatter, hotspot, corridor?  Intuition:
concentrated queries are easier to cover with few probes (correlation
does more work), scattered queries lean on periodicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.request import EstimationRequest
from repro.datasets import truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    fit_system,
    format_rows,
    market_for,
)
from repro.experiments.workloads import QueryPattern, query_stream


@dataclass(frozen=True)
class PatternRow:
    """Quality per query pattern."""

    pattern: str
    gsp_mape: float
    per_mape: float
    advantage: float
    n_queries: int


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    query_size: int = 20,
    budget: int = 0,
    n_queries: int = 4,
    seed: int = 5,
) -> List[PatternRow]:
    """Replay a query stream per pattern and compare GSP to Per.

    Args:
        scale: Experiment sizing.
        query_size: Roads per query.
        budget: Budget K; 0 means the dataset's smallest budget.
        n_queries: Queries replayed per pattern (one per test day).
        seed: Workload seed.
    """
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    use_budget = budget if budget > 0 else min(data.budgets)
    params = system.model.slot(data.slot)
    rows: List[PatternRow] = []
    for pattern in QueryPattern:
        queries = query_stream(
            data.network, pattern, query_size, n_queries, seed=seed
        )
        gsp_errors: List[float] = []
        per_errors: List[float] = []
        for k, queried in enumerate(queries):
            day = k % data.test_history.n_days
            market = market_for(data, seed=seed + k)
            truth = truth_oracle_for(data.test_history, day, data.slot)
            result = system.answer_query(
                EstimationRequest(
                    queried=queried, slot=data.slot, budget=use_budget
                ),
                market=market,
                truth=truth,
            )
            truths = np.array([truth(q) for q in queried])
            gsp_errors.append(
                mean_absolute_percentage_error(result.estimates_kmh, truths)
            )
            per_errors.append(
                mean_absolute_percentage_error(params.mu[list(queried)], truths)
            )
        gsp = float(np.mean(gsp_errors))
        per = float(np.mean(per_errors))
        rows.append(
            PatternRow(
                pattern=pattern.value,
                gsp_mape=gsp,
                per_mape=per,
                advantage=per - gsp,
                n_queries=n_queries,
            )
        )
    return rows


def format_table(rows: Sequence[PatternRow]) -> str:
    """Render the sensitivity table."""
    header = ["pattern", "GSP MAPE", "Per MAPE", "advantage", "queries"]
    body = [
        [r.pattern, f"{r.gsp_mape:.4f}", f"{r.per_mape:.4f}", f"{r.advantage:+.4f}", r.n_queries]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the query-pattern sensitivity table."""
    print("Query-pattern sensitivity (GSP vs Per, smallest budget)")
    print(format_table(run(ExperimentScale.PAPER)))


if __name__ == "__main__":
    main()
