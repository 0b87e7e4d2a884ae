"""Day-replay study: static model vs nightly hot refresh.

The paper fits RTF from a fixed crawl and serves it unchanged.  A
deployed estimator keeps receiving full days of data, and the
:class:`~repro.core.store.ModelStore` absorbs them with
:meth:`~repro.core.pipeline.CrowdRTSE.refresh` (exponential-forgetting
moment updates, copy-on-write publish).  This experiment replays the
test days in order and answers the same query stream with

* a **static** system frozen at the offline fit, and
* a **refreshed** system that absorbs each day after answering it,

then reports per-day MAPE alongside the store telemetry that the
refactor is supposed to keep economical: the published version, the
cumulative Γ_R rows derived (each day only the rows OCS reads of the one
refreshed slot, never the whole table), and the cumulative GSP structure
compilations the store counted (one per new digest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.gsp import GSPConfig, GSPSchedule
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.core.store import ModelStore
from repro.datasets import truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    fit_system,
    format_rows,
    market_for,
)


@dataclass(frozen=True)
class DailyRefreshRow:
    """One replayed day of the static-vs-refreshed comparison."""

    day: int
    store_version: int
    static_mape: float
    refreshed_mape: float
    #: Cumulative Γ_R source rows derived by the refreshed system.
    corr_derivations: int
    gsp_recompilations: int


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    learning_rate: float = 0.2,
    budget: float = 30.0,
    seed: int = 11,
) -> List[DailyRefreshRow]:
    """Replay every test day, refreshing one system nightly.

    Both systems start from the *same* offline fit and answer the same
    queries against the same markets; the refreshed one additionally
    absorbs each day's full speed field after answering it, so from day
    1 onward its parameters trail the drifting traffic while the static
    one stays frozen at the training crawl.
    """
    data = default_semisyn(scale)
    static = fit_system("semisyn", scale)
    live = CrowdRTSE(data.network, store=ModelStore(static.model))
    local = data.test_history.local_slot(data.slot)

    rows: List[DailyRefreshRow] = []
    for day in range(data.test_history.n_days):
        truth = truth_oracle_for(data.test_history, day, data.slot)
        truths = np.array([truth(q) for q in data.queried])
        mapes = []
        for system in (static, live):
            result = system.answer_query(
                EstimationRequest(
                    queried=data.queried,
                    slot=data.slot,
                    budget=budget,
                    rng=np.random.default_rng(seed + day),
                    warm_start=False,
                ),
                market=market_for(data, seed=seed + day),
                truth=truth,
                # A vectorized schedule reads the store's digest-keyed
                # propagation structure, so recompilations are visible.
                gsp_config=GSPConfig(schedule=GSPSchedule.BFS_PARALLEL),
            )
            mapes.append(
                mean_absolute_percentage_error(result.estimates_kmh, truths)
            )
        derivations = live.store.stats.correlation_row_derivations
        recompilations = live.store.stats.propagation_derivations
        live.refresh(
            {data.slot: data.test_history.day(day)[local]},
            learning_rate=learning_rate,
        )
        rows.append(
            DailyRefreshRow(
                day=day,
                store_version=live.store.version,
                static_mape=mapes[0],
                refreshed_mape=mapes[1],
                corr_derivations=derivations,
                gsp_recompilations=recompilations,
            )
        )
    return rows


def format_table(rows: Sequence[DailyRefreshRow]) -> str:
    """Render the replay with per-day store telemetry."""
    header = [
        "day",
        "version",
        "static MAPE",
        "refreshed MAPE",
        "Γ_R rows derived",
        "GSP recompiled",
    ]
    body = [
        [
            r.day,
            r.store_version,
            f"{r.static_mape:.4f}",
            f"{r.refreshed_mape:.4f}",
            r.corr_derivations,
            r.gsp_recompilations,
        ]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the day-replay comparison."""
    rows = run(ExperimentScale.PAPER)
    print("Static offline fit vs nightly hot refresh (test-day replay)")
    print(format_table(rows))
    static = float(np.mean([r.static_mape for r in rows]))
    refreshed = float(np.mean([r.refreshed_mape for r in rows]))
    print(
        f"mean MAPE: static {static:.4f}, refreshed {refreshed:.4f} "
        f"({(static - refreshed) / max(static, 1e-12) * 100:+.1f}% change)"
    )


if __name__ == "__main__":
    main()
