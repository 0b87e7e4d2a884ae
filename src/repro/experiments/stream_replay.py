"""Day-replay study: static vs nightly vs continuous (streaming) refresh.

:mod:`repro.experiments.daily_refresh` showed that absorbing each test
day *after* serving it beats a frozen model.  This experiment closes the
remaining gap to the paper's realtime framing by comparing three refresh
policies over the same replayed days:

* **static** — frozen at the offline fit;
* **nightly** — absorbs each day's full speed field in one batch at the
  end of the day (the ``repro refresh`` policy);
* **continuous** — consumes the day as a synthesized probe feed through
  :class:`~repro.stream.refresher.StreamRefresher` (overlapping
  snapshots, dedup, watermark closes, bounded publishes) while a
  :class:`~repro.serve.service.QueryService` keeps answering queries
  from pinned snapshots mid-stream.

Accuracy is the per-slot μ-field MAPE against the day's ground truth.
Freshness is *event-time* publish lag: how far behind the stream's own
clock a slot's parameters were published — minutes for the continuous
policy (the lateness horizon plus queueing) versus hours for nightly
(end of day minus slot end).  Throughput (events/sec through the
refresher while serving) is reported per day.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.pipeline import CrowdRTSE
from repro.core.store import ModelSnapshot, ModelStore
from repro.datasets import truth_oracle_for
from repro.errors import ExperimentError
from repro.eval.metrics import mean_absolute_percentage_error
from repro.traffic.history import SpeedHistory
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    format_rows,
    market_for,
)
from repro.serve import EstimationRequest, QueryService, ServeConfig
from repro.stream import (
    StreamConfig,
    StreamRefresher,
    slot_end_ts,
    slot_start_ts,
    synthesize_day_feed,
)


@dataclass(frozen=True)
class StreamReplayRow:
    """One replayed day of the three-policy comparison."""

    day: int
    events: int
    events_per_s: float
    duplicates: int
    late: int
    static_mape: float
    nightly_mape: float
    continuous_mape: float
    continuous_version: int
    publishes: int
    continuous_lag_s: float
    nightly_lag_s: float
    queries_served: int


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    learning_rate: float = 0.3,
    lateness_s: float = 60.0,
    coverage: float = 0.6,
    queries_per_day: int = 2,
    budget: float = 30.0,
    drift_factor: float = 0.8,
    seed: int = 17,
) -> List[StreamReplayRow]:
    """Replay every test day under the three refresh policies.

    All three policies start from the same offline fit.  Each day is
    first *evaluated* (μ-field MAPE per fitted slot, before any of that
    day's data is absorbed), then *absorbed*: nightly as one full-field
    batch, continuous as a probe feed streamed through the refresher
    with concurrent :class:`QueryService` clients.

    Between the training crawl and the replayed period the world shifts
    regime: every replayed speed is scaled by ``drift_factor`` (the
    roadworks/seasonal-drift scenario online updating exists for, per
    :mod:`repro.core.online_update`).  A frozen model is permanently
    biased; the refresh policies converge to the new regime at a rate
    set by ``learning_rate``.  ``drift_factor=1.0`` disables the shift —
    the world is then stationary and staying frozen is near-optimal.
    """
    data = default_semisyn(scale)
    n_fitted = 3 if scale is ExperimentScale.QUICK else 6
    all_slots = list(data.train_history.global_slots)
    anchor = all_slots.index(data.slot)
    anchor = min(anchor, len(all_slots) - n_fitted)
    slots = all_slots[anchor:anchor + n_fitted]

    if not 0.0 < drift_factor <= 2.0:
        raise ExperimentError(
            f"drift_factor must be in (0, 2], got {drift_factor}"
        )
    replay_history = SpeedHistory(
        data.test_history.values * drift_factor,
        data.test_history.road_ids,
        data.test_history.slot_offset,
    )

    static = CrowdRTSE.fit(data.network, data.train_history, slots=slots)
    nightly = CrowdRTSE(data.network, store=ModelStore(static.model))
    continuous = CrowdRTSE(data.network, store=ModelStore(static.model))
    local: Dict[int, int] = {t: replay_history.local_slot(t) for t in slots}

    rows: List[StreamReplayRow] = []
    for day in range(replay_history.n_days):
        truth_day = replay_history.day(day)
        mapes = [
            _field_mape(system.store.current(), slots, local, truth_day)
            for system in (static, nightly, continuous)
        ]

        feed = synthesize_day_feed(
            replay_history,
            day,
            slots=slots,
            coverage=coverage,
            seed=seed + day,
        )
        events = sum(len(snapshot) for snapshot in feed)
        refresher = StreamRefresher(
            continuous,
            StreamConfig(lateness_s=lateness_s, learning_rate=learning_rate),
        )
        tickets = []
        served = 0
        with QueryService(
            continuous,
            market=market_for(data, seed=seed + day),
            truth=truth_oracle_for(replay_history, day, data.slot),
            config=ServeConfig(num_workers=2),
        ) as service:
            started = time.perf_counter()
            for index, snapshot in enumerate(feed):
                if queries_per_day and index % max(
                    1, len(feed) // max(1, queries_per_day)
                ) == 0 and len(tickets) < queries_per_day:
                    tickets.append(
                        service.submit(
                            EstimationRequest(
                                queried=tuple(data.queried),
                                slot=data.slot,
                                budget=budget,
                                rng=np.random.default_rng(seed + day),
                                warm_start=False,
                            )
                        )
                    )
                refresher.ingest(snapshot)
            stats = refresher.close()
            elapsed = time.perf_counter() - started
            for ticket in tickets:
                result = ticket.result(timeout=30.0)
                if np.all(np.isfinite(result.estimates_kmh)):
                    served += 1
        nightly.refresh(
            {t: truth_day[local[t]] for t in slots}, learning_rate=learning_rate
        )
        continuous_lag = (
            float(np.mean(stats.lag_history)) if stats.lag_history else 0.0
        )
        nightly_lag = float(
            np.mean(
                [slot_start_ts(day + 1, 0) - slot_end_ts(day, t) for t in slots]
            )
        )
        rows.append(
            StreamReplayRow(
                day=day,
                events=events,
                events_per_s=events / max(elapsed, 1e-9),
                duplicates=refresher.log.duplicates,
                late=refresher.log.late,
                static_mape=mapes[0],
                nightly_mape=mapes[1],
                continuous_mape=mapes[2],
                continuous_version=continuous.store.version,
                publishes=stats.publishes,
                continuous_lag_s=continuous_lag,
                nightly_lag_s=nightly_lag,
                queries_served=served,
            )
        )
    return rows


def _field_mape(
    snapshot: ModelSnapshot,
    slots: Sequence[int],
    local: Dict[int, int],
    truth_day: np.ndarray,
) -> float:
    """Mean μ-field MAPE of one snapshot over the fitted slots."""
    return float(
        np.mean(
            [
                mean_absolute_percentage_error(
                    snapshot.slot(t).mu, truth_day[local[t]]
                )
                for t in slots
            ]
        )
    )


def format_table(rows: Sequence[StreamReplayRow]) -> str:
    """Render the replay: accuracy, freshness, and stream telemetry."""
    header = [
        "day",
        "events",
        "ev/s",
        "dup",
        "late",
        "static MAPE",
        "nightly MAPE",
        "continuous MAPE",
        "version",
        "publishes",
        "cont lag (s)",
        "nightly lag (s)",
        "served",
    ]
    body = [
        [
            r.day,
            r.events,
            f"{r.events_per_s:.0f}",
            r.duplicates,
            r.late,
            f"{r.static_mape:.4f}",
            f"{r.nightly_mape:.4f}",
            f"{r.continuous_mape:.4f}",
            r.continuous_version,
            r.publishes,
            f"{r.continuous_lag_s:.0f}",
            f"{r.nightly_lag_s:.0f}",
            r.queries_served,
        ]
        for r in rows
    ]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print the three-policy day replay."""
    rows = run(ExperimentScale.PAPER)
    print("Static vs nightly vs continuous refresh (test-day replay)")
    print(format_table(rows))
    # Day 0 is evaluated before any policy has absorbed data, so the
    # refresh policies only separate from day 1 onward.
    tail = [r for r in rows if r.day > 0] or rows
    static = float(np.mean([r.static_mape for r in tail]))
    nightly = float(np.mean([r.nightly_mape for r in tail]))
    continuous = float(np.mean([r.continuous_mape for r in tail]))
    lag_c = float(np.mean([r.continuous_lag_s for r in tail]))
    lag_n = float(np.mean([r.nightly_lag_s for r in tail]))
    throughput = float(np.mean([r.events_per_s for r in rows]))
    print(
        f"mean MAPE (day>0): static {static:.4f}, nightly {nightly:.4f}, "
        f"continuous {continuous:.4f} "
        f"(continuous vs static {(static - continuous) / max(static, 1e-12) * 100:+.1f}%)"
    )
    print(
        f"freshness: continuous publishes {lag_c:.0f}s behind the stream, "
        f"nightly {lag_n:.0f}s; throughput {throughput:.0f} events/s "
        "with concurrent serving"
    )


if __name__ == "__main__":
    main()
