"""Seed-determined inputs of the three workloads.

Everything here is a pure function of ``(seed, world shape)``: the same
seed gives the same request list and the same feed, so every run of a
workload at one seed asks the program to do the same work.  The program
under test only ever sees what these functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.stream import ProbeMessage, synthesize_day_feed
from repro.traffic.history import SpeedHistory

#: Paper-shaped query (§VII-A): |R^q| = 51, K = 60, θ = 0.92, hybrid OCS.
PAPER_QUERIED = 51
PAPER_BUDGET = 60.0

#: Test days the citywide requests are spread over.
CITYWIDE_DAYS = 5
#: Distinct requests in one citywide pass.
CITYWIDE_REQUESTS = 50

#: Hotspot shape: many users asking about the same roads at the same
#: moment.  Each epoch has one hot slot and 6 hot road sets in it
#: (|R^q| = 12, K = 30), drawn with skewed weights into bursts of 24.
#: ``ServeConfig.max_coalesce`` (16) splits a burst into a batch of 16
#: and one of 8, so a third of every burst waits in the queue behind the
#: first batch, and the median request sits inside the first batch's
#: completions rather than between two batches.  The hot slot moves
#: every HOTSPOT_BURSTS bursts, so one pass averages over HOTSPOT_EPOCHS
#: hot sets instead of hanging on one seed's six.
HOTSPOT_PAIRS = 6
HOTSPOT_QUERIED = 12
HOTSPOT_BUDGET = 30.0
HOTSPOT_BURST = 24
HOTSPOT_BURSTS = 8
HOTSPOT_EPOCHS = 10
HOTSPOT_WEIGHTS = (0.30, 0.22, 0.16, 0.13, 0.11, 0.08)

#: Refresh shape: consecutive replay days at feed coverage 0.5; one
#: paper-shaped read per publish.
REFRESH_DAYS = 5
REFRESH_COVERAGE = 0.5

# Distinct streams per workload, so one seed never couples two workloads.
_STREAM = {"citywide": 1, "hotspot": 2, "refresh": 3}


@dataclass(frozen=True)
class QuerySpec:
    """One request as data: the benchmark turns it into an
    ``EstimationRequest`` with a market seeded from ``market_seed``."""

    queried: Tuple[int, ...]
    slot: int
    day: int
    budget: float
    market_seed: int


@dataclass(frozen=True)
class HotspotPlan:
    """Every epoch's hot pairs and, per burst, which pair each request
    asks for."""

    pairs: Tuple[QuerySpec, ...]
    bursts: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class RefreshPlan:
    """Replay days, the feed seed of each, and the read for every
    ``(day, slot)`` a publish can refresh."""

    days: Tuple[int, ...]
    feed_seeds: Tuple[int, ...]
    reads: Dict[Tuple[int, int], QuerySpec]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[workload]])


def _roads(rng: np.random.Generator, n_roads: int, k: int) -> Tuple[int, ...]:
    return tuple(sorted(int(r) for r in rng.choice(n_roads, size=k, replace=False)))


def _market_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def citywide_specs(
    seed: int, slots: Sequence[int], n_roads: int, n_days: int
) -> List[QuerySpec]:
    """Distinct paper-shaped requests spread evenly over every slot and
    the first :data:`CITYWIDE_DAYS` test days."""
    rng = _rng(seed, "citywide")
    days = min(CITYWIDE_DAYS, n_days)
    slot_order = [int(s) for s in rng.permutation(np.asarray(slots))]
    return [
        QuerySpec(
            queried=_roads(rng, n_roads, PAPER_QUERIED),
            slot=slot_order[i % len(slot_order)],
            day=i % days,
            budget=PAPER_BUDGET,
            market_seed=_market_seed(rng),
        )
        for i in range(CITYWIDE_REQUESTS)
    ]


def hotspot_plan(
    seed: int, slots: Sequence[int], n_roads: int, n_days: int
) -> HotspotPlan:
    """Per epoch, six hot road sets in one hot slot and the bursts that
    ask for them; burst entries index :attr:`HotspotPlan.pairs`."""
    rng = _rng(seed, "hotspot")
    weights = np.asarray(HOTSPOT_WEIGHTS) / np.sum(HOTSPOT_WEIGHTS)
    hot_slots = rng.choice(np.asarray(slots), HOTSPOT_EPOCHS, replace=False)
    pairs: List[QuerySpec] = []
    bursts: List[Tuple[int, ...]] = []
    for slot in hot_slots:
        day = int(rng.integers(0, n_days))
        first = len(pairs)
        pairs.extend(
            QuerySpec(
                queried=_roads(rng, n_roads, HOTSPOT_QUERIED),
                slot=int(slot),
                day=day,
                budget=HOTSPOT_BUDGET,
                market_seed=_market_seed(rng),
            )
            for _ in range(HOTSPOT_PAIRS)
        )
        picks = rng.choice(HOTSPOT_PAIRS, size=(HOTSPOT_BURSTS, HOTSPOT_BURST), p=weights)
        bursts.extend(tuple(first + int(k) for k in row) for row in picks)
    return HotspotPlan(pairs=tuple(pairs), bursts=tuple(bursts))


def refresh_plan(
    seed: int, slots: Sequence[int], n_roads: int, n_days: int
) -> RefreshPlan:
    """:data:`REFRESH_DAYS` consecutive test days and one read spec per
    ``(day, slot)``."""
    rng = _rng(seed, "refresh")
    n = min(REFRESH_DAYS, n_days)
    first = int(rng.integers(0, n_days - n + 1))
    days = tuple(range(first, first + n))
    feed_seeds = tuple(_market_seed(rng) for _ in days)
    reads = {
        (day, int(slot)): QuerySpec(
            queried=_roads(rng, n_roads, PAPER_QUERIED),
            slot=int(slot),
            day=day,
            budget=PAPER_BUDGET,
            market_seed=_market_seed(rng),
        )
        for day in days
        for slot in slots
    }
    return RefreshPlan(days=days, feed_seeds=feed_seeds, reads=reads)


def day_feeds(history: SpeedHistory, plan: RefreshPlan) -> List[List[ProbeMessage]]:
    """The feed snapshots of every replay day, in arrival order."""
    return [
        synthesize_day_feed(history, day, coverage=REFRESH_COVERAGE, seed=feed_seed)
        for day, feed_seed in zip(plan.days, plan.feed_seeds)
    ]
