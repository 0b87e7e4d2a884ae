"""Worker mobility: a time-varying worker distribution.

The paper stresses that crowdsourced data "is usually collected from
unfixed locations (because the workers' distribution is time variant)"
(§II-A) — the very property that breaks fixed-observation-site
regression.  :class:`MobilityModel` makes that concrete: between
consecutive time slots each worker either stays on her road or moves to
an adjacent one, so ``R^w`` changes slot by slot and the OCS candidate
set must be re-derived per query.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import CrowdError
from repro.crowd.workers import Worker, WorkerPool
from repro.network.graph import TrafficNetwork


class MobilityModel:
    """Random-walk worker mobility over the road graph.

    Each step, every worker independently moves to a uniformly chosen
    adjacent road with probability ``move_probability`` (staying put
    otherwise, or when her road is isolated).

    Args:
        network: Road graph the workers move on.
        move_probability: Chance a worker changes road per step.
        seed: RNG seed; the walk is deterministic given it.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        move_probability: float = 0.3,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= move_probability <= 1.0:
            raise CrowdError(
                f"move_probability must be in [0, 1], got {move_probability}"
            )
        self._network = network
        self._move_probability = move_probability
        self._rng = np.random.default_rng(seed)

    @property
    def move_probability(self) -> float:
        """Per-step probability a worker changes road."""
        return self._move_probability

    def step(self, pool: WorkerPool) -> WorkerPool:
        """Advance the worker distribution by one time slot.

        Returns a new :class:`WorkerPool`; the input pool is untouched.
        """
        moved: List[Worker] = []
        for worker in pool.workers:
            road = worker.road_index
            neighbors = self._network.neighbors(road)
            if neighbors and self._rng.random() < self._move_probability:
                road = int(neighbors[int(self._rng.integers(len(neighbors)))])
            moved.append(replace(worker, road_index=road))
        return WorkerPool(self._network, moved)

    def walk(self, pool: WorkerPool, n_steps: int) -> List[WorkerPool]:
        """Pools after each of ``n_steps`` consecutive steps.

        Args:
            pool: Starting distribution.
            n_steps: Number of slots to simulate (>= 1).

        Returns:
            List of ``n_steps`` pools (not including the start).
        """
        if n_steps < 1:
            raise CrowdError(f"n_steps must be >= 1, got {n_steps}")
        pools: List[WorkerPool] = []
        current = pool
        for _ in range(n_steps):
            current = self.step(current)
            pools.append(current)
        return pools

    def coverage_series(
        self, pool: WorkerPool, n_steps: int
    ) -> List[Tuple[int, int]]:
        """Per-step ``(n_roads_with_workers, n_workers)`` statistics.

        Useful to verify that mobility churns ``R^w`` without losing
        workers.
        """
        series: List[Tuple[int, int]] = []
        for stepped in self.walk(pool, n_steps):
            series.append((len(stepped.roads_with_workers()), stepped.n_workers))
        return series
