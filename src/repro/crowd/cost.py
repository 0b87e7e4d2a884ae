"""Per-road crowdsourcing costs.

The paper defines a road's *cost* as the minimum number of answers that
must be collected (and paid, one unit each) to get a reliable aggregate
(§V-A "Feasibility").  Table II generates costs uniformly at random —
C2 = U{1..5} and C1 = U{1..10} — which we reproduce, plus a road-kind
based model reflecting the paper's observation that highway answers are
stable and therefore cheap.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetError
from repro.network.graph import RoadKind, TrafficNetwork


class CostModel:
    """Integer answer-count cost per road.

    Args:
        network: Road graph.
        costs: Cost per road, index-aligned; strictly positive integers.
    """

    def __init__(self, network: TrafficNetwork, costs: Sequence[int]) -> None:
        arr = np.asarray(costs, dtype=np.int64)
        if arr.shape != (network.n_roads,):
            raise BudgetError(
                f"costs must have shape ({network.n_roads},), got {arr.shape}"
            )
        if np.any(arr <= 0):
            raise BudgetError("all road costs must be positive integers")
        self._network = network
        self._costs = arr

    @property
    def costs(self) -> np.ndarray:
        """Cost per road (read-only view)."""
        view = self._costs.view()
        view.flags.writeable = False
        return view

    def cost_of(self, road_index: int) -> int:
        """Cost of a single road."""
        if not 0 <= road_index < self._network.n_roads:
            raise BudgetError(f"road index {road_index} outside the network")
        return int(self._costs[road_index])

    def costs_of(self, road_indices: Sequence[int]) -> np.ndarray:
        """Costs of several roads, order-preserving."""
        idx = np.asarray(road_indices, dtype=np.int64)
        outside = (idx < 0) | (idx >= self._network.n_roads)
        if outside.any():
            raise BudgetError(f"road index {int(idx[outside][0])} outside the network")
        return self._costs[idx]

    def total(self, road_indices: Sequence[int]) -> int:
        """Total cost of a selection."""
        return int(self.costs_of(road_indices).sum())

    @property
    def cost_range(self) -> Tuple[int, int]:
        """(min, max) cost across all roads."""
        return int(self._costs.min()), int(self._costs.max())


def uniform_random_costs(
    network: TrafficNetwork,
    low: int = 1,
    high: int = 10,
    seed: Optional[int] = None,
) -> CostModel:
    """Costs drawn uniformly from ``{low..high}`` (paper Table II).

    ``low=1, high=10`` is the paper's C1; ``low=1, high=5`` is C2.
    """
    if not 0 < low <= high:
        raise BudgetError(f"need 0 < low <= high, got low={low}, high={high}")
    rng = np.random.default_rng(seed)
    costs = rng.integers(low, high + 1, size=network.n_roads)
    return CostModel(network, costs)


#: Default costs per road kind: stable highways need few answers.
_KIND_COSTS: Dict[RoadKind, Tuple[int, int]] = {
    RoadKind.HIGHWAY: (1, 3),
    RoadKind.ARTERIAL: (2, 6),
    RoadKind.LOCAL: (3, 10),
}


def kind_based_costs(network: TrafficNetwork, seed: Optional[int] = None) -> CostModel:
    """Costs drawn per road kind — highways cheap, local streets dear.

    Models the paper's example that highway speeds are stable so fewer
    answers suffice (§V-A).
    """
    rng = np.random.default_rng(seed)
    costs = []
    for road in network.roads:
        low, high = _KIND_COSTS[road.kind]
        costs.append(int(rng.integers(low, high + 1)))
    return CostModel(network, costs)
