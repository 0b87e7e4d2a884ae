"""The crowdsourcing marketplace simulator.

:class:`CrowdMarket` closes the loop between OCS and GSP: given the
selected crowdsourced roads it dispatches tasks to the workers on those
roads, collects noisy answers against the ground-truth speed field, pays
one unit per answer (tracked in a :class:`BudgetLedger`), and returns
the aggregated probe values ``V̂_{R^c}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BudgetError, CrowdError
from repro.crowd.aggregation import Aggregator, aggregate_answers
from repro.crowd.cost import CostModel
from repro.crowd.workers import WorkerPool
from repro.network.graph import TrafficNetwork
from repro.obs import get_metrics, get_tracer

#: A ground-truth oracle: road index -> current true speed (km/h).
TruthOracle = Callable[[int], float]


@dataclass(frozen=True)
class ProbeReceipt:
    """Record of one crowdsourced probe of one road.

    Attributes:
        road_index: Probed road.
        answers: Raw worker answers collected.
        aggregated_kmh: The integrated probe value.
        paid: Units of payment spent (= number of answers).
        true_kmh: Ground truth at probe time (kept for evaluation).
    """

    road_index: int
    answers: Tuple[float, ...]
    aggregated_kmh: float
    paid: int
    true_kmh: float


class BudgetLedger:
    """Tracks crowdsourcing payments against a budget ``K``."""

    def __init__(self, budget: float) -> None:
        if not budget > 0:  # NaN fails too
            raise BudgetError(f"budget must be positive, got {budget}")
        self._budget = float(budget)
        self._entries: List[Tuple[int, int]] = []

    @property
    def budget(self) -> float:
        """The total budget K."""
        return self._budget

    @property
    def spent(self) -> int:
        """Units paid so far."""
        return sum(amount for _, amount in self._entries)

    @property
    def remaining(self) -> float:
        """Budget left."""
        return self._budget - self.spent

    @property
    def entries(self) -> Tuple[Tuple[int, int], ...]:
        """Payment entries as ``(road_index, amount)`` tuples."""
        return tuple(self._entries)

    def charge(self, road_index: int, amount: int) -> None:
        """Record a payment.

        Raises:
            BudgetError: When the charge would exceed the budget.
        """
        if amount <= 0:
            raise BudgetError(f"charge amount must be positive, got {amount}")
        if self.spent + amount > self._budget + 1e-9:
            raise BudgetError(
                f"charging {amount} for road {road_index} exceeds budget "
                f"{self._budget} (already spent {self.spent})"
            )
        self._entries.append((road_index, amount))


class CrowdMarket:
    """Dispatches probe tasks and aggregates worker answers.

    Args:
        network: Road graph.
        pool: Available workers.
        cost_model: Answers required per road.
        aggregator: Rule combining multiple answers.
        rng: RNG for measurement noise (or a seed via
            ``numpy.random.default_rng``).
    """

    def __init__(
        self,
        network: TrafficNetwork,
        pool: WorkerPool,
        cost_model: CostModel,
        aggregator: Aggregator = Aggregator.MEAN,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._network = network
        self._pool = pool
        self._cost_model = cost_model
        self._aggregator = aggregator
        # Deliberate: callers wanting reproducible markets pass `rng`.
        self._rng = rng or np.random.default_rng()  # repro: noqa[RA006]

    @property
    def pool(self) -> WorkerPool:
        """The worker pool."""
        return self._pool

    @property
    def cost_model(self) -> CostModel:
        """The per-road cost model."""
        return self._cost_model

    def candidate_roads(self) -> Tuple[int, ...]:
        """``R^w`` — roads that can currently be crowdsourced."""
        return self._pool.roads_with_workers()

    def probe(
        self,
        roads: Sequence[int],
        truth: TruthOracle,
        ledger: Optional[BudgetLedger] = None,
    ) -> Tuple[Dict[int, float], List[ProbeReceipt]]:
        """Collect crowdsourced speeds for the selected roads.

        For each road, ``cost`` answers are collected from the workers
        stationed there (workers answer repeatedly when fewer workers
        than answers are available, modelling repeated measurements) and
        aggregated.

        Args:
            roads: The crowdsourced roads ``R^c``.
            truth: Ground-truth oracle providing the current speed.
            ledger: Optional budget ledger; every answer is charged.

        Returns:
            ``(probes, receipts)`` where ``probes`` maps road index to
            the aggregated speed.

        Raises:
            NoWorkersError: If a road has no workers.
            BudgetError: If the ledger cannot cover the answers.
        """
        tracer = get_tracer()
        trace_roads = tracer.enabled
        probes: Dict[int, float] = {}
        receipts: List[ProbeReceipt] = []
        with tracer.span("crowd.execute", roads=len(roads)) as span:
            for road in roads:
                road = int(road)
                workers = self._pool.workers_on(road)
                required = self._cost_model.cost_of(road)
                if ledger is not None:
                    ledger.charge(road, required)
                true_speed = float(truth(road))
                if true_speed <= 0:
                    raise CrowdError(
                        f"truth oracle returned {true_speed} for road {road}"
                    )
                answers: List[float] = []
                for k in range(required):
                    worker = workers[k % len(workers)]
                    answers.append(worker.measure(true_speed, self._rng))
                value = aggregate_answers(answers, self._aggregator)
                probes[road] = value
                receipts.append(
                    ProbeReceipt(
                        road_index=road,
                        answers=tuple(answers),
                        aggregated_kmh=value,
                        paid=required,
                        true_kmh=true_speed,
                    )
                )
                if trace_roads:
                    tracer.event(
                        "crowd.probe",
                        road=road,
                        answers=required,
                        aggregated_kmh=value,
                    )
            span.set_attr("cost", sum(r.paid for r in receipts))
        self._record_metrics(receipts, ledger)
        return probes, receipts

    def _record_metrics(
        self, receipts: Sequence[ProbeReceipt], ledger: Optional[BudgetLedger]
    ) -> None:
        metrics = get_metrics()
        if not metrics.enabled or not receipts:
            return
        metrics.counter("crowd.tasks_posted").inc(len(receipts))
        metrics.counter("crowd.answers_collected").inc(
            sum(len(r.answers) for r in receipts)
        )
        metrics.counter("crowd.cost_spent").inc(sum(r.paid for r in receipts))
        if ledger is not None:
            metrics.gauge("crowd.budget_total").set(ledger.budget)
            metrics.gauge("crowd.budget_spent").set(ledger.spent)
            metrics.gauge("crowd.budget_remaining").set(ledger.remaining)
