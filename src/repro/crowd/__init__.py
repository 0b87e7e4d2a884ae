"""Crowdsourcing substrate.

Simulates the marketplace the paper assumes (§III-A): workers announce
their current road, the platform selects crowdsourced roads, workers on
those roads report their measured travel speed, each answer is paid one
unit, and multiple answers per road are aggregated (a road's *cost* is
the minimum number of answers it requires).
"""

from repro.crowd.workers import Worker, WorkerPool
from repro.crowd.cost import CostModel, uniform_random_costs
from repro.crowd.aggregation import Aggregator, aggregate_answers
from repro.crowd.market import BudgetLedger, CrowdMarket, ProbeReceipt
from repro.crowd.mobility import MobilityModel

__all__ = [
    "MobilityModel",
    "Worker",
    "WorkerPool",
    "CostModel",
    "uniform_random_costs",
    "Aggregator",
    "aggregate_answers",
    "BudgetLedger",
    "CrowdMarket",
    "ProbeReceipt",
]
