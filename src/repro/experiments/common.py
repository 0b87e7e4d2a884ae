"""Shared plumbing of the experiment harness.

Datasets and fitted systems are memoized per scale so the per-figure
modules (and the benchmark suite, which calls several of them) don't
rebuild the 607-road world repeatedly.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends.registry import DEFAULT_BACKEND
from repro.errors import ExperimentError
from repro.core.ocs import OCSInstance
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.crowd.cost import CostModel, uniform_random_costs
from repro.crowd.market import CrowdMarket
from repro.datasets import (
    Dataset,
    GMissionConfig,
    SemiSynConfig,
    build_gmission,
    build_semisyn,
    truth_oracle_for,
)


class ExperimentScale(str, enum.Enum):
    """Experiment sizing.

    * ``PAPER`` — Table II sizes (607 roads, full budget sweeps).
    * ``QUICK`` — a scaled-down world with the same structure, small
      enough for CI and the benchmark suite.
    """

    PAPER = "paper"
    QUICK = "quick"


def _semisyn_config(scale: ExperimentScale) -> SemiSynConfig:
    if scale is ExperimentScale.PAPER:
        return SemiSynConfig()
    return SemiSynConfig(
        n_roads=150,
        n_queried=25,
        n_train_days=20,
        n_test_days=8,
        n_slots=12,
        budgets=(15, 30, 45, 60, 75),
    )


def _gmission_config(scale: ExperimentScale) -> GMissionConfig:
    if scale is ExperimentScale.PAPER:
        return GMissionConfig()
    return GMissionConfig(
        n_component_roads=40,
        n_worker_roads=24,
        n_train_days=16,
        n_test_days=6,
        n_slots=12,
        source_network_roads=120,
        budgets=(10, 20, 30, 40, 50),
    )


@lru_cache(maxsize=4)
def default_semisyn(scale: ExperimentScale = ExperimentScale.PAPER) -> Dataset:
    """The memoized semi-synthesized dataset for a scale."""
    return build_semisyn(_semisyn_config(scale))


@lru_cache(maxsize=4)
def default_gmission(scale: ExperimentScale = ExperimentScale.PAPER) -> Dataset:
    """The memoized gMission-like dataset for a scale."""
    return build_gmission(_gmission_config(scale))


@lru_cache(maxsize=8)
def fit_system(
    dataset_name: str,
    scale: ExperimentScale = ExperimentScale.PAPER,
) -> CrowdRTSE:
    """Memoized offline stage (RTF fit + Γ_R) for a default dataset.

    Args:
        dataset_name: ``"semisyn"`` or ``"gmission"``.
        scale: Experiment sizing.
    """
    data = dataset_by_name(dataset_name, scale)
    return CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])


def dataset_by_name(name: str, scale: ExperimentScale) -> Dataset:
    """Resolve a default dataset by name."""
    if name == "semisyn":
        return default_semisyn(scale)
    if name == "gmission":
        return default_gmission(scale)
    raise ExperimentError(f"unknown dataset {name!r}")


#: Table label of each backend the paper's Fig. 3, 4(b) and 6 compare,
#: in the figures' row order.
ESTIMATOR_LABELS: Dict[str, str] = {
    "rtf_gsp": "GSP",
    "lasso": "LASSO",
    "grmc": "GRMC",
    "per": "Per",
}


def attach_backends(
    system: CrowdRTSE, data: Dataset, names: Sequence[str]
) -> None:
    """Fit every named backend the system does not serve yet and attach it.

    Backends fit on the dataset's training history, over the system's
    fitted slots; the built-in ``rtf_gsp`` needs no attach.
    """
    for name in names:
        if name not in system.store.attached_backends:
            system.attach_backend(name, history=data.train_history)


def ocs_instance_for(
    data: Dataset,
    system: CrowdRTSE,
    budget: float,
    theta: Optional[float] = None,
    cost_model: Optional[CostModel] = None,
) -> OCSInstance:
    """Assemble an OCS instance directly from a dataset bundle.

    Unlike :meth:`CrowdRTSE.build_ocs_instance` this lets experiments
    swap in alternative cost models (Fig. 2 compares cost ranges C1/C2).
    """
    costs = (cost_model or data.cost_model).costs_of(data.worker_roads).astype(float)
    snapshot = system.store.current()
    return OCSInstance(
        queried=data.queried,
        candidates=data.worker_roads,
        costs=costs,
        budget=float(budget),
        theta=theta if theta is not None else data.theta,
        corr=snapshot.correlation_matrix(data.slot),
        sigma=snapshot.slot(data.slot).sigma,
    )


def market_for(data: Dataset, seed: int = 0) -> CrowdMarket:
    """A reproducible crowd market over a dataset's pool."""
    return CrowdMarket(
        data.network,
        data.pool,
        data.cost_model,
        rng=np.random.default_rng(seed),
    )


def evaluation_days(data: Dataset, n_trials: int) -> List[int]:
    """Deterministic test-day indices used as independent trials."""
    if n_trials <= 0:
        raise ExperimentError(f"n_trials must be positive, got {n_trials}")
    n_days = data.test_history.n_days
    return [day % n_days for day in range(n_trials)]


@dataclass(frozen=True)
class TrialOutcome:
    """One estimation trial scored over the queried roads ``R^q``.

    Attributes:
        truths: True speed of each queried road.
        estimates: Backend name → its estimate of each queried road.
        seconds: Backend name → wall-clock time of its estimate.
    """

    truths: np.ndarray
    estimates: Dict[str, np.ndarray]
    seconds: Dict[str, float]


def run_estimation_trial(
    data: Dataset,
    system: CrowdRTSE,
    budget: float,
    selector: str,
    day: int,
    theta: Optional[float] = None,
    backends: Sequence[str] = tuple(ESTIMATOR_LABELS),
    seed: int = 0,
) -> TrialOutcome:
    """One (budget, selector, day) trial: probe once, estimate with all.

    Every backend consumes the *same* probes from the same snapshot, so
    differences are attributable to the estimation method alone (the
    paper's setup).  The query itself is answered by ``rtf_gsp``; that
    backend's column is the served field, and every other backend
    estimates from the query's probes through
    :meth:`CrowdRTSE.estimate_with_backend`, after
    :func:`attach_backends` has attached it to ``system``.
    """
    attach_backends(system, data, backends)
    market = market_for(data, seed=seed + day)
    truth = truth_oracle_for(data.test_history, day, data.slot)
    result = system.answer_query(
        EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=budget,
            theta=theta if theta is not None else data.theta,
            selector=selector,
            rng=np.random.default_rng(seed + day),
            warm_start=False,
        ),
        market=market,
        truth=truth,
    )
    queried = np.asarray(data.queried, dtype=int)
    estimates: Dict[str, np.ndarray] = {}
    seconds: Dict[str, float] = {}
    for name in backends:
        if name == DEFAULT_BACKEND and result.gsp is not None:
            field = result.full_field_kmh
            seconds[name] = result.gsp.runtime_seconds
        else:
            start = time.perf_counter()
            field = system.estimate_with_backend(
                name, result.probes, data.slot
            ).speeds
            seconds[name] = time.perf_counter() - start
        estimates[name] = field[queried]
    truths = np.array([truth(int(q)) for q in queried])
    return TrialOutcome(truths, estimates, seconds)


def alt_cost_model(data: Dataset, low: int, high: int, seed: int = 99) -> CostModel:
    """A replacement uniform cost model over the dataset's network."""
    return uniform_random_costs(data.network, low, high, seed=seed)


def format_rows(
    header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table used by every experiment's CLI output."""
    table = [list(map(str, header))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)
