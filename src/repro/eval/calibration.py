"""Redundancy-threshold (θ) calibration.

The paper says θ "can be appropriately tuned through the exploration of
historical data [30]" but gives no procedure.  This module implements
the natural one: hold out some historical days, replay the online loop
for each candidate θ, and keep the θ with the lowest held-out MAPE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.crowd.market import CrowdMarket
from repro.datasets.bundle import Dataset, truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error


@dataclass(frozen=True)
class ThetaCalibrationResult:
    """Outcome of a θ sweep.

    Attributes:
        best_theta: The θ with the lowest mean held-out MAPE.
        mape_by_theta: Mean MAPE per candidate θ.
        objective_by_theta: Mean OCS objective per candidate θ (shows
            how much the constraint binds).
        n_selected_by_theta: Mean |R^c| per candidate θ.
    """

    best_theta: float
    mape_by_theta: Dict[float, float]
    objective_by_theta: Dict[float, float]
    n_selected_by_theta: Dict[float, float]


def tune_theta(
    data: Dataset,
    system: CrowdRTSE,
    budget: float,
    candidates: Sequence[float] = (0.7, 0.8, 0.9, 0.92, 0.95, 1.0),
    n_validation_days: int = 3,
    selector: str = "hybrid",
    seed: int = 0,
) -> ThetaCalibrationResult:
    """Pick θ by replaying queries on held-out validation days.

    Validation days are taken from the *training* history's tail (never
    the test split), so tuning stays honest.

    Args:
        data: Dataset bundle.
        system: Fitted CrowdRTSE (trained on ``data.train_history``).
        budget: Budget K the deployment will use.
        candidates: θ values to try; each must be in (0, 1].
        n_validation_days: Held-out days replayed per candidate.
        selector: OCS solver to replay with.
        seed: RNG seed for the markets.

    Returns:
        A :class:`ThetaCalibrationResult`.

    Raises:
        ExperimentError: On an empty/invalid candidate list or when the
            training history has too few days.
    """
    if not candidates:
        raise ExperimentError("candidate thetas must not be empty")
    for theta in candidates:
        if not 0.0 < theta <= 1.0:
            raise ExperimentError(f"theta {theta} outside (0, 1]")
    if n_validation_days < 1:
        raise ExperimentError("n_validation_days must be >= 1")
    if data.train_history.n_days <= n_validation_days:
        raise ExperimentError(
            f"training history has {data.train_history.n_days} days; cannot "
            f"hold out {n_validation_days}"
        )

    validation_days = range(
        data.train_history.n_days - n_validation_days, data.train_history.n_days
    )
    mape_by_theta: Dict[float, float] = {}
    objective_by_theta: Dict[float, float] = {}
    n_selected_by_theta: Dict[float, float] = {}
    for theta in candidates:
        errors: List[float] = []
        objectives: List[float] = []
        sizes: List[int] = []
        for day in validation_days:
            market = CrowdMarket(
                data.network,
                data.pool,
                data.cost_model,
                rng=np.random.default_rng(seed + day),
            )
            truth = truth_oracle_for(data.train_history, day, data.slot)
            result = system.answer_query(
                EstimationRequest(
                    queried=data.queried,
                    slot=data.slot,
                    budget=budget,
                    theta=theta,
                    selector=selector,
                    rng=np.random.default_rng(seed + day),
                ),
                market=market,
                truth=truth,
            )
            truths = np.array([truth(q) for q in data.queried])
            errors.append(
                mean_absolute_percentage_error(result.estimates_kmh, truths)
            )
            objectives.append(result.selection.objective)
            sizes.append(len(result.selection.selected))
        mape_by_theta[theta] = float(np.mean(errors))
        objective_by_theta[theta] = float(np.mean(objectives))
        n_selected_by_theta[theta] = float(np.mean(sizes))

    best_theta = min(mape_by_theta, key=lambda t: mape_by_theta[t])
    return ThetaCalibrationResult(
        best_theta=best_theta,
        mape_by_theta=mape_by_theta,
        objective_by_theta=objective_by_theta,
        n_selected_by_theta=n_selected_by_theta,
    )
