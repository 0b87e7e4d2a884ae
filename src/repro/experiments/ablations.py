"""Ablation studies of the design choices called out in DESIGN.md §4.

Not figures from the paper — these quantify the impact of choices the
paper fixes implicitly:

* path-weight transform (exact ``-log ρ`` vs the paper's ``1/ρ``);
* GSP update schedule (BFS vs layer-parallel vs random vs index order);
* crowd answer aggregation (mean vs median vs trimmed mean);
* RTF inference initialization (empirical vs random).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.core.correlation import (
    _RHO_EPS,
    _edge_graph,
    road_road_correlation_matrix,
)
from repro.core.gsp import GSPConfig, GSPSchedule, propagate
from repro.core.inference import RTFInferenceConfig, infer_slot_parameters
from repro.core.request import EstimationRequest
from repro.crowd.aggregation import Aggregator
from repro.crowd.market import CrowdMarket
from repro.datasets import truth_oracle_for
from repro.eval.metrics import mean_absolute_percentage_error
from repro.experiments.common import (
    ExperimentScale,
    default_semisyn,
    fit_system,
    format_rows,
    market_for,
)
from repro.network.graph import TrafficNetwork


@dataclass(frozen=True)
class AblationRow:
    """One ablation measurement."""

    study: str
    variant: str
    metric: str
    value: float


def _reciprocal_correlation_matrix(
    network: TrafficNetwork, rho: np.ndarray
) -> np.ndarray:
    """The paper-literal Γ_R of Eq. 9: products along the ``1/rho`` paths.

    Dijkstra runs on weights ``1/rho``; the product of ``rho`` is then
    evaluated along each shortest path found, by walking every road's
    predecessor chain once per source.  Serving uses the exact ``-log
    rho`` transform (:func:`road_road_correlation_matrix`); this twin
    exists only to measure how far the paper's heuristic falls from it.
    """
    rho = np.asarray(rho, dtype=np.float64)
    n = network.n_roads
    usable = rho > _RHO_EPS
    graph = _edge_graph(network, 1.0 / np.maximum(rho, _RHO_EPS), usable)
    log_rho_by_pair: Dict[Tuple[int, int], float] = {}
    for e, (i, j) in enumerate(network.edges):
        if usable[e]:
            log_rho_by_pair[(i, j)] = float(np.log(rho[e]))
            log_rho_by_pair[(j, i)] = float(np.log(rho[e]))
    sources = np.arange(n)
    dist, predecessors = dijkstra(
        graph, directed=False, indices=sources, return_predecessors=True
    )
    corr = np.zeros((n, n))
    for row, source in enumerate(sources.tolist()):
        preds = predecessors[row]
        # Accumulate log-products by walking each node's predecessor
        # chain once, memoized per source.
        log_prod = np.full(n, np.nan)
        log_prod[source] = 0.0
        for target in range(n):
            if not np.isnan(log_prod[target]) or np.isinf(dist[row, target]):
                continue
            chain: List[int] = []
            node = target
            while np.isnan(log_prod[node]):
                chain.append(node)
                node = int(preds[node])
            acc = log_prod[node]
            for node_up in reversed(chain):
                acc += log_rho_by_pair[(int(preds[node_up]), node_up)]
                log_prod[node_up] = acc
        valid = ~np.isnan(log_prod)
        corr[row, valid] = np.exp(log_prod[valid])
    corr[sources, sources] = 1.0
    return corr


def path_weight_ablation(
    scale: ExperimentScale = ExperimentScale.QUICK,
) -> List[AblationRow]:
    """Exact vs reciprocal path weights: how far apart are the Γ tables?

    Reports the max and mean absolute difference between the two
    all-pairs correlation matrices, and the fraction of pairs whose
    chosen path differs enough to change the correlation by > 1%.
    """
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    rho = system.model.slot(data.slot).rho
    exact = road_road_correlation_matrix(data.network, rho)
    paper = _reciprocal_correlation_matrix(data.network, rho)
    diff = np.abs(exact - paper)
    return [
        AblationRow("path-weights", "max |Δcorr|", "corr", float(diff.max())),
        AblationRow("path-weights", "mean |Δcorr|", "corr", float(diff.mean())),
        AblationRow(
            "path-weights",
            "pairs with Δ>0.01",
            "fraction",
            float((diff > 0.01).mean()),
        ),
        AblationRow(
            "path-weights",
            "exact >= paper (should be ~1)",
            "fraction",
            float((exact >= paper - 1e-9).mean()),
        ),
    ]


def gsp_schedule_ablation(
    scale: ExperimentScale = ExperimentScale.QUICK,
    budget: int = 30,
) -> List[AblationRow]:
    """Sweeps-to-convergence and quality per GSP schedule."""
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    market = market_for(data, seed=5)
    truth = truth_oracle_for(data.test_history, 0, data.slot)
    base = system.answer_query(
        EstimationRequest(
            queried=data.queried, slot=data.slot, budget=budget, warm_start=False
        ),
        market=market,
        truth=truth,
    )
    params = system.model.slot(data.slot)
    truths = np.array([truth(int(q)) for q in data.queried])
    rows: List[AblationRow] = []
    for schedule in GSPSchedule:
        result = propagate(
            data.network,
            params,
            base.probes,
            GSPConfig(schedule=schedule, seed=3),
        )
        mape = mean_absolute_percentage_error(
            result.speeds[list(data.queried)], truths
        )
        rows.append(
            AblationRow("gsp-schedule", schedule.value, "sweeps", float(result.sweeps))
        )
        rows.append(AblationRow("gsp-schedule", schedule.value, "MAPE", mape))
    return rows


def aggregation_ablation(
    scale: ExperimentScale = ExperimentScale.QUICK,
    budget: int = 30,
    n_trials: int = 4,
) -> List[AblationRow]:
    """Probe-accuracy per aggregation rule (mean/median/trimmed)."""
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    rows: List[AblationRow] = []
    for aggregator in Aggregator:
        errors: List[float] = []
        for trial in range(n_trials):
            market = CrowdMarket(
                data.network,
                data.pool,
                data.cost_model,
                aggregator=aggregator,
                rng=np.random.default_rng(50 + trial),
            )
            truth = truth_oracle_for(
                data.test_history, trial % data.test_history.n_days, data.slot
            )
            result = system.answer_query(
                EstimationRequest(
                    queried=data.queried, slot=data.slot, budget=budget, warm_start=False
                ),
                market=market,
                truth=truth,
            )
            for receipt in result.receipts:
                errors.append(
                    abs(receipt.aggregated_kmh - receipt.true_kmh) / receipt.true_kmh
                )
        rows.append(
            AblationRow(
                "aggregation",
                aggregator.value,
                "probe MAPE",
                float(np.mean(errors)),
            )
        )
    return rows


def inference_init_ablation(
    scale: ExperimentScale = ExperimentScale.QUICK,
) -> List[AblationRow]:
    """Iterations to convergence: empirical vs random initialization."""
    data = default_semisyn(scale)
    samples = data.train_history.slot_samples(data.slot)
    rows: List[AblationRow] = []
    for init in ("empirical", "random"):
        config = RTFInferenceConfig(
            init=init, tol=0.05, max_iters=2000, seed=21
        )
        _, diag = infer_slot_parameters(data.network, samples, data.slot, config)
        rows.append(
            AblationRow("inference-init", init, "iterations", float(diag.iterations))
        )
        rows.append(
            AblationRow(
                "inference-init", init, "converged", float(diag.converged)
            )
        )
    return rows


def run_all(scale: ExperimentScale = ExperimentScale.QUICK) -> List[AblationRow]:
    """Run every ablation study."""
    rows: List[AblationRow] = []
    rows += path_weight_ablation(scale)
    rows += gsp_schedule_ablation(scale)
    rows += aggregation_ablation(scale)
    rows += inference_init_ablation(scale)
    return rows


def format_table(rows: Sequence[AblationRow]) -> str:
    """Render all ablation rows."""
    header = ["study", "variant", "metric", "value"]
    body = [[r.study, r.variant, r.metric, f"{r.value:.5f}"] for r in rows]
    return format_rows(header, body)


def main() -> None:
    """CLI entry: print every ablation study."""
    print("Ablation studies (DESIGN.md §4)")
    print(format_table(run_all()))


if __name__ == "__main__":
    main()
