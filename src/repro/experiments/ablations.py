"""Ablation studies of the design choices called out in DESIGN.md §4.

Not figures from the paper — these quantify the impact of choices the
paper fixes implicitly:

* path-weight transform (exact ``-log ρ`` vs the paper's ``1/ρ``);
* GSP update schedule: the engine's two (Alg. 5's BFS order and its
  layer-parallel variant) against three sweep orders that exist only
  here (colour groups, random, index order);
* crowd answer aggregation (mean vs median vs trimmed mean);
* RTF inference initialization (empirical vs random);
* OCS slack: a swap/add :func:`local_search` that refines
  Hybrid-Greedy's selection, so the objective gap it closes measures
  how far the greedy sits from a local optimum
  (``benchmarks/test_ablation_localsearch.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.core.correlation import (
    _RHO_EPS,
    _edge_graph,
    road_road_correlation_matrix,
)
from repro.core.gsp import GSPConfig, GSPSchedule, _build_update_structure, propagate
from repro.core.inference import RTFInferenceConfig, infer_slot_parameters
from repro.core.ocs import OCSInstance, OCSResult
from repro.core.request import EstimationRequest
from repro.core.rtf import RTFSlot
from repro.crowd.aggregation import Aggregator
from repro.crowd.market import CrowdMarket
from repro.datasets import truth_oracle_for
from repro.errors import SelectionError
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


def _ablation_orders(
    network: TrafficNetwork, observed: Mapping[int, float]
) -> Dict[str, Callable[[], Sequence[int]]]:
    """The sweep orders that only this study runs, by table label.

    Each maps to a callable giving the free roads in the order of one
    sequential Gauss-Seidel sweep:

    * ``bfs-colored`` — each BFS layer split by a greedy colouring into
      non-adjacent groups, swept group by group (the §VI condition
      without the wavefronts the engine compiles ``BFS`` into);
    * ``random`` — a fresh permutation per sweep, from a generator
      seeded with 3;
    * ``index`` — ascending road index.
    """
    colored: List[int] = []
    for layer in network.bfs_layers(sorted(observed)):
        color_of: Dict[int, int] = {}
        for road in layer:
            used = {color_of[j] for j in network.neighbors(road) if j in color_of}
            color_of[road] = min(c for c in range(len(used) + 1) if c not in used)
        colored += sorted(layer, key=color_of.__getitem__)
    free = [i for i in range(network.n_roads) if i not in observed]
    rng = np.random.default_rng(3)
    return {
        "bfs-colored": lambda: colored,
        "random": lambda: rng.permutation(free).tolist(),
        "index": lambda: free,
    }


def _gauss_seidel(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
    order: Callable[[], Sequence[int]],
    config: Optional[GSPConfig] = None,
) -> Tuple[np.ndarray, int]:
    """Sequential Eq. 18 sweeps in ``order`` until the max change is below ε.

    The arithmetic of the engine's reference kernel; only the order of
    the updates within a sweep differs; ``config`` supplies ε and the
    sweep cap.  Returns ``(speeds, sweeps)``.
    """
    cfg = config or GSPConfig()
    prior_precision, prior_pull, neighbor_idx, edge_weight = _build_update_structure(
        network, params
    )
    mu = params.mu
    speeds = mu.astype(np.float64).copy()
    for road, value in observed.items():
        speeds[road] = float(value)
    for sweep in range(1, cfg.max_sweeps + 1):
        max_delta = 0.0
        for i in order():
            neigh, w = neighbor_idx[i], edge_weight[i]
            value = (
                prior_pull[i] + float(np.dot(w, speeds[neigh] + mu[i] - mu[neigh]))
            ) / (prior_precision[i] + float(w.sum()))
            max_delta = max(max_delta, abs(value - speeds[i]))
            speeds[i] = value
        if max_delta < cfg.epsilon:
            break
    return speeds, sweep


def gsp_schedule_ablation(
    scale: ExperimentScale = ExperimentScale.QUICK,
    budget: int = 30,
) -> List[AblationRow]:
    """Sweeps-to-convergence and quality per GSP update order.

    ``bfs`` and ``bfs-parallel`` run on the engine; the other three rows
    run :func:`_gauss_seidel` in the orders of :func:`_ablation_orders`.
    """
    data = default_semisyn(scale)
    system = fit_system("semisyn", scale)
    market = market_for(data, seed=5)
    truth = truth_oracle_for(data.test_history, 0, data.slot)
    base = system.answer_query(
        EstimationRequest(
            queried=data.queried, slot=data.slot, budget=budget
        ),
        market=market,
        truth=truth,
    )
    params = system.model.slot(data.slot)
    truths = np.array([truth(int(q)) for q in data.queried])
    fields: Dict[str, Tuple[np.ndarray, int]] = {}
    for schedule in GSPSchedule:
        result = propagate(
            data.network, params, base.probes, GSPConfig(schedule=schedule)
        )
        fields[schedule.value] = (result.speeds, result.sweeps)
    for name, order in _ablation_orders(data.network, base.probes).items():
        fields[name] = _gauss_seidel(data.network, params, base.probes, order)
    rows: List[AblationRow] = []
    for name, (speeds, sweeps) in fields.items():
        mape = mean_absolute_percentage_error(speeds[list(data.queried)], truths)
        rows.append(AblationRow("gsp-schedule", name, "sweeps", float(sweeps)))
        rows.append(AblationRow("gsp-schedule", name, "MAPE", mape))
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
                    queried=data.queried, slot=data.slot, budget=budget
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


class _CoverState:
    """Cached coverage of the current selection for O(|R^q|) trial moves.

    For every queried road, tracks the best and second-best correlation
    over the selected roads (and which selected road provides the best),
    so an *add* trial is ``max(best, corr[·, road])`` and a *swap* trial
    replaces the outgoing road's contribution with the runner-up before
    taking the max.  Feasibility checks reduce to one vectorized
    redundancy row test plus an O(1) cost comparison because the current
    selection is feasible by invariant.
    """

    def __init__(self, instance: OCSInstance) -> None:
        self.instance = instance
        self.q = np.asarray(instance.queried, dtype=int)
        self.sigma_q = instance.sigma[self.q]
        self.cost_of: Dict[int, float] = {
            int(road): float(c) for road, c in zip(instance.candidates, instance.costs)
        }
        self.sel: List[int] = []
        self.total_cost = 0.0
        self.best = np.full(len(self.q), -np.inf)
        self.best_road = np.full(len(self.q), -1, dtype=int)
        self.second = np.full(len(self.q), -np.inf)

    def rebuild(self, selected: Set[int]) -> None:
        """Recompute the coverage caches for a new current selection."""
        self.sel = sorted(int(r) for r in selected)
        self.total_cost = sum(self.cost_of[r] for r in self.sel)
        n_q = len(self.q)
        if not self.sel:
            self.best = np.full(n_q, -np.inf)
            self.best_road = np.full(n_q, -1, dtype=int)
            self.second = np.full(n_q, -np.inf)
            return
        sel_arr = np.asarray(self.sel, dtype=int)
        cover = self.instance.corr[np.ix_(self.q, sel_arr)]
        arg = cover.argmax(axis=1)
        self.best = cover[np.arange(n_q), arg]
        self.best_road = sel_arr[arg]
        if len(self.sel) > 1:
            runner = cover.copy()
            runner[np.arange(n_q), arg] = -np.inf
            self.second = runner.max(axis=1)
        else:
            self.second = np.full(n_q, -np.inf)

    def add_objective(self, road: int) -> float:
        """Eq. 13 of ``sel ∪ {road}`` without rescanning the selection."""
        values = np.maximum(self.best, self.instance.corr[self.q, road])
        return float(np.dot(self.sigma_q, values))

    def swap_objective(self, out: int, road: int) -> float:
        """Eq. 13 of ``(sel − {out}) ∪ {road}``."""
        excl = np.where(self.best_road == out, self.second, self.best)
        values = np.maximum(excl, self.instance.corr[self.q, road])
        return float(np.dot(self.sigma_q, values))

    def feasible_add(self, road: int) -> bool:
        if road not in self.cost_of or road in self.sel:
            return False
        if self.total_cost + self.cost_of[road] > self.instance.budget + 1e-9:
            return False
        return self._redundancy_ok(road, exclude=None)

    def feasible_swap(self, out: int, road: int) -> bool:
        if road not in self.cost_of or road in self.sel:
            return False
        cost = self.total_cost - self.cost_of[out] + self.cost_of[road]
        if cost > self.instance.budget + 1e-9:
            return False
        return self._redundancy_ok(road, exclude=out)

    def _redundancy_ok(self, road: int, exclude: Optional[int]) -> bool:
        others = [r for r in self.sel if r != exclude]
        if not others:
            return True
        return not self.instance.redundant(road, others).any()


def local_search(
    instance: OCSInstance,
    initial: Sequence[int] = (),
    max_rounds: int = 200,
) -> OCSResult:
    """Best-improvement local search over add / swap moves.

    Every accepted move strictly improves Eq. 13, so started from
    Hybrid-Greedy's selection the relative objective gain is an
    empirical measure of the greedy's slack against its (1 − 1/e)/2
    guarantee.  Each trial move is scored from a cached per-queried-road
    coverage state in ``O(|R^q|)`` instead of re-scoring the whole
    selection.  Pure drops are never tried: Eq. 13 is monotone.

    Args:
        instance: The OCS problem.
        initial: Feasible starting selection (e.g. Hybrid-Greedy's
            output); empty to start from scratch.
        max_rounds: Cap on improving rounds.

    Returns:
        An :class:`OCSResult` at a local optimum (no single add or swap
        improves the objective).

    Raises:
        SelectionError: When the starting selection is infeasible.
    """
    if not instance.is_feasible(list(initial)):
        raise SelectionError("local search needs a feasible starting selection")
    start = time.perf_counter()
    selected: Set[int] = {int(r) for r in initial}
    candidates = list(instance.candidates)
    best_objective = instance.objective(sorted(selected))
    cover = _CoverState(instance)
    cover.rebuild(selected)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        best_move: Optional[Tuple[Optional[int], int]] = None
        best_gain = 1e-9
        for road in candidates:
            if road in selected or not cover.feasible_add(road):
                continue
            gain = cover.add_objective(road) - best_objective
            if gain > best_gain:
                best_gain, best_move = gain, (None, road)
        for out in list(selected):
            for road in candidates:
                if road in selected or not cover.feasible_swap(out, road):
                    continue
                gain = cover.swap_objective(out, road) - best_objective
                if gain > best_gain:
                    best_gain, best_move = gain, (out, road)
        if best_move is None:
            break
        out, into = best_move
        if out is not None:
            selected.discard(out)
        selected.add(into)
        cover.rebuild(selected)
        best_objective += best_gain
    final = sorted(selected)
    return OCSResult(
        selected=tuple(final),
        objective=instance.objective(final),
        cost=instance.selection_cost(final),
        iterations=rounds,
        runtime_seconds=time.perf_counter() - start,
        algorithm="local-search",
    )


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
