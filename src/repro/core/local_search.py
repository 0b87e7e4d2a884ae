"""Local-search refinement for OCS solutions.

Hybrid-Greedy has the (1 − 1/e)/2 guarantee, but how far is it from
optimal in practice on instances too large for brute force?  This module
answers that with a swap/add/drop local search: starting from any
feasible selection it repeatedly applies the best improving move until a
local optimum.  Because every accepted move strictly improves Eq. 13,
the result upper-bounds how much any small perturbation could gain —
the gap it closes over Hybrid-Greedy is an empirical measure of the
greedy's slack.

Each trial move is scored from a cached per-queried-road coverage
state (best and second-best correlation over the current selection)
instead of re-scoring the whole selection with ``instance.objective`` —
``O(|R^q|)`` per trial instead of ``O(|R^q| · |R^c|)``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.ocs import OCSInstance, OCSResult
from repro.errors import SelectionError
from repro.obs import DEFAULT_ITERATION_BUCKETS, get_metrics, get_tracer


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
    """Best-improvement local search over add / drop / swap moves.

    Args:
        instance: The OCS problem.
        initial: Feasible starting selection (e.g. Hybrid-Greedy's
            output); empty to start from scratch.
        max_rounds: Cap on improving rounds.

    Returns:
        An :class:`OCSResult` at a local optimum (no single add, drop or
        swap improves the objective).

    Raises:
        SelectionError: When the starting selection is infeasible.
    """
    if not instance.is_feasible(list(initial)):
        raise SelectionError("local search needs a feasible starting selection")
    start = time.perf_counter()
    tracer = get_tracer()
    selected: Set[int] = {int(r) for r in initial}
    candidates = list(instance.candidates)
    best_objective = instance.objective(sorted(selected))
    cover = _CoverState(instance)
    cover.rebuild(selected)
    rounds = 0
    objective_evaluations = 1
    moves_applied = {"add": 0, "swap": 0}
    for _ in range(max_rounds):
        rounds += 1
        best_move: Optional[Tuple[Optional[int], Optional[int]]] = None
        best_gain = 1e-9
        # Adds.
        for road in candidates:
            if road in selected:
                continue
            if not cover.feasible_add(road):
                continue
            gain = cover.add_objective(road) - best_objective
            objective_evaluations += 1
            if gain > best_gain:
                best_gain, best_move = gain, (None, road)
        # Swaps (drop one, add one).
        for out in list(selected):
            for road in candidates:
                if road in selected:
                    continue
                if not cover.feasible_swap(out, road):
                    continue
                gain = cover.swap_objective(out, road) - best_objective
                objective_evaluations += 1
                if gain > best_gain:
                    best_gain, best_move = gain, (out, road)
            # Pure drops can never improve a monotone objective; skip.
        if best_move is None:
            break
        out, into = best_move
        if out is not None:
            selected.discard(out)
        if into is not None:
            selected.add(into)
        cover.rebuild(selected)
        kind = "add" if out is None else "swap"
        moves_applied[kind] += 1
        tracer.event(
            "ocs.local_search.move", kind=kind, gain=best_gain, round=rounds
        )
        best_objective += best_gain
    final = sorted(selected)
    result = OCSResult(
        selected=tuple(final),
        objective=instance.objective(final),
        cost=instance.selection_cost(final),
        iterations=rounds,
        runtime_seconds=time.perf_counter() - start,
        algorithm="local-search",
    )
    metrics = get_metrics()
    if metrics.enabled:
        labels = {"algorithm": "local-search"}
        metrics.counter("ocs.solves", labels).inc()
        metrics.counter("ocs.objective_evaluations", labels).inc(objective_evaluations)
        metrics.histogram(
            "ocs.local_search.rounds", DEFAULT_ITERATION_BUCKETS
        ).observe(rounds)
        for kind, count in moves_applied.items():
            if count:
                metrics.counter("ocs.local_search.moves", {"kind": kind}).inc(count)
    return result


def greedy_plus_local_search(
    instance: OCSInstance, max_rounds: int = 200
) -> Tuple[OCSResult, float]:
    """Hybrid-Greedy followed by local search; returns (result, gap).

    ``gap`` is the relative improvement the local search found over the
    greedy solution — 0.0 means the greedy was already locally optimal.
    """
    from repro.core.ocs import hybrid_greedy

    greedy = hybrid_greedy(instance)
    refined = local_search(instance, greedy.selected, max_rounds)
    if greedy.objective > 0:
        gap = (refined.objective - greedy.objective) / greedy.objective
    else:
        gap = 0.0
    return refined, float(max(gap, 0.0))
