"""Graph-based Speed Propagation — GSP (paper §VI, Alg. 5).

Given probed speeds for the crowdsourced roads ``R^c``, GSP infers the
most-likely speeds of all other roads under the RTF model by coordinate
maximization of Eq. 16.  Each non-observed road's optimal value given
its neighbours is the precision-weighted blend of its own prior mean and
its neighbours' propagated values (Eq. 18):

.. math::

    v_i^* = \\frac{\\mu_i/\\sigma_i^2 + \\sum_{j \\in n(i)}
                   (v_j + \\mu_{ij})/\\sigma_{ij}^2}
                 {1/\\sigma_i^2 + \\sum_{j \\in n(i)} 1/\\sigma_{ij}^2}

Updates are scheduled by BFS layers from ``R^c`` (closest roads first),
swept repeatedly until the largest value change drops below ε.  That is
the ``BFS`` schedule, Alg. 5 itself.  ``BFS_PARALLEL`` keeps the layers
but updates each one Jacobi-style (all reads before any write), so it
matches its own reference loop, not Alg. 5's sequential sweep.  Other
sweep orders (colour groups, index order, a random permutation per
sweep) live only in the ablation study
(:func:`repro.experiments.ablations.gsp_schedule_ablation`).

Two kernels implement the sweep:

* the **reference** kernel — the per-node Python loop of Alg. 5, kept
  verbatim as the correctness oracle, and
* the **vectorized** kernel (the default) — a CSR-style flat neighbour
  structure (:class:`PropagationStructure`) plus per-group
  gather/segment-sum arrays (:class:`CompiledSchedule`), which updates a
  whole group of mutually non-adjacent roads in one fused numpy
  operation.  The groups are the BFS layers (``BFS_PARALLEL``) or, for
  the sequential ``BFS`` order, wavefront levels: the level scheduling
  of sparse triangular solves, under which the fused sweep performs
  exactly the updates of the sequential one.  A wavefront level is a set
  of non-adjacent roads of one sweep, so it meets §VI's parallelization
  condition, and the default path runs Alg. 5 itself on the fused
  kernel.

:class:`GSPEngine` owns both kernels for one network and caches the
compiled groups per ``(schedule, frozenset(R^c))``, so repeated queries
with overlapping selections skip the graph work.  The per-slot
propagation structure is an input: the serving path hands in the one its
:class:`~repro.core.store.ModelSnapshot` compiled once per slot digest
(:meth:`~repro.core.store.ModelSnapshot.propagation_structure`); a call
without one compiles it for that call only.
"""

from __future__ import annotations

import enum
import numbers
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, ConvergenceWarning, ModelError
from repro.core.rtf import RTFSlot
from repro.network.graph import TrafficNetwork
from repro.obs import DEFAULT_ITERATION_BUCKETS, DEFAULT_TIME_BUCKETS, get_metrics, get_tracer


class GSPSchedule(str, enum.Enum):
    """Order in which non-observed roads are updated within one sweep."""

    #: Paper Alg. 5: ascending hop count from R^c, Gauss-Seidel.
    BFS = "bfs"
    #: Same BFS layers, but Jacobi *within* each layer (parallelizable).
    BFS_PARALLEL = "bfs-parallel"


class GSPKernel(str, enum.Enum):
    """Which sweep implementation to run."""

    #: The per-node Python loop (Alg. 5 verbatim) — the testing oracle.
    REFERENCE = "reference"
    #: Fused numpy group updates (``BFS`` runs as wavefront groups, same
    #: arithmetic as its sequential sweep).
    VECTORIZED = "vectorized"


#: LRU capacity of an engine's compiled-schedule cache (one entry per
#: ``(schedule, R^c)`` pair).
_MAX_SCHEDULES = 64


def _wavefront_groups(
    network: TrafficNetwork, order: Sequence[int]
) -> List[List[int]]:
    """Level-schedule a sequential Gauss-Seidel order into fused groups.

    The level scheduling of sparse triangular solves: a road's level is
    one more than the highest level among its neighbours that precede it
    in ``order`` (0 when none does).  Roads of one level are never
    adjacent, a road's earlier neighbours sit in lower levels and its
    later ones in higher levels, so sweeping the levels in turn gives
    every update exactly the new/old neighbour values the sequential
    loop over ``order`` would read.

    Args:
        network: Road graph.
        order: The free roads in sequential update order.

    Returns:
        Groups by ascending level, each in ``order``'s relative order;
        together they partition ``order``.
    """
    # -1 marks roads not yet updated (later in ``order``, or clamped).
    level_of = [-1] * network.n_roads
    groups: List[List[int]] = []
    for road in order:
        level = 0
        for j in network.neighbors(road):
            if level_of[j] >= level:
                level = level_of[j] + 1
        level_of[road] = level
        if level == len(groups):
            groups.append([])
        groups[level].append(road)
    return groups


@dataclass(frozen=True)
class GSPConfig:
    """Knobs of Alg. 5.

    Attributes:
        epsilon: Convergence threshold on the max per-road change.
        max_sweeps: Sweep cap; a sweep updates every non-observed road.
        schedule: Update ordering; see :class:`GSPSchedule`.  A member's
            string value (``"bfs"``) is coerced to the member.
        kernel: Sweep implementation; see :class:`GSPKernel`, coerced
            the same way.
        strict: Raise :class:`ConvergenceError` when the sweep budget is
            exhausted (default: return the last iterate).
    """

    epsilon: float = 1e-3
    max_sweeps: int = 200
    schedule: GSPSchedule = GSPSchedule.BFS
    kernel: GSPKernel = GSPKernel.VECTORIZED
    strict: bool = False

    def __post_init__(self) -> None:
        # ``not 0 < x < inf`` also rejects NaN, which compares false.
        if not 0.0 < self.epsilon < float("inf"):
            raise ModelError(
                f"epsilon must be positive and finite, got {self.epsilon}"
            )
        if not isinstance(self.max_sweeps, numbers.Integral) or self.max_sweeps < 1:
            raise ModelError(
                f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}"
            )
        for name, kind in (("schedule", GSPSchedule), ("kernel", GSPKernel)):
            value = getattr(self, name)
            if isinstance(value, kind):
                continue
            try:
                member = kind(value)
            except (ValueError, TypeError):
                choices = ", ".join(repr(m.value) for m in kind)
                raise ModelError(
                    f"{name} must be one of {choices}, got {value!r}"
                ) from None
            object.__setattr__(self, name, member)


@dataclass(frozen=True)
class GSPProvenance:
    """Cache provenance of one propagation.

    Kept on the result so a single propagation stays self-describing
    without reading the metrics registry.

    Attributes:
        structure_cache_hit: Whether the propagation structure was
            handed in rather than compiled by this call (False on the
            reference kernel, which reads none).
        schedule_cache_hit: Whether the compiled update groups came out
            of the engine cache (mirrors ``gsp.cache.lookups``).
        warm_start: Always ``False``: every sweep starts from the prior
            means μ.  Kept only because the benchmark's span recorder
            reads it; a change to the benchmark may remove it.
    """

    structure_cache_hit: bool = False
    schedule_cache_hit: bool = False
    warm_start: bool = False


@dataclass(frozen=True)
class GSPResult:
    """Outcome of one propagation.

    Attributes:
        speeds: Inferred speed per road, shape ``(n_roads,)``; observed
            roads keep their probed values.
        sweeps: Sweeps performed.
        converged: Whether the ε threshold was met.
        max_delta_history: Largest per-road change after each sweep.
        runtime_seconds: Wall-clock time.
        schedule: Update ordering that produced this result.
        kernel: Code path that produced it (``REFERENCE``/``VECTORIZED``).
        provenance: Cache provenance of this propagation; the same
            facts are published on the ``gsp.cache`` trace events.
    """

    speeds: np.ndarray
    sweeps: int
    converged: bool
    max_delta_history: Tuple[float, ...]
    runtime_seconds: float
    schedule: GSPSchedule = GSPSchedule.BFS
    kernel: GSPKernel = GSPKernel.REFERENCE
    provenance: GSPProvenance = field(default_factory=GSPProvenance)



# ----------------------------------------------------------------------
# Cached precomputations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationStructure:
    """CSR-style neighbour structure for one ``(network, slot)`` pair.

    Flat arrays over all *directed* neighbour slots: road ``i``'s
    neighbours occupy ``indices[indptr[i]:indptr[i+1]]`` with edge
    precisions ``weights`` (``1/σ_ij²``) in the matching positions.  The
    value-independent parts of Eq. 18 are folded once:

    * ``const_pull[i] = μ_i/σ_i² + Σ_j (μ_i - μ_j)/σ_ij²`` and
    * ``denom[i]      = 1/σ_i²  + Σ_j 1/σ_ij²``,

    so a sweep only gathers neighbour values and segment-sums
    ``weights * v[indices]``.

    Attributes:
        indptr: Row pointers, shape ``(n_roads + 1,)``.
        indices: Flat neighbour indices, shape ``(2·n_edges,)``.
        weights: Edge precisions per flat slot, shape ``(2·n_edges,)``.
        const_pull: Value-independent numerator per road.
        denom: Eq. 18 denominator per road.
        arrays: The ``(prior_precision, prior_pull, edge_precision,
            edge_mu)`` arrays it was compiled from
            (:meth:`RTFSlot.propagation_arrays` order).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    const_pull: np.ndarray
    denom: np.ndarray
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _GroupKernel:
    """Gather/segment-sum arrays for one fused group update.

    ``nodes`` are the group's road indices; ``flat`` indexes the
    structure's CSR arrays (all neighbour slots of the group's nodes,
    concatenated in node order) and ``owner`` maps each flat slot back
    to its position within ``nodes``.
    """

    nodes: np.ndarray
    flat: np.ndarray
    owner: np.ndarray


@dataclass(frozen=True)
class CompiledSchedule:
    """Update groups (layers / wavefronts) in CSR layout.

    Depends only on the topology and ``frozenset(R^c)`` — never on slot
    parameters — so one compilation serves every slot.

    Attributes:
        schedule: The ordering this compilation realizes.
        groups: Fused-update groups, swept in order (layers for
            ``BFS_PARALLEL``, wavefront levels for ``BFS``).
        node_groups: The same groups as plain index lists.
    """

    schedule: GSPSchedule
    groups: Tuple[_GroupKernel, ...]
    node_groups: Tuple[Tuple[int, ...], ...]


def build_propagation_structure(
    network: TrafficNetwork,
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> PropagationStructure:
    """Compile the CSR neighbour structure for one slot (vectorized).

    Every step is array work, no per-node Python loop.

    Args:
        network: The road graph.
        arrays: The slot's per-road and per-edge precisions on
            ``network``, as :meth:`RTFSlot.propagation_arrays` returns
            them (or as a snapshot file persisted them).
    """
    n = network.n_roads
    prior_precision, prior_pull, edge_precision, edge_mu = arrays
    if network.edges:
        ei, ej = np.array(network.edges, dtype=np.intp).T
        src = np.concatenate([ei, ej])
        dst = np.concatenate([ej, ei])
        w = np.concatenate([edge_precision, edge_precision])
        # mu_ij is order-sensitive: from i's viewpoint the pull constant
        # is w_ij * (mu_i - mu_j) = w_ij * mu_src-to-dst difference.
        pull_const = np.concatenate([edge_mu * edge_precision, -edge_mu * edge_precision])
        order = np.argsort(src, kind="stable")
        src = src[order]
        indices = dst[order]
        weights = w[order]
        pull_const = pull_const[order]
        counts = np.bincount(src, minlength=n)
        const_pull = prior_pull + np.bincount(src, weights=pull_const, minlength=n)
        denom = prior_precision + np.bincount(src, weights=weights, minlength=n)
    else:
        indices = np.zeros(0, dtype=np.intp)
        weights = np.zeros(0)
        counts = np.zeros(n, dtype=np.intp)
        const_pull = prior_pull.copy()
        denom = prior_precision.copy()
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return PropagationStructure(
        indptr=indptr,
        indices=indices,
        weights=weights,
        const_pull=const_pull,
        denom=denom,
        arrays=(prior_precision, prior_pull, edge_precision, edge_mu),
    )


def _compile_groups(
    structure_indptr: np.ndarray, node_groups: Sequence[Sequence[int]]
) -> Tuple[_GroupKernel, ...]:
    """Build the gather/segment arrays for each update group."""
    kernels: List[_GroupKernel] = []
    for group in node_groups:
        nodes = np.asarray(group, dtype=np.intp)
        starts = structure_indptr[nodes]
        counts = structure_indptr[nodes + 1] - starts
        total = int(counts.sum())
        owner = np.repeat(np.arange(nodes.size, dtype=np.intp), counts)
        offsets = np.zeros(nodes.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        flat = np.arange(total, dtype=np.intp) - offsets[owner] + starts[owner]
        kernels.append(_GroupKernel(nodes=nodes, flat=flat, owner=owner))
    return tuple(kernels)


class GSPEngine:
    """Vectorized GSP solver with a cached schedule compilation for one network.

    The engine keeps one keyed LRU: the :class:`CompiledSchedule` per
    ``(schedule, frozenset(R^c))``.  Layers and wavefronts depend only
    on topology and the observed set, so one compilation serves every
    slot and every repeated query with the same selection.  The per-slot
    :class:`PropagationStructure` is an input (see :meth:`propagate`).

    The engine is bound to one immutable :class:`TrafficNetwork`;
    propagating with parameters of mismatched dimensions raises
    :class:`ModelError`.

    Args:
        network: The road graph.
    """

    def __init__(self, network: TrafficNetwork) -> None:
        self._network = network
        self._schedules: "OrderedDict[Tuple[GSPSchedule, frozenset], CompiledSchedule]" = (
            OrderedDict()
        )
        # Guards the LRU OrderedDict: concurrent readers (snapshot-
        # isolated answers) share one engine, and OrderedDict mutation is
        # not thread-safe.  Compilation on miss happens outside the lock;
        # a racing duplicate build is harmless (last write wins on
        # identical immutable values).
        self._lock = threading.Lock()

    @property
    def network(self) -> TrafficNetwork:
        """The road graph this engine is compiled against."""
        return self._network

    # -- cache plumbing -------------------------------------------------

    def schedule_for(
        self,
        schedule: GSPSchedule,
        observed_roads: frozenset,
        structure: PropagationStructure,
    ) -> Tuple[CompiledSchedule, bool]:
        """The compiled update groups for one ``(schedule, R^c)`` pair.

        Returns:
            ``(compiled, cache_hit)``.
        """
        key = (schedule, observed_roads)
        metrics = get_metrics()
        with self._lock:
            cached = self._schedules.get(key)
            if cached is not None:
                self._schedules.move_to_end(key)
                metrics.counter(
                    "gsp.cache.lookups", {"cache": "schedule", "result": "hit"}
                ).inc()
                return cached, True
        node_groups = self._network.bfs_layers(sorted(observed_roads))
        if schedule is GSPSchedule.BFS:
            node_groups = _wavefront_groups(
                self._network, [road for layer in node_groups for road in layer]
            )
        compiled = CompiledSchedule(
            schedule=schedule,
            groups=_compile_groups(structure.indptr, node_groups),
            node_groups=tuple(tuple(int(i) for i in g) for g in node_groups),
        )
        with self._lock:
            self._schedules[key] = compiled
            if len(self._schedules) > _MAX_SCHEDULES:
                self._schedules.popitem(last=False)
        metrics.counter(
            "gsp.cache.lookups", {"cache": "schedule", "result": "miss"}
        ).inc()
        return compiled, False

    # -- solving --------------------------------------------------------

    def propagate(
        self,
        params: RTFSlot,
        observed: Mapping[int, float],
        config: Optional[GSPConfig] = None,
        *,
        structure: Optional[PropagationStructure] = None,
    ) -> GSPResult:
        """Run GSP for one slot (Alg. 5), using the cached schedules.

        The sweep starts from the prior means μ with the observed roads
        clamped, so the answer depends only on ``params``, ``observed``
        and ``config``.

        Args:
            params: RTF parameters of the query slot.
            observed: Probed speeds keyed by road index; clamped.
            config: Solver knobs.
            structure: The slot's compiled :class:`PropagationStructure`
                (e.g. ``ModelSnapshot.propagation_structure``); it must
                have been compiled from ``params``.  Without one, the
                vectorized kernel compiles it for this call only.

        Returns:
            A :class:`GSPResult`.

        Raises:
            ModelError: On index/shape problems.
            ConvergenceError: In ``strict`` mode when ε is not reached.

        Warns:
            ConvergenceWarning: In non-strict mode when the sweep budget
                is exhausted before ε (also counted on the
                ``gsp.convergence.failures`` metric).
        """
        cfg = config or GSPConfig()
        kernel = cfg.kernel
        params.check_against(self._network)
        n = self._network.n_roads
        for road, value in observed.items():
            if not 0 <= road < n:
                raise ModelError(f"observed road index {road} outside 0..{n - 1}")
            if not np.isfinite(value) or value <= 0:
                raise ModelError(f"observed speed for road {road} must be positive")

        tracer = get_tracer()
        with tracer.span(
            "gsp.propagate",
            slot=int(params.slot),
            schedule=cfg.schedule.value,
            kernel=kernel.value,
            observed_roads=len(observed),
        ) as span:
            start = time.perf_counter()
            speeds = params.mu.astype(np.float64).copy()
            for road, value in observed.items():
                speeds[road] = float(value)
            observed_set = frozenset(int(road) for road in observed)
            if len(observed_set) == n:
                runtime = time.perf_counter() - start
                span.set_attr("sweeps", 0)
                span.set_attr("converged", True)
                self._record_metrics(cfg, kernel, 0, True, (), runtime, observed_set)
                return GSPResult(
                    speeds=speeds,
                    sweeps=0,
                    converged=True,
                    max_delta_history=(),
                    runtime_seconds=runtime,
                    schedule=cfg.schedule,
                    kernel=kernel,
                    provenance=GSPProvenance(),
                )

            if kernel is GSPKernel.VECTORIZED:
                structure_hit = structure is not None
                if structure is None:
                    structure = build_propagation_structure(
                        self._network, params.propagation_arrays(self._network)
                    )
                compiled, schedule_hit = self.schedule_for(
                    cfg.schedule, observed_set, structure
                )
                tracer.event(
                    "gsp.cache", structure_hit=structure_hit, schedule_hit=schedule_hit
                )
                speeds, sweeps, converged, history = _vectorized_sweeps(
                    structure, compiled, speeds, cfg
                )
            else:
                structure_hit = schedule_hit = False
                speeds, sweeps, converged, history = _reference_sweeps(
                    self._network, params, observed_set, speeds, cfg
                )

            runtime = time.perf_counter() - start
            span.set_attr("sweeps", sweeps)
            span.set_attr("converged", converged)
            self._record_metrics(
                cfg, kernel, sweeps, converged, history, runtime, observed_set
            )
            if not converged:
                residual = history[-1] if history else float("inf")
                if cfg.strict:
                    raise ConvergenceError(
                        f"GSP did not reach epsilon={cfg.epsilon} within "
                        f"{cfg.max_sweeps} sweeps (last delta {residual:.4g})"
                    )
                warnings.warn(
                    f"GSP stopped at the max_sweeps={cfg.max_sweeps} cap without "
                    f"reaching epsilon={cfg.epsilon} (residual {residual:.4g}); "
                    f"returning the last iterate",
                    ConvergenceWarning,
                    stacklevel=3,
                )
            return GSPResult(
                speeds=speeds,
                sweeps=sweeps,
                converged=converged,
                max_delta_history=tuple(history),
                runtime_seconds=runtime,
                schedule=cfg.schedule,
                kernel=kernel,
                provenance=GSPProvenance(
                    structure_cache_hit=structure_hit,
                    schedule_cache_hit=schedule_hit,
                ),
            )

    def _record_metrics(
        self,
        cfg: GSPConfig,
        kernel: GSPKernel,
        sweeps: int,
        converged: bool,
        history: Sequence[float],
        runtime: float,
        observed_set: frozenset,
    ) -> None:
        """Publish one propagation's counters (no-op while disabled)."""
        metrics = get_metrics()
        if not metrics.enabled:
            return
        labels = {"schedule": cfg.schedule.value, "kernel": kernel.value}
        metrics.counter("gsp.propagations", labels).inc()
        metrics.histogram("gsp.sweeps", DEFAULT_ITERATION_BUCKETS, labels).observe(sweeps)
        metrics.histogram("gsp.runtime_seconds", DEFAULT_TIME_BUCKETS, labels).observe(
            runtime
        )
        metrics.counter("gsp.clamped_roads").inc(len(observed_set))
        metrics.gauge("gsp.last_max_delta").set(history[-1] if history else 0.0)
        if not converged:
            metrics.counter("gsp.convergence.failures", labels).inc()

    def propagate_batch(
        self,
        items: Sequence[Tuple[RTFSlot, Mapping[int, float]]],
        config: Optional[GSPConfig] = None,
        *,
        structures: Optional[Sequence[Optional[PropagationStructure]]] = None,
    ) -> List[GSPResult]:
        """Answer several time slots in one call.

        Each item is a ``(slot parameters, observed speeds)`` pair; the
        schedule compilation is shared across items whose observed sets
        coincide.

        Args:
            items: Per-slot propagation inputs.
            config: Solver knobs applied to every item.
            structures: Optional per-item compiled structures, aligned
                with ``items`` (``None`` entries compile their own; see
                :meth:`propagate`).

        Returns:
            One :class:`GSPResult` per item, in input order.
        """
        compiled = structures if structures is not None else [None] * len(items)
        if len(compiled) != len(items):
            raise ModelError(
                f"structures length {len(compiled)} does not match {len(items)} items"
            )
        return [
            self.propagate(params, observed, config, structure=structure)
            for (params, observed), structure in zip(items, compiled)
        ]


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------


def _vectorized_sweeps(
    structure: PropagationStructure,
    compiled: CompiledSchedule,
    speeds: np.ndarray,
    cfg: GSPConfig,
) -> Tuple[np.ndarray, int, bool, List[float]]:
    """Fused group updates until ε-convergence (Eq. 18, whole groups)."""
    # Gather the per-group parameter slices once per call; only the
    # neighbour-value gather remains inside the sweep loop.
    prepared = []
    for group in compiled.groups:
        prepared.append(
            (
                group.nodes,
                structure.indices[group.flat],
                structure.weights[group.flat],
                group.owner,
                structure.const_pull[group.nodes],
                structure.denom[group.nodes],
                group.nodes.size,
            )
        )
    tracer = get_tracer()
    trace_sweeps = tracer.enabled  # one bool check per sweep when disabled
    history: List[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps = sweep
        max_delta = 0.0
        for nodes, gather, weights, owner, const_pull, denom, size in prepared:
            contrib = np.bincount(owner, weights=weights * speeds[gather], minlength=size)
            new = (const_pull + contrib) / denom
            if size:
                delta = float(np.max(np.abs(new - speeds[nodes])))
                if delta > max_delta:
                    max_delta = delta
                speeds[nodes] = new
        history.append(max_delta)
        if trace_sweeps:
            tracer.event("gsp.sweep", sweep=sweep, max_delta=max_delta)
        if max_delta < cfg.epsilon:
            converged = True
            break
    return speeds, sweeps, converged, history


def _build_update_structure(
    network: TrafficNetwork, params: RTFSlot
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Precompute, per road, its neighbour arrays and edge precisions.

    Returns ``(prior_precision, prior_pull, neighbor_idx, edge_weight)``
    where for road i the Eq. 18 update is::

        v_i = (prior_pull[i] + Σ_k edge_weight[i][k] * (v[neighbor_idx[i][k]] + mu_ij))
              / (prior_precision[i] + Σ_k edge_weight[i][k])

    The ``mu_ij`` pull is folded into a constant, so the loop only
    gathers neighbour values.  This is the reference kernel's builder;
    it deliberately goes through the per-node ``neighbors``/``edge_id``
    API rather than the CSR export, so the two kernels compute their
    precisions through independent code paths.
    """
    n = network.n_roads
    sigma2 = params.sigma * params.sigma
    prior_precision = 1.0 / sigma2
    prior_pull = params.mu / sigma2
    edge_var = params.edge_variance(network)
    neighbor_idx: List[np.ndarray] = []
    edge_weight: List[np.ndarray] = []
    for i in range(n):
        neigh = np.array(network.neighbors(i), dtype=int)
        if neigh.size:
            weights = np.array(
                [1.0 / edge_var[network.edge_id(i, int(j))] for j in neigh]
            )
        else:
            weights = np.zeros(0)
        neighbor_idx.append(neigh)
        edge_weight.append(weights)
    return prior_precision, prior_pull, neighbor_idx, edge_weight


def _reference_sweeps(
    network: TrafficNetwork,
    params: RTFSlot,
    observed_set: frozenset,
    speeds: np.ndarray,
    cfg: GSPConfig,
) -> Tuple[np.ndarray, int, bool, List[float]]:
    """The per-node Alg. 5 loop — the oracle the fast path is tested against."""
    prior_precision, prior_pull, neighbor_idx, edge_weight = _build_update_structure(
        network, params
    )
    mu = params.mu
    layers = network.bfs_layers(sorted(observed_set))

    def updated_value(i: int, values: np.ndarray) -> float:
        neigh = neighbor_idx[i]
        if neigh.size:
            w = edge_weight[i]
            # mu_ij = mu_i - mu_j folded in: neighbour j contributes
            # (v_j + mu_i - mu_j) * w_ij.
            pull = prior_pull[i] + float(np.dot(w, values[neigh] + mu[i] - mu[neigh]))
            precision = prior_precision[i] + float(w.sum())
        else:
            pull = prior_pull[i]
            precision = prior_precision[i]
        return pull / precision

    tracer = get_tracer()
    trace_sweeps = tracer.enabled
    history: List[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps = sweep
        max_delta = 0.0
        if cfg.schedule is GSPSchedule.BFS_PARALLEL:
            for layer in layers:
                # Jacobi within the layer: all reads before any write.
                new_values = [updated_value(i, speeds) for i in layer]
                for i, value in zip(layer, new_values):
                    max_delta = max(max_delta, abs(value - speeds[i]))
                    speeds[i] = value
        else:
            for layer in layers:
                for i in layer:
                    value = updated_value(i, speeds)
                    max_delta = max(max_delta, abs(value - speeds[i]))
                    speeds[i] = value
        history.append(max_delta)
        if trace_sweeps:
            tracer.event("gsp.sweep", sweep=sweep, max_delta=max_delta)
        if max_delta < cfg.epsilon:
            converged = True
            break
    return speeds, sweeps, converged, history


# ----------------------------------------------------------------------
# Module-level facade
# ----------------------------------------------------------------------


def propagate(
    network: TrafficNetwork,
    params: RTFSlot,
    observed: Mapping[int, float],
    config: Optional[GSPConfig] = None,
) -> GSPResult:
    """Run GSP (Alg. 5).

    Stateless facade: each call runs on a fresh :class:`GSPEngine`, so it
    compiles its structure and schedule and keeps neither.

    Args:
        network: Road graph.
        params: RTF parameters of the query slot.
        observed: Probed speeds keyed by road index (the crowdsourced
            data ``V̂_{R^c}``); these roads stay clamped.
        config: Solver knobs.

    Returns:
        A :class:`GSPResult` with the inferred full speed field.

    Raises:
        ModelError: On index/shape problems.
        ConvergenceError: In ``strict`` mode when ε is not reached.
    """
    return GSPEngine(network).propagate(params, observed, config)
