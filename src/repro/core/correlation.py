"""Road correlations (paper §V-A, Eq. 7–13).

* road–road, adjacent: the RTF edge weight ``rho_ij`` (Eq. 7);
* road–road, non-adjacent: the maximal cumulative product of edge
  weights along any joining path (Eq. 8);
* road–set: the max road–road correlation into the set (Eq. 11);
* set–set: the sum of road–set correlations over the queried roads
  (Eq. 12);
* periodicity-weighted: Eq. 13, the OCS objective.

Path transform.  The paper (Eq. 9) claims the product-maximizing path is
the shortest path under reciprocal weights ``1/rho``.  That is not
exactly true (``argmin Σ 1/rho ≠ argmax Π rho`` in general); the exact
reduction uses weights ``-log rho``.  Both are implemented
(:class:`PathWeightMode`); ``LOG`` is the default and ``RECIPROCAL``
reproduces the paper literally — the ablation bench quantifies the gap.

The all-pairs table ``Γ_R`` is computed offline with multi-source
Dijkstra (:func:`scipy.sparse.csgraph.dijkstra`) and cached per slot.
Serving reads it through :class:`CorrelationRows`, which runs Dijkstra
only from the sources a query reads (:func:`road_road_correlation_rows`)
and answers OCS's θ-redundancy test (Eq. 15) from one radius-bounded
search per θ.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.errors import ModelError
from repro.core.rtf import RTFModel, params_signature
from repro.network.graph import TrafficNetwork

#: Correlations below this are treated as zero (no usable path).
_RHO_EPS = 1e-12

#: Rounding slack of the θ-redundancy test: a pair of roads is redundant
#: (Eq. 15) when ``Γ_R[a, b] > θ + REDUNDANCY_SLACK``.
REDUNDANCY_SLACK = 1e-12

#: Distance entries one bounded Dijkstra batch may hold (``chunk · n``),
#: so deriving a redundancy set never needs ``n²`` memory.
_REDUNDANCY_CHUNK_ENTRIES = 1 << 21

#: θ values whose redundancy set one :class:`CorrelationRows` view keeps.
_REDUNDANCY_THETAS = 4


class PathWeightMode(str, enum.Enum):
    """Edge-weight transform used for the path search of Eq. 8/9."""

    #: Exact: weights ``-log rho``; shortest path maximizes the product.
    LOG = "log"
    #: Paper-literal: weights ``1/rho`` (Eq. 9); the product is then
    #: evaluated along the path that minimizes the reciprocal sum.
    RECIPROCAL = "reciprocal"


def _edge_graph(
    network: TrafficNetwork, weights: np.ndarray, keep: np.ndarray
) -> sp.csr_matrix:
    """Symmetric sparse graph over the edges where ``keep`` is True."""
    n = network.n_roads
    if not network.edges or not keep.any():
        return sp.csr_matrix((n, n))
    edge_array = np.array(network.edges)[keep]
    ei, ej = edge_array.T
    kept_weights = weights[keep]
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([ej, ei])
    vals = np.concatenate([kept_weights, kept_weights])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _path_graph(
    network: TrafficNetwork, rho: np.ndarray, mode: PathWeightMode
) -> Tuple[sp.csr_matrix, Optional[Dict[Tuple[int, int], float]]]:
    """Validated path-search graph of Eq. 8/9 for one slot's ``rho``.

    Returns the sparse graph Dijkstra runs on and, in ``RECIPROCAL``
    mode, the per-directed-edge ``log rho`` the predecessor walk sums.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (network.n_edges,):
        raise ModelError(
            f"rho must have shape ({network.n_edges},), got {rho.shape}"
        )
    if np.any((rho < 0) | (rho > 1)):
        raise ModelError("rho entries must lie in [0, 1]")
    usable = rho > _RHO_EPS
    if mode is PathWeightMode.LOG:
        # Shortest path on -log(rho) == max product of rho.  Zero-rho
        # edges are dropped entirely (they kill any product).
        safe = np.where(usable, rho, 1.0)
        weights = -np.log(safe)
        # scipy treats 0-weight entries as absent in sparse graphs, so
        # nudge exact rho == 1 edges to a tiny positive weight.
        weights = np.where(weights <= 0, 1e-15, weights)
        return _edge_graph(network, weights, usable), None
    if mode is PathWeightMode.RECIPROCAL:
        weights = 1.0 / np.maximum(rho, _RHO_EPS)
        log_rho_by_pair: Dict[Tuple[int, int], float] = {}
        for e, (i, j) in enumerate(network.edges):
            if usable[e]:
                log_rho_by_pair[(i, j)] = float(np.log(rho[e]))
                log_rho_by_pair[(j, i)] = float(np.log(rho[e]))
        return _edge_graph(network, weights, usable), log_rho_by_pair
    raise ModelError(f"unknown path-weight mode {mode!r}")  # pragma: no cover


def _graph_rows(
    graph: sp.csr_matrix,
    log_rho_by_pair: Optional[Dict[Tuple[int, int], float]],
    sources: np.ndarray,
) -> np.ndarray:
    """Γ_R rows sourced at ``sources`` from one batched Dijkstra."""
    n = graph.shape[0]
    if sources.size == 0:
        return np.zeros((0, n))
    if log_rho_by_pair is None:
        dist = dijkstra(graph, directed=False, indices=sources)
        corr = np.exp(-dist)
        corr[np.isinf(dist)] = 0.0
        corr[np.arange(sources.size), sources] = 1.0
        return corr
    dist, predecessors = dijkstra(
        graph, directed=False, indices=sources, return_predecessors=True
    )
    corr = np.zeros((sources.size, n))
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
    corr[np.arange(sources.size), sources] = 1.0
    return corr


def _redundancy_set(graph: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """Directed road pairs ``(a, b)`` with ``Γ_R[a, b] > θ + slack`` (LOG mode).

    ``exp(-d) > θ`` means a ``-log ρ`` path length ``d < -log θ``, so one
    Dijkstra bounded by that radius from every source finds every pair,
    and it may run on the edges of weight ``≤ -log θ`` alone: no path
    inside the radius uses a longer edge.  Distances inside the radius
    are the unbounded search's, bit for bit, so each pair's value — and
    the test on it — equals the dense matrix's.  Sources run in chunks of
    :data:`_REDUNDANCY_CHUNK_ENTRIES` distance entries.

    Returns:
        Boolean ``(n, n)`` CSR matrix whose row ``a`` holds the roads
        redundant with ``a`` (``a`` itself too when ``1 > θ + slack``).
    """
    n = graph.shape[0]
    radius = -np.log(theta)
    near = graph.copy()
    near.data[near.data > radius] = 0.0
    near.eliminate_zeros()
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    chunk = max(1, _REDUNDANCY_CHUNK_ENTRIES // n)
    for start in range(0, n, chunk):
        sources = np.arange(start, min(start + chunk, n))
        dist = dijkstra(near, directed=False, indices=sources, limit=radius).ravel()
        # Only entries inside the radius can pass (the rest are inf).
        flat = np.flatnonzero(dist <= radius)
        flat = flat[np.exp(-dist[flat]) > theta + REDUNDANCY_SLACK]
        rows.append(start + flat // n)
        cols.append(flat % n)
    row, col = np.concatenate(rows), np.concatenate(cols)
    return sp.csr_matrix((np.ones(row.size, dtype=bool), (row, col)), shape=(n, n))


def _source_array(sources: Sequence[int], n: int) -> np.ndarray:
    idx = np.asarray(sources, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"source roads must lie in [0, {n}), got {sources!r}")
    return idx


def road_road_correlation_rows(
    network: TrafficNetwork,
    rho: np.ndarray,
    sources: Sequence[int],
    mode: PathWeightMode = PathWeightMode.LOG,
) -> np.ndarray:
    """Rows of the road–road correlation Γ_R (Eq. 7–10) for some sources.

    One batched Dijkstra from ``sources`` only; row ``k`` is
    bit-identical to row ``sources[k]`` of
    :func:`road_road_correlation_matrix`, which is this function over
    every road.

    Args:
        network: Road graph.
        rho: Per-edge correlations aligned with ``network.edges``.
        sources: Source road indices (duplicates allowed).
        mode: Path-weight transform; see :class:`PathWeightMode`.

    Returns:
        ``(len(sources), n)`` array; entry ``(k, j)`` is the maximal path
        product of edge correlations from ``sources[k]`` to ``j`` (1.0 at
        the source itself, 0.0 when no path of positive-correlation edges
        exists).
    """
    graph, log_rho_by_pair = _path_graph(network, rho, mode)
    return _graph_rows(
        graph, log_rho_by_pair, _source_array(sources, network.n_roads)
    )


def road_road_correlation_matrix(
    network: TrafficNetwork,
    rho: np.ndarray,
    mode: PathWeightMode = PathWeightMode.LOG,
) -> np.ndarray:
    """All-pairs road–road correlation (Eq. 7–10) for one slot.

    Args:
        network: Road graph.
        rho: Per-edge correlations aligned with ``network.edges``.
        mode: Path-weight transform; see :class:`PathWeightMode`.

    Returns:
        Symmetric ``(n, n)`` matrix with unit diagonal; entry ``(i, j)``
        is the maximal path product of edge correlations (0.0 when no
        path of positive-correlation edges exists).
    """
    return road_road_correlation_rows(
        network, rho, np.arange(network.n_roads), mode
    )


class CorrelationRows:
    """Γ_R of one slot, derived one source row at a time.

    OCS reads values only from rows sourced at ``R^q``, so this view
    runs Dijkstra from those sources alone instead of all ``n``.  Rows
    are memoized per source under the view's lock; one :meth:`rows` call
    derives all of its missing sources in one batched Dijkstra.  The
    θ-redundancy test of the roads OCS selects goes through
    :meth:`redundant`, which in ``LOG`` mode reads one redundancy set per
    θ (the pairs with ``Γ_R > θ + REDUNDANCY_SLACK``, from one
    radius-bounded search, memoized for the last
    :data:`_REDUNDANCY_THETAS` θ values) instead of a row per selected
    road.  When ``dense`` returns the slot's full matrix, rows and
    redundancy tests are read from it and nothing is derived.

    Indexing answers the forms the OCS solvers use on a dense Γ_R —
    ``[np.ix_(q, c)]``, ``[road, c]``, ``[q, road]``, ``[a, b]`` — with
    the same values, dtype and (C-contiguous) layout.  Every entry comes
    from the row sourced at its *first* index: ``d(a, b)`` and
    ``d(b, a)`` sum their path in different orders, so symmetry is never
    used.

    Args:
        network: Road graph.
        rho: The slot's per-edge correlations.
        mode: Path-weight transform.
        dense: Returns the slot's dense Γ_R when one is at hand, else
            ``None``; asked on every :meth:`rows` and :meth:`redundant`
            call.
        on_derive: Called with the number of rows each derivation made.
        on_redundancy: Called once per redundancy set derived.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        rho: np.ndarray,
        mode: PathWeightMode = PathWeightMode.LOG,
        dense: Optional[Callable[[], Optional[np.ndarray]]] = None,
        on_derive: Optional[Callable[[int], None]] = None,
        on_redundancy: Optional[Callable[[], None]] = None,
    ) -> None:
        n = network.n_roads
        self.shape: Tuple[int, int] = (n, n)
        self._network = network
        self._rho = rho
        self._mode = mode
        # Built on the first derivation: a view that only ever reads a
        # cached dense matrix never pays for it.
        self._graph: Optional[
            Tuple[sp.csr_matrix, Optional[Dict[Tuple[int, int], float]]]
        ] = None
        self._dense = dense
        self._on_derive = on_derive
        self._on_redundancy = on_redundancy
        self._rows: Dict[int, np.ndarray] = {}
        self._redundancy: "OrderedDict[float, sp.csr_matrix]" = OrderedDict()
        self._lock = threading.Lock()

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """``(len(sources), n)`` C-contiguous rows, in the order given."""
        idx = _source_array(sources, self.shape[0])
        dense = self._dense_matrix()
        if dense is not None:
            return dense[idx]
        if idx.size == 0:
            return np.zeros((0, self.shape[1]))
        return np.stack(self._memo_rows(idx.tolist()))

    def redundant(self, source: int, targets, theta: float) -> np.ndarray:
        """Eq. 15's redundancy test: ``Γ_R[source, targets] > θ + slack``.

        Boolean array shaped like ``targets``, equal to the test on the
        dense matrix.  ``LOG`` mode reads the memoized redundancy set of
        ``θ``, derived on first use (single-flight under the view's
        lock).  ``RECIPROCAL`` mode has no radius bound, so it tests the
        memoized row sourced at ``source``.

        Raises:
            IndexError: When ``source`` is not a road.
            ModelError: When ``theta`` is outside ``(0, 1]``.
        """
        if not 0 <= source < self.shape[0]:
            raise IndexError(f"source road {source} outside [0, {self.shape[0]})")
        if not 0.0 < theta <= 1.0:
            raise ModelError(f"theta must be in (0, 1], got {theta}")
        dense = self._dense_matrix()
        if dense is not None:
            return dense[source, targets] > theta + REDUNDANCY_SLACK
        if self._mode is not PathWeightMode.LOG:
            return self[source, targets] > theta + REDUNDANCY_SLACK
        pairs = self._memo_redundancy(float(theta))
        mask = np.zeros(self.shape[1], dtype=bool)
        mask[pairs.indices[pairs.indptr[source]:pairs.indptr[source + 1]]] = True
        return mask[targets]

    def _memo_redundancy(self, theta: float) -> sp.csr_matrix:
        """The memoized redundancy set of ``theta``, deriving it on a miss."""
        with self._lock:
            pairs = self._redundancy.get(theta)
            if pairs is None:
                pairs = _redundancy_set(self._path_graph()[0], theta)
                self._redundancy[theta] = pairs
                if len(self._redundancy) > _REDUNDANCY_THETAS:
                    self._redundancy.popitem(last=False)
                if self._on_redundancy is not None:
                    self._on_redundancy()
            else:
                self._redundancy.move_to_end(theta)
            return pairs

    def _path_graph(
        self,
    ) -> Tuple[sp.csr_matrix, Optional[Dict[Tuple[int, int], float]]]:
        """The slot's search graph, built on first use (caller holds the lock)."""
        if self._graph is None:
            self._graph = _path_graph(self._network, self._rho, self._mode)
        return self._graph

    def _memo_rows(self, order: List[int]) -> List[np.ndarray]:
        """The memoized rows of ``order``, deriving the missing ones."""
        with self._lock:
            missing = [s for s in dict.fromkeys(order) if s not in self._rows]
            if missing:
                derived = _graph_rows(
                    *self._path_graph(), np.array(missing, dtype=np.intp)
                )
                self._rows.update(zip(missing, derived))
                if self._on_derive is not None:
                    self._on_derive(len(missing))
            return [self._rows[s] for s in order]

    def _dense_matrix(self) -> Optional[np.ndarray]:
        return self._dense() if self._dense is not None else None

    def __getitem__(self, key):
        dense = self._dense_matrix()
        if dense is not None:
            return dense[key]
        first, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        if isinstance(first, (int, np.integer)):
            if not 0 <= first < self.shape[0]:
                raise IndexError(f"source road {first} outside [0, {self.shape[0]})")
            # A copy, so no caller can write into the memo.
            return self._memo_rows([int(first)])[0][rest].copy()
        src = np.asarray(first)
        if src.dtype.kind not in "iu":
            raise IndexError(
                "CorrelationRows takes integer source roads as its first index"
            )
        sources, inverse = np.unique(src, return_inverse=True)
        return self.rows(sources)[(inverse.reshape(src.shape),) + rest]


class CorrelationTable:
    """Precomputed all-pairs correlation table ``Γ_R`` (paper §V-A).

    Built offline from an :class:`RTFModel` (one matrix per fitted
    slot); lookups at query time are O(1) array reads.
    """

    def __init__(
        self,
        network: TrafficNetwork,
        matrices: Mapping[int, np.ndarray],
        mode: PathWeightMode = PathWeightMode.LOG,
        digests: Optional[Mapping[int, bytes]] = None,
    ) -> None:
        n = network.n_roads
        for slot, matrix in matrices.items():
            if matrix.shape != (n, n):
                raise ModelError(
                    f"slot {slot}: correlation matrix shape {matrix.shape} != ({n}, {n})"
                )
        if not matrices:
            raise ModelError("correlation table needs at least one slot")
        self._network = network
        self._matrices = dict(matrices)
        self._mode = mode
        self._digests: Dict[int, bytes] = dict(digests or {})

    @classmethod
    def precompute(
        cls,
        model: RTFModel,
        slots: Optional[Sequence[int]] = None,
        mode: PathWeightMode = PathWeightMode.LOG,
    ) -> "CorrelationTable":
        """Compute Γ_R for the given slots (default: all fitted slots).

        The table records the parameter digest of every slot it was
        derived from, so downstream consumers (``CrowdRTSE``) can detect
        a table that no longer matches its model generation.
        """
        use_slots = list(slots) if slots is not None else list(model.slots)
        matrices = {
            t: road_road_correlation_matrix(model.network, model.slot(t).rho, mode)
            for t in use_slots
        }
        digests = {t: params_signature(model.slot(t)) for t in use_slots}
        return cls(model.network, matrices, mode, digests=digests)

    @property
    def network(self) -> TrafficNetwork:
        """The road graph the table is defined on."""
        return self._network

    @property
    def mode(self) -> PathWeightMode:
        """Path-weight transform the table was built with."""
        return self._mode

    @property
    def slots(self) -> Tuple[int, ...]:
        """Covered slots, sorted."""
        return tuple(sorted(self._matrices))

    def matrix(self, slot: int) -> np.ndarray:
        """The full ``(n, n)`` correlation matrix of one slot."""
        try:
            return self._matrices[slot]
        except KeyError:
            raise ModelError(
                f"slot {slot} not in correlation table (available: {self.slots})"
            ) from None

    def digest(self, slot: int) -> Optional[bytes]:
        """Parameter digest the slot's matrix was derived from.

        ``None`` for tables built directly from matrices (no provenance
        recorded) — only :meth:`precompute` and the snapshot views fill
        this in.
        """
        return self._digests.get(slot)

    # ------------------------------------------------------------------
    # Paper Eq. 7–13
    # ------------------------------------------------------------------

    def road_road(self, slot: int, i: int, j: int) -> float:
        """Eq. 7/10: correlation between two roads."""
        return float(self.matrix(slot)[i, j])

    def road_set(self, slot: int, road: int, road_set: Sequence[int]) -> float:
        """Eq. 11: max correlation between ``road`` and a road set.

        An empty set yields 0.0 (no crowdsourced support at all).
        """
        roads = np.asarray(list(road_set), dtype=int)
        if roads.size == 0:
            return 0.0
        return float(self.matrix(slot)[road, roads].max())

    def set_set(self, slot: int, queried: Sequence[int], selected: Sequence[int]) -> float:
        """Eq. 12: summed road–set correlation of the queried roads."""
        queried = list(queried)
        return float(
            sum(self.road_set(slot, q, selected) for q in queried)
        )

    def weighted_correlation(
        self,
        slot: int,
        queried: Sequence[int],
        selected: Sequence[int],
        sigma: np.ndarray,
    ) -> float:
        """Eq. 13: periodicity-weighted correlation — the OCS objective.

        Args:
            slot: Time slot.
            queried: Queried roads ``R^q``.
            selected: Crowdsourced roads ``R^c``.
            sigma: Per-road periodicity intensities ``sigma_i^t`` for the
                *whole* network (indexed by road).
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (self._network.n_roads,):
            raise ModelError(
                f"sigma must have shape ({self._network.n_roads},), got {sigma.shape}"
            )
        return float(
            sum(
                sigma[q] * self.road_set(slot, q, selected)
                for q in queried
            )
        )
