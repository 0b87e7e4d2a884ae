"""Road–road correlation Γ_R (paper §V-A, Eq. 7–10).

* adjacent roads: the RTF edge weight ``rho_ij`` (Eq. 7);
* non-adjacent roads: the maximal cumulative product of edge weights
  along any joining path (Eq. 8).

The road–set and set–set correlations of Eq. 11–13 are not tabled here:
:meth:`repro.core.ocs.OCSInstance.objective` is the Eq. 13 OCS runs.

Path transform.  The paper (Eq. 9) claims the product-maximizing path is
the shortest path under reciprocal weights ``1/rho``.  That is not
exactly true (``argmin Σ 1/rho ≠ argmax Π rho`` in general); the exact
reduction, used here, runs Dijkstra on weights ``-log rho``.  The
paper-literal variant lives only in the path-weight ablation
(:mod:`repro.experiments.ablations`), which measures the gap.

The snapshot derives and caches Γ_R per slot digest
(:meth:`repro.core.store.ModelSnapshot.correlation_matrix`, all pairs
from one multi-source :func:`scipy.sparse.csgraph.dijkstra`).  Serving
reads it through :class:`CorrelationRows`, which runs Dijkstra only from
the sources a query reads (:func:`road_road_correlation_rows`) and
answers OCS's θ-redundancy test (Eq. 15) from one radius-bounded search
per θ.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from repro.errors import ModelError
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


def _path_graph(network: TrafficNetwork, rho: np.ndarray) -> sp.csr_matrix:
    """Validated ``-log rho`` search graph of Eq. 8 for one slot's ``rho``.

    The shortest path on ``-log rho`` is the path of maximal ``rho``
    product.  Edges with ``rho`` of (nearly) zero are dropped: they kill
    any product.

    Raises:
        ModelError: When ``rho`` is misshapen or has an entry outside
            ``[0, 1]`` (NaN included).
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (network.n_edges,):
        raise ModelError(
            f"rho must have shape ({network.n_edges},), got {rho.shape}"
        )
    # Written so NaN fails it: every comparison with NaN is False.
    if not np.all((rho >= 0) & (rho <= 1)):
        raise ModelError("rho entries must be finite and lie in [0, 1]")
    usable = rho > _RHO_EPS
    weights = -np.log(np.where(usable, rho, 1.0))
    # scipy treats 0-weight entries as absent in sparse graphs, so nudge
    # exact rho == 1 edges to a tiny positive weight.
    weights = np.where(weights <= 0, 1e-15, weights)
    return _edge_graph(network, weights, usable)


def _graph_rows(graph: sp.csr_matrix, sources: np.ndarray) -> np.ndarray:
    """Γ_R rows sourced at ``sources`` from one batched Dijkstra."""
    n = graph.shape[0]
    if sources.size == 0:
        return np.zeros((0, n))
    dist = dijkstra(graph, directed=False, indices=sources)
    corr = np.exp(-dist)
    corr[np.isinf(dist)] = 0.0
    corr[np.arange(sources.size), sources] = 1.0
    return corr


def _redundancy_set(graph: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """Directed road pairs ``(a, b)`` with ``Γ_R[a, b] > θ + slack``.

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

    Returns:
        ``(len(sources), n)`` array; entry ``(k, j)`` is the maximal path
        product of edge correlations from ``sources[k]`` to ``j`` (1.0 at
        the source itself, 0.0 when no path of positive-correlation edges
        exists).
    """
    return _graph_rows(
        _path_graph(network, rho), _source_array(sources, network.n_roads)
    )


def road_road_correlation_matrix(
    network: TrafficNetwork, rho: np.ndarray
) -> np.ndarray:
    """All-pairs road–road correlation (Eq. 7–10) for one slot.

    Args:
        network: Road graph.
        rho: Per-edge correlations aligned with ``network.edges``.

    Returns:
        Symmetric ``(n, n)`` matrix with unit diagonal; entry ``(i, j)``
        is the maximal path product of edge correlations (0.0 when no
        path of positive-correlation edges exists).
    """
    return road_road_correlation_rows(network, rho, np.arange(network.n_roads))


class CorrelationRows:
    """Γ_R of one slot, derived one source row at a time.

    OCS reads values only from rows sourced at ``R^q``, so this view
    runs Dijkstra from those sources alone instead of all ``n``.  Rows
    are memoized per source under the view's lock; one :meth:`rows` call
    derives all of its missing sources in one batched Dijkstra.  The
    θ-redundancy test of the roads OCS selects goes through
    :meth:`redundant`, which reads one redundancy set per θ (the pairs
    with ``Γ_R > θ + REDUNDANCY_SLACK``, from one radius-bounded search,
    memoized for the last :data:`_REDUNDANCY_THETAS` θ values) instead
    of a row per selected road.  When ``dense`` returns the slot's full
    matrix, rows and redundancy tests are read from it and nothing is
    derived.

    Indexing answers the forms the OCS solvers use on a dense Γ_R —
    ``[np.ix_(q, c)]``, ``[road, c]``, ``[q, road]``, ``[a, b]`` — with
    the same values, dtype and (C-contiguous) layout.  Every entry comes
    from the row sourced at its *first* index: ``d(a, b)`` and
    ``d(b, a)`` sum their path in different orders, so symmetry is never
    used.

    Args:
        network: Road graph.
        rho: The slot's per-edge correlations.
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
        dense: Optional[Callable[[], Optional[np.ndarray]]] = None,
        on_derive: Optional[Callable[[int], None]] = None,
        on_redundancy: Optional[Callable[[], None]] = None,
    ) -> None:
        n = network.n_roads
        self.shape: Tuple[int, int] = (n, n)
        self._network = network
        self._rho = rho
        # Built on the first derivation: a view that only ever reads a
        # cached dense matrix never pays for it.
        self._graph: Optional[sp.csr_matrix] = None
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
        dense matrix.  Reads the memoized redundancy set of ``θ``,
        derived on first use (single-flight under the view's lock).

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
        pairs = self._memo_redundancy(float(theta))
        mask = np.zeros(self.shape[1], dtype=bool)
        mask[pairs.indices[pairs.indptr[source]:pairs.indptr[source + 1]]] = True
        return mask[targets]

    def _memo_redundancy(self, theta: float) -> sp.csr_matrix:
        """The memoized redundancy set of ``theta``, deriving it on a miss."""
        with self._lock:
            pairs = self._redundancy.get(theta)
            if pairs is None:
                pairs = _redundancy_set(self._path_graph(), theta)
                self._redundancy[theta] = pairs
                if len(self._redundancy) > _REDUNDANCY_THETAS:
                    self._redundancy.popitem(last=False)
                if self._on_redundancy is not None:
                    self._on_redundancy()
            else:
                self._redundancy.move_to_end(theta)
            return pairs

    def _path_graph(self) -> sp.csr_matrix:
        """The slot's search graph, built on first use (caller holds the lock)."""
        if self._graph is None:
            self._graph = _path_graph(self._network, self._rho)
        return self._graph

    def _memo_rows(self, order: List[int]) -> List[np.ndarray]:
        """The memoized rows of ``order``, deriving the missing ones."""
        with self._lock:
            missing = [s for s in dict.fromkeys(order) if s not in self._rows]
            if missing:
                derived = _graph_rows(
                    self._path_graph(), np.array(missing, dtype=np.intp)
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
