"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The :class:`MetricsRegistry` is the single store the instrumented hot
paths write into.  Design constraints (set by the online loop):

* **Zero hard dependencies** — stdlib only.
* **No-op cheap when disabled** — a disabled registry hands out shared
  no-op instruments without touching any dict or lock, so the cost of an
  instrumentation site is one attribute check and a branch.
* **Thread-safe** — one registry lock guards both series registration
  and value updates (updates are tiny; contention is negligible next to
  the numpy work they measure).
* **Labeled series** — a metric name plus a small label mapping, e.g.
  ``gsp.sweeps{schedule="bfs-parallel"}``.  Cardinality is bounded per
  metric name (:attr:`MetricsRegistry.max_series_per_metric`) so a bug
  cannot grow the registry without bound.

Histograms use *fixed* bucket edges chosen at first registration;
observations are recorded per-bucket (``value <= edge`` picks the first
matching edge, Prometheus ``le`` semantics) and cumulated only at
snapshot/export time.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union, cast

from repro.errors import ObservabilityError

#: ``(key, value)`` pairs, sorted by key — the canonical series key.
LabelItems = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")
_LABEL_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default latency buckets (seconds) — sub-ms to tens of seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default iteration-count buckets — matches the solvers' sweep caps.
DEFAULT_ITERATION_BUCKETS: Tuple[float, ...] = (
    1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 200, 500,
)

#: Default size buckets (selection sizes, road counts, ...).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)


def bucket_quantile(
    edges: Sequence[float], counts: Sequence[float], q: float
) -> float:
    """Estimate the ``q``-quantile (``q`` in [0, 1]) of a fixed-bucket histogram.

    The shared interpolation used by :meth:`Histogram.quantile`, the SLO
    engine's windowed percentiles, and the serving layer's
    ``ReplayReport``:

    * the target rank ``q * total`` is located in the cumulative counts;
    * within the containing finite bucket the value is linearly
      interpolated between the bucket's lower and upper edge (the first
      bucket's lower edge is 0 for non-negative histograms, Prometheus
      ``histogram_quantile`` convention);
    * observations in the implicit +Inf bucket collapse to the last
      finite edge (the estimate cannot exceed what the buckets resolve);
    * an empty histogram yields ``nan``.

    ``counts`` are per-bucket (non-cumulative); a trailing +Inf entry
    beyond ``len(edges)`` is accepted and optional.
    """
    total = float(sum(counts))
    if total <= 0 or not edges:
        return float("nan")
    q = min(1.0, max(0.0, float(q)))
    rank = q * total
    cumulative = 0.0
    last = len(counts) - 1
    for index, count in enumerate(counts):
        if count <= 0:
            continue
        next_cumulative = cumulative + float(count)
        if rank <= next_cumulative or index == last:
            if index >= len(edges):  # +Inf bucket
                return float(edges[-1])
            hi = float(edges[index])
            lo = min(0.0, hi) if index == 0 else float(edges[index - 1])
            fraction = (rank - cumulative) / float(count)
            fraction = min(1.0, max(0.0, fraction))
            return lo + fraction * (hi - lo)
        cumulative = next_cumulative
    return float(edges[-1])  # pragma: no cover - loop always returns


def _canonical_labels(labels: Optional[Mapping[str, object]]) -> LabelItems:
    """Validate and canonicalize a label mapping into a sorted tuple."""
    if not labels:
        return ()
    items: List[Tuple[str, str]] = []
    for key in sorted(labels):
        if not _LABEL_KEY_RE.match(key):
            raise ObservabilityError(
                f"invalid label key {key!r} (want [a-z][a-z0-9_]*)"
            )
        items.append((key, str(labels[key])))
    return tuple(items)


class _NoopInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def dec(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def quantile(self, q: float) -> float:
        """Disabled histograms estimate every quantile as zero."""
        return 0.0

    @property
    def value(self) -> float:
        """Disabled instruments always read as zero."""
        return 0.0


_NOOP = _NoopInstrument()


class Counter:
    """Monotonically increasing value (events, units spent, ...)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems, lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def _reset(self) -> None:
        # Under the shared registry lock (reentrant): a reset racing a
        # concurrent inc() must not tear the read-modify-write.
        with self._lock:
            self._value = 0.0


class Gauge:
    """Last-write-wins value (budget remaining, last residual, ...)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems, lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge down by ``amount`` (queue depths, live spans)."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket distribution (latencies, sweep counts, sizes).

    ``edges`` are the upper bounds of the finite buckets; an implicit
    ``+Inf`` bucket catches everything above the last edge.  Counts are
    stored per bucket and cumulated at export.
    """

    __slots__ = ("name", "labels", "edges", "_lock", "_bucket_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        edges: Sequence[float],
        lock: threading.RLock,
    ) -> None:
        self.name = name
        self.labels = labels
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self._lock = lock
        self._bucket_counts = [0] * (len(self.edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last entry is +Inf."""
        return tuple(self._bucket_counts)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) via bucket interpolation.

        Delegates to :func:`bucket_quantile` over a consistent copy of
        the bucket counts; ``nan`` while the histogram is empty.
        """
        with self._lock:
            counts = tuple(self._bucket_counts)
        return bucket_quantile(self.edges, counts, q)

    def _reset(self) -> None:
        # Locked so count == sum(bucket_counts) stays invariant under a
        # reset racing concurrent observe() calls.
        with self._lock:
            self._bucket_counts = [0] * (len(self.edges) + 1)
            self._sum = 0.0
            self._count = 0


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Registry of labeled counters, gauges, and histograms.

    Instruments are created on first use (``registry.counter(name,
    labels)``) and persist until :meth:`reset` zeroes them; held handles
    stay live across resets.  While the registry is *disabled*, the
    accessors return a shared no-op instrument without registering
    anything, so instrumentation sites cost one branch.

    Args:
        enabled: Initial enabled state.
        max_series_per_metric: Cap on distinct label sets per metric
            name; exceeding it raises :class:`ObservabilityError`.
    """

    def __init__(self, enabled: bool = True, max_series_per_metric: int = 256) -> None:
        if max_series_per_metric <= 0:
            raise ObservabilityError("max_series_per_metric must be positive")
        self._enabled = bool(enabled)
        self.max_series_per_metric = max_series_per_metric
        self._lock = threading.RLock()
        self._series: Dict[str, Dict[LabelItems, Instrument]] = {}
        self._kinds: Dict[str, str] = {}
        self._edges: Dict[str, Tuple[float, ...]] = {}

    # -- enabling -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether updates are recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (accessors return no-op instruments)."""
        self._enabled = False

    # -- registration ---------------------------------------------------

    def _get_or_create(
        self,
        kind: str,
        name: str,
        labels: Optional[Mapping[str, object]],
        factory: Callable[[LabelItems], Instrument],
    ) -> Instrument:
        if not _NAME_RE.match(name):
            raise ObservabilityError(
                f"invalid metric name {name!r} (want [a-z][a-z0-9_.]*)"
            )
        key = _canonical_labels(labels)
        with self._lock:
            known_kind = self._kinds.get(name)
            if known_kind is None:
                self._kinds[name] = kind
                self._series[name] = {}
            elif known_kind != kind:
                raise ObservabilityError(
                    f"metric {name!r} is a {known_kind}, not a {kind}"
                )
            family = self._series[name]
            instrument = family.get(key)
            if instrument is None:
                if len(family) >= self.max_series_per_metric:
                    raise ObservabilityError(
                        f"metric {name!r} exceeds {self.max_series_per_metric} "
                        f"label sets — label values are too high-cardinality"
                    )
                instrument = factory(key)
                family[key] = instrument
            return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        """Get or create a counter series."""
        if not self._enabled:
            return _NOOP  # type: ignore[return-value]
        return cast(
            Counter,
            self._get_or_create(
                "counter", name, labels, lambda key: Counter(name, key, self._lock)
            ),
        )

    def gauge(self, name: str, labels: Optional[Mapping[str, object]] = None) -> Gauge:
        """Get or create a gauge series."""
        if not self._enabled:
            return _NOOP  # type: ignore[return-value]
        return cast(
            Gauge,
            self._get_or_create(
                "gauge", name, labels, lambda key: Gauge(name, key, self._lock)
            ),
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        """Get or create a histogram series.

        The bucket edges are fixed by the *first* registration of the
        name; later calls must pass the same edges (or rely on the
        recorded ones implicitly — a mismatch raises).
        """
        if not self._enabled:
            return _NOOP  # type: ignore[return-value]
        edges = tuple(float(e) for e in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        with self._lock:
            known = self._edges.get(name)
            if known is None:
                self._edges[name] = edges
            elif known != edges:
                raise ObservabilityError(
                    f"histogram {name!r} already registered with buckets "
                    f"{known}, got {edges}"
                )
        return cast(
            Histogram,
            self._get_or_create(
                "histogram",
                name,
                labels,
                lambda key: Histogram(name, key, edges, self._lock),
            ),
        )

    # -- reading --------------------------------------------------------

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """A JSON-able copy of every series, deterministically ordered.

        Returns a dict with ``counters``, ``gauges`` and ``histograms``
        lists; histogram entries carry non-cumulative ``counts`` (last
        entry is the +Inf bucket) plus ``sum``/``count``.
        """
        counters: List[Dict[str, object]] = []
        gauges: List[Dict[str, object]] = []
        histograms: List[Dict[str, object]] = []
        with self._lock:
            for name in sorted(self._series):
                kind = self._kinds[name]
                for key in sorted(self._series[name]):
                    instrument = self._series[name][key]
                    entry: Dict[str, object] = {
                        "name": name,
                        "labels": dict(key),
                    }
                    if isinstance(instrument, Histogram):
                        entry["buckets"] = list(instrument.edges)
                        entry["counts"] = list(instrument.bucket_counts())
                        entry["sum"] = instrument.sum
                        entry["count"] = instrument.count
                        histograms.append(entry)
                    elif kind == "counter":
                        entry["value"] = instrument.value
                        counters.append(entry)
                    else:
                        entry["value"] = instrument.value
                        gauges.append(entry)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Zero every series in place (held handles stay live)."""
        with self._lock:
            for family in self._series.values():
                for instrument in family.values():
                    instrument._reset()

    def clear(self) -> None:
        """Drop every series and registration (mainly for tests)."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()
            self._edges.clear()
