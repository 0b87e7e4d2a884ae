"""Outside-in tracing: class-level wrappers around each layer's entry points.

The benchmark never turns on ``repro.obs``.  Instead, for a traced pass
it replaces a few public methods (and the OCS solver table) with thin
wrappers that record one :class:`Span` per call — name, start, end, the
span that caused it, and the request it belongs to — into an in-memory
:class:`Recorder`.  The spans are written out when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover; summing self time per layer attributes every traced
second to exactly one layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import pipeline
from repro.core.gsp import GSPEngine
from repro.core.store import ModelSnapshot, ModelStore
from repro.crowd.market import CrowdMarket
from repro.serve.service import QueryService, ServeTicket
from repro.stream.refresher import StreamRefresher

#: Span name prefix → the layer (module) it is charged to.
LAYER_OF = {
    "serve": "serve",
    "pipeline": "core.pipeline",
    "ocs": "core.ocs",
    "crowd": "crowd",
    "gsp": "core.gsp",
    "store": "core.store",
    "stream": "stream",
}

#: Spans that are a client *waiting*, not a layer working: dumped, but
#: never charged as self time (the work they wait on is traced in the
#: worker thread).
WAIT_SPANS = frozenset({"serve.result"})


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    parent: Optional[int]
    request: Optional[int]
    thread: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink; parents come from a per-thread span stack.

    Args:
        clock: Monotonic clock in seconds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        #: ``id(EstimationRequest)`` → request number, set by the driver.
        self.request_ids: Dict[int, int] = {}
        #: The traced system's ``StoreStats`` (to tell a Γ_R derivation
        #: from a cache hit).
        self.store_stats: Optional[object] = None
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request_of(self, request: object) -> Optional[int]:
        return self.request_ids.get(id(request))

    @contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs: object) -> Iterator[Span]:
        """Time the body as one span nested under the thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            request=request,
            thread=threading.current_thread().name,
            start=self._clock(),
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def dump(self, path) -> None:
        """Write every span as one JSON line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), default=str) + "\n")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def _covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def layer_of(span: Span) -> str:
    return LAYER_OF[span.name.split(".", 1)[0]]


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Busy self time per layer (wait spans excluded)."""
    own = self_times(spans)
    totals: Dict[str, float] = {layer: 0.0 for layer in set(LAYER_OF.values())}
    for span in spans:
        if span.name in WAIT_SPANS:
            continue
        totals[layer_of(span)] += own[span.id]
    return totals


# ----------------------------------------------------------------------
# Class-level wrappers
# ----------------------------------------------------------------------

Hook = Callable[..., None]


def _wrap(
    recorder: Recorder,
    owner: object,
    attr: str,
    name: str,
    *,
    request: Optional[Callable[[tuple, dict], Optional[int]]] = None,
    enter: Optional[Hook] = None,
    describe: Optional[Hook] = None,
) -> Callable[[], None]:
    """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
    span-recording wrapper; return the undo.

    ``enter(span, args, kwargs)`` runs before the call and
    ``describe(span, args, kwargs, result)`` after it, both inside the
    span.  A missing entry point raises ``KeyError``.
    """
    if isinstance(owner, dict):
        original = owner[attr]

        def put(value):
            owner[attr] = value
    else:
        original = owner.__dict__[attr]

        def put(value):
            setattr(owner, attr, value)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        rid = request(args, kwargs) if request is not None else None
        with recorder.span(name, request=rid) as span:
            if enter is not None:
                enter(span, args, kwargs)
            result = original(*args, **kwargs)
            if describe is not None:
                describe(span, args, kwargs, result)
            return result

    put(traced)
    return lambda: put(original)


def _selection(span: Span, args, kwargs, result) -> None:
    # trivial_solution returns None when Remark 2 does not apply.
    span.attrs["solved"] = result is not None
    if result is not None:
        span.attrs["algorithm"] = result.algorithm
        span.attrs["selected"] = len(result.selected)


def _probe(span: Span, args, kwargs, result) -> None:
    _, receipts = result
    span.attrs["roads"] = len(receipts)
    span.attrs["answers"] = sum(len(r.answers) for r in receipts)


def _propagate(span: Span, args, kwargs, result) -> None:
    span.attrs["sweeps"] = result.sweeps
    span.attrs["kernel"] = result.kernel.value
    span.attrs["warm_start"] = result.provenance.warm_start
    span.attrs["structure_hit"] = result.provenance.structure_cache_hit


def _batch_items(span: Span, args, kwargs, result) -> None:
    span.attrs["items"] = len(result)


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every traced entry point for the body of the ``with``.

    ``QueryService._serve_batch`` is the one private seam: it is where a
    serve worker runs, so without it the worker's serve-layer time would
    be charged to nobody.  A renamed entry point fails the traced run
    with ``KeyError`` instead of silently dropping a layer.
    """
    def submitted(args, kwargs):
        return recorder.request_of(args[1] if len(args) > 1 else kwargs.get("request"))

    def ticket(args, kwargs):
        return recorder.request_of(args[0].request)

    def batch(span: Span, args, kwargs) -> None:
        span.attrs["requests"] = [recorder.request_of(t.request) for t in args[1]]

    def derivations(counter: str) -> Tuple[Hook, Hook]:
        # A call derived its artifact iff the store's counter moved.
        def enter(span: Span, args, kwargs) -> None:
            span.attrs["counter_before"] = getattr(recorder.store_stats, counter)

        def describe(span: Span, args, kwargs, result) -> None:
            before = span.attrs.pop("counter_before")
            span.attrs["derived"] = getattr(recorder.store_stats, counter) != before

        return enter, describe

    corr_enter, corr_describe = derivations("correlation_derivations")
    prop_enter, prop_describe = derivations("propagation_derivations")
    plan = [
        (QueryService, "submit", "serve.submit", dict(request=submitted)),
        (ServeTicket, "result", "serve.result", dict(request=ticket)),
        (QueryService, "_serve_batch", "serve.batch", dict(enter=batch)),
        (pipeline.CrowdRTSE, "answer_query", "pipeline.answer_query", dict(request=submitted)),
        (pipeline.CrowdRTSE, "build_ocs_instance", "pipeline.build_ocs_instance", {}),
        *[
            (pipeline.SELECTORS, key, "ocs.select", dict(describe=_selection))
            for key in list(pipeline.SELECTORS)
        ],
        (vars(pipeline), "trivial_solution", "ocs.select", dict(describe=_selection)),
        (CrowdMarket, "probe", "crowd.probe", dict(describe=_probe)),
        (GSPEngine, "propagate", "gsp.propagate", dict(describe=_propagate)),
        (GSPEngine, "propagate_batch", "gsp.propagate_batch", dict(describe=_batch_items)),
        (ModelSnapshot, "correlation_matrix", "store.correlation_matrix",
         dict(enter=corr_enter, describe=corr_describe)),
        (ModelSnapshot, "propagation_arrays", "store.propagation_arrays",
         dict(enter=prop_enter, describe=prop_describe)),
        (ModelStore, "refresh", "store.refresh", {}),
        (StreamRefresher, "ingest", "stream.ingest", {}),
        (StreamRefresher, "drain", "stream.drain", {}),
        (StreamRefresher, "close", "stream.close", {}),
    ]
    undo: List[Callable[[], None]] = []
    try:
        for owner, attr, name, hooks in plan:
            undo.append(_wrap(recorder, owner, attr, name, **hooks))
        yield
    finally:
        while undo:
            undo.pop()()


def per_span_cost_s(calls: int = 5000, repeats: int = 5) -> float:
    """Wall time one traced call adds: a wrapped no-op minus a bare one.

    The best of ``repeats`` rounds, so host drift inflates neither side.
    """

    class _Probe:
        def call(self) -> None:
            return None

    def best(fn: Callable[[], None]) -> float:
        rounds = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            rounds.append((time.perf_counter() - start) / calls)
        return min(rounds)

    probe = _Probe()
    bare = best(probe.call)
    undo = _wrap(Recorder(), _Probe, "call", "probe.call")
    try:
        traced = best(probe.call)
    finally:
        undo()
    return max(traced - bare, 0.0)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _p50_ms(values: Sequence[float]) -> float:
    return 1e3 * float(np.median(values)) if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def span_metrics(
    spans: Sequence[Span], requests: int, wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics that come from spans of one traced pass.

    ``*.self_ms`` is a layer's busy self time per served request;
    ``*.self_share`` its share of the pass's wall time.
    """
    busy = layer_self_seconds(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    durations = {name: [s.duration for s in group] for name, group in by_name.items()}

    def self_ms(layer: str) -> float:
        return 1e3 * busy[layer] / max(requests, 1)

    selects = [s for s in by_name.get("ocs.select", ()) if s.attrs.get("solved")]
    probes = by_name.get("crowd.probe", [])
    propagations = by_name.get("gsp.propagate", [])
    batches = by_name.get("gsp.propagate_batch", [])
    sweeps = sum(int(s.attrs["sweeps"]) for s in propagations)
    vectorized = [s for s in propagations if s.attrs["kernel"] == "vectorized"]
    derived = [
        s.duration for s in by_name.get("store.correlation_matrix", ()) if s.attrs["derived"]
    ]
    return {
        "serve.self_ms": (self_ms("serve"), "ms"),
        "pipeline.self_ms": (self_ms("core.pipeline"), "ms"),
        "ocs.build_instance_ms.p50": (
            _p50_ms(durations.get("pipeline.build_ocs_instance", ())), "ms"),
        "ocs.calls": (float(len(selects)), "count"),
        "ocs.self_ms": (self_ms("core.ocs"), "ms"),
        "ocs.select_ms.p50": (_p50_ms([s.duration for s in selects]), "ms"),
        "ocs.selected_per_query": (_mean([s.attrs["selected"] for s in selects]), "count"),
        "crowd.self_ms": (self_ms("crowd"), "ms"),
        "crowd.probe_ms.p50": (_p50_ms(durations.get("crowd.probe", ())), "ms"),
        "crowd.answers_per_query": (_mean([s.attrs["answers"] for s in probes]), "count"),
        "gsp.calls": (float(len(propagations)), "count"),
        "gsp.self_ms": (self_ms("core.gsp"), "ms"),
        "gsp.self_share": (busy["core.gsp"] / wall_s, "fraction"),
        "gsp.sweeps_per_call": (sweeps / max(len(propagations), 1), "count"),
        "gsp.ms_per_sweep": (1e3 * sum(s.duration for s in propagations) / max(sweeps, 1), "ms"),
        "gsp.batch_items_per_call": (_mean([s.attrs["items"] for s in batches]), "count"),
        "gsp.warm_start_used_share": (
            _mean([1.0 if s.attrs["warm_start"] else 0.0 for s in propagations]), "fraction"),
        "gsp.structure_hit_share": (
            _mean([1.0 if s.attrs["structure_hit"] else 0.0 for s in vectorized]), "fraction"),
        "store.correlation_derive_ms.p50": (_p50_ms(derived), "ms"),
        "store.refresh_ms.p50": (_p50_ms(durations.get("store.refresh", ())), "ms"),
        "store.self_share": (busy["core.store"] / wall_s, "fraction"),
        "stream.ingest_ms.p50": (_p50_ms(durations.get("stream.ingest", ())), "ms"),
    }
