"""Workload traces for the serving layer: load, synthesize, replay.

A workload trace is JSON-lines, one
:class:`~repro.core.request.EstimationRequest` per line::

    {"slot": 93, "queried": [3, 7, 11], "budget": 20}
    {"slot": 94, "queried": [3, 7, 11], "budget": 20, "day": 1,
     "theta": 0.9, "selector": "hybrid", "deadline_s": 0.25}

``repro serve --requests trace.jsonl`` replays such a trace through a
:class:`~repro.serve.service.QueryService` and reports latency
percentiles; without ``--requests`` it synthesizes a mixed-slot workload
with a configurable duplication factor (many users asking about the
same roads in the same slot — exactly what coalescing exploits).
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backends.registry import DEFAULT_BACKEND
from repro.errors import DatasetError, ModelError, OverloadedError, ReproError
from repro.core.request import EstimationRequest
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, bucket_quantile
from repro.serve.service import QueryService

#: Keys a trace line may carry (anything else is rejected loudly).
_TRACE_KEYS = {
    "slot", "queried", "budget", "theta", "selector", "deadline_s",
    "day", "backend",
}


def _integral(value: object, key: str, where: str) -> int:
    """A JSON number with no fractional part, as an int.

    ``int()`` would truncate ``1.7`` to road 1 and accept ``true`` as 1;
    a trace that says either is wrong, so it fails instead.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
    ):
        raise DatasetError(f"{where}: {key} must be an integer, got {value!r}")
    return int(value)


def _number(value: object, key: str, where: str) -> float:
    """A JSON number (not a boolean), as a float.

    ``float()`` would load ``true`` as 1.0 and ``"0.5"`` as 0.5; a trace
    that says either is wrong, so it fails instead.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def _string(value: object, key: str, where: str) -> str:
    """A JSON string (``str()`` would load ``3`` as ``"3"``)."""
    if not isinstance(value, str):
        raise DatasetError(f"{where}: {key} must be a string, got {value!r}")
    return value


def load_workload(path: Union[str, Path]) -> List[EstimationRequest]:
    """Parse a JSON-lines workload trace.

    Raises:
        DatasetError: On unreadable files, malformed JSON, missing
            required keys, unknown keys (typos should fail, not
            silently serve a default), non-integral ``queried``/``slot``/
            ``day`` values, a ``budget``/``theta``/``deadline_s`` that is
            not a JSON number, or a ``selector``/``backend`` that is not
            a JSON string.
    """
    items: List[EstimationRequest] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read workload trace {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{where}: each line must be an object")
        unknown = set(record) - _TRACE_KEYS
        if unknown:
            raise DatasetError(
                f"{where}: unknown keys {sorted(unknown)} "
                f"(allowed: {sorted(_TRACE_KEYS)})"
            )
        try:
            deadline_s: Optional[float] = None
            if record.get("deadline_s") is not None:
                deadline_s = _number(record["deadline_s"], "deadline_s", where)
            queried = record["queried"]
            if not isinstance(queried, list):
                raise DatasetError(f"{where}: queried must be a list, got {queried!r}")
            items.append(
                EstimationRequest(
                    queried=tuple(_integral(q, "queried", where) for q in queried),
                    slot=_integral(record["slot"], "slot", where),
                    budget=_number(record["budget"], "budget", where),
                    theta=_number(record.get("theta", 0.92), "theta", where),
                    selector=_string(record.get("selector", "hybrid"), "selector", where),
                    deadline_s=deadline_s,
                    backend=_string(
                        record.get("backend", DEFAULT_BACKEND), "backend", where
                    ),
                    day=_integral(record.get("day", 0), "day", where),
                )
            )
        except (KeyError, TypeError, ValueError, ModelError) as exc:
            raise DatasetError(f"{where}: malformed request: {exc}") from exc
    if not items:
        raise DatasetError(f"workload trace {path} contains no requests")
    return items


def save_workload(
    items: Sequence[EstimationRequest], path: Union[str, Path]
) -> None:
    """Write a trace back out as JSON-lines (inverse of :func:`load_workload`).

    ``backend`` is written only when it differs from the default, so
    default traces stay minimal.
    """
    lines = []
    for item in items:
        record: Dict[str, object] = {
            "slot": item.slot,
            "queried": list(item.queried),
            "budget": item.budget,
            "theta": item.theta,
            "selector": item.selector,
            "day": item.day,
        }
        if item.deadline_s is not None:
            record["deadline_s"] = item.deadline_s
        if item.backend != DEFAULT_BACKEND:
            record["backend"] = item.backend
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n")


def synthesize_workload(
    slots: Sequence[int],
    road_pool: Sequence[int],
    n_requests: int,
    budget: float,
    queried_size: int = 8,
    duplication: int = 4,
    deadline_ms: Optional[float] = None,
    seed: int = 0,
) -> List[EstimationRequest]:
    """A mixed-slot workload with realistic request duplication.

    ``duplication`` controls how many requests share each unique
    (slot, queried) pair — many users asking about the same roads at the
    same moment — which is the shape coalescing is built for.  Requests
    of different slots are interleaved so consecutive arrivals exercise
    the same-slot grouping rather than a pre-sorted best case.
    """
    if not slots:
        raise DatasetError("synthesize_workload needs at least one slot")
    if queried_size > len(road_pool):
        raise DatasetError(
            f"queried_size {queried_size} exceeds the road pool "
            f"({len(road_pool)} roads)"
        )
    duplication = max(1, int(duplication))
    rng = np.random.default_rng(seed)
    uniques: List[EstimationRequest] = []
    n_unique = max(1, (n_requests + duplication - 1) // duplication)
    for k in range(n_unique):
        queried = tuple(
            int(r)
            for r in rng.choice(len(road_pool), size=queried_size, replace=False)
        )
        uniques.append(
            EstimationRequest(
                queried=tuple(int(road_pool[i]) for i in queried),
                slot=int(slots[k % len(slots)]),
                budget=float(budget),
                deadline_s=(
                    deadline_ms / 1e3 if deadline_ms is not None else None
                ),
            )
        )
    items = [uniques[k % n_unique] for k in range(n_requests)]
    order = rng.permutation(n_requests)
    return [items[i] for i in order]


@dataclass
class ReplayReport:
    """Outcome of replaying one workload through a service.

    Latency percentiles are computed from per-request
    admission-to-completion times; rejected requests (backpressure) are
    counted but have no latency.
    """

    n_requests: int = 0
    n_ok: int = 0
    n_degraded: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    n_coalesced: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    degraded_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def n_served(self) -> int:
        """Requests that got an answer (full or degraded)."""
        return self.n_ok + self.n_degraded

    @property
    def throughput_qps(self) -> float:
        """Served requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_served / self.wall_seconds

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (0 when nothing was served).

        Uses the same fixed-bucket interpolation
        (:func:`repro.obs.metrics.bucket_quantile` over
        ``DEFAULT_TIME_BUCKETS``) as the SLO engine and ``repro top``,
        so offline replay numbers and live ``/healthz`` numbers are
        directly comparable.  The bucket estimate is clamped to the
        recorded [min, max], which interpolation inside a wide bucket
        can overshoot.
        """
        if not self.latencies:
            return 0.0
        counts = [0.0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        for latency in self.latencies:
            counts[bisect.bisect_left(DEFAULT_TIME_BUCKETS, latency)] += 1.0
        estimate = bucket_quantile(DEFAULT_TIME_BUCKETS, counts, q / 100.0)
        return min(max(estimate, min(self.latencies)), max(self.latencies))

    def format(self) -> str:
        """Human-readable summary block (printed by ``repro serve``)."""
        lines = [
            f"requests: {self.n_requests} "
            f"(ok {self.n_ok}, degraded {self.n_degraded}, "
            f"rejected {self.n_rejected}, failed {self.n_failed})",
            f"coalesced: {self.n_coalesced} served from a shared execution",
            f"wall time: {self.wall_seconds:.3f}s "
            f"({self.throughput_qps:.1f} req/s)",
        ]
        if self.latencies:
            lines.append(
                "latency: "
                f"p50 {self.percentile(50) * 1e3:.1f}ms  "
                f"p90 {self.percentile(90) * 1e3:.1f}ms  "
                f"p99 {self.percentile(99) * 1e3:.1f}ms  "
                f"max {max(self.latencies) * 1e3:.1f}ms"
            )
        if self.degraded_reasons:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.degraded_reasons.items())
            )
            lines.append(f"degraded by reason: {reasons}")
        return "\n".join(lines)


def replay(
    service: QueryService,
    items: Sequence[EstimationRequest],
    bind: Optional[Callable[[EstimationRequest], EstimationRequest]] = None,
) -> ReplayReport:
    """Submit a whole trace and collect every outcome.

    Requests are submitted as fast as admission allows (a rejected
    request is counted, not retried — backpressure is part of the
    contract being measured) and the report aggregates latencies over
    the completed ones.

    Args:
        service: A started :class:`QueryService`.
        items: The trace.
        bind: Turns a trace entry into the request actually submitted
            (attach per-day markets/truth oracles).  Defaults to the
            entry itself, relying on the service-level market/truth.
    """
    if bind is None:
        def bind(item: EstimationRequest) -> EstimationRequest:
            return item

    report = ReplayReport(n_requests=len(items))
    start = time.perf_counter()
    tickets = []
    for item in items:
        try:
            tickets.append(service.submit(bind(item)))
        except OverloadedError:
            report.n_rejected += 1
    for ticket in tickets:
        try:
            result = ticket.result()
        except ReproError:
            report.n_failed += 1
            continue
        report.latencies.append(result.total_seconds)
        if result.degraded:
            report.n_degraded += 1
            reason = result.degraded_reason or "unknown"
            report.degraded_reasons[reason] = (
                report.degraded_reasons.get(reason, 0) + 1
            )
        else:
            report.n_ok += 1
        if result.coalesced:
            report.n_coalesced += 1
    report.wall_seconds = time.perf_counter() - start
    return report
