"""The three workloads and the run that measures one of them.

Load discipline (the same for every workload):

* one process, one generator thread, ``ServeConfig(num_workers=1)``;
* BLAS/OpenMP pools pinned to one thread by ``run.py`` before numpy loads;
* no background threads besides the single serve worker — the stream
  refresher publishes inline, no health monitor runs, ``repro.obs``
  stays off — and :func:`checks.stray_threads` enforces it around every
  timed phase.

A *pass* is the seed's fixed work served by a freshly cold-started
system, so every pass of a run does exactly the same work; a run repeats
passes until it has measured at least ``--seconds`` of serving, at least
:data:`MIN_PASSES` passes and at least :data:`MIN_REQUESTS` requests.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import inputs
import spans
from repro.baselines.periodic import periodic_field
from repro.core.gsp import GSPConfig, GSPSchedule
from repro.core.pipeline import CrowdRTSE
from repro.core.rtf import RTFSlot
from repro.core.snapshot_io import load_store, write_snapshot
from repro.crowd.market import CrowdMarket
from repro.datasets import Dataset, SemiSynConfig, build_semisyn, truth_oracle_for
from repro.errors import ReproError
from repro.serve import EstimationRequest, QueryService, ServeConfig, ServedResult
from repro.stream import StreamConfig, StreamRefresher

MIN_PASSES = 2
MIN_REQUESTS = 100
#: Cold starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Threads allowed alive while a pass is timed.
TIMED_THREADS = ("MainThread", "serve-worker-0")
#: Interpreter switch interval while a hotspot burst is submitted: the
#: generator keeps the GIL until every request of the burst is queued,
#: so the single worker always sees the whole burst and batches it the
#: same way on every run.
BURST_SWITCH_INTERVAL_S = 1.0

SERVE_REFERENCE = ServeConfig(num_workers=1)
SERVE_VECTORIZED = ServeConfig(
    num_workers=1, gsp_config=GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)
)


@dataclass
class World:
    """The paper's 607-road HK-like world, persisted as a snapshot file."""

    data: Dataset
    snapshot_path: Path
    slots: Tuple[int, ...]


def build_world(snapshot_path: Path) -> World:
    """``SemiSynConfig()`` defaults with all 24 slots fitted, written with
    its propagation arrays (untimed: this is the generator's input)."""
    data = build_semisyn(SemiSynConfig())
    system = CrowdRTSE.fit(data.network, data.train_history)
    write_snapshot(snapshot_path, system.model, include_propagation=True)
    return World(data=data, snapshot_path=snapshot_path, slots=tuple(system.store.current().slots))


@dataclass(frozen=True)
class SetupTime:
    setup_s: float
    load_store_s: float


@dataclass
class Started:
    system: CrowdRTSE
    service: QueryService
    times: SetupTime


def cold_start(world: World, config: ServeConfig) -> Started:
    """Timed set-up: snapshot → store → system → Γ_R and propagation
    arrays of every slot → service.  Every workload warms all 24 slots,
    so set-up is the same work whatever the seed."""
    start = time.perf_counter()
    store = load_store(world.snapshot_path, world.data.network)
    loaded = time.perf_counter()
    system = CrowdRTSE(world.data.network, store=store)
    snapshot = store.current()
    for slot in world.slots:
        snapshot.correlation_matrix(slot)
        snapshot.propagation_arrays(slot)
    service = QueryService(system, config=config)
    return Started(system, service, SetupTime(time.perf_counter() - start, loaded - start))


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """What one pass served and how long it took."""

    wall_s: float = 0.0
    attempted: int = 0
    errors: int = 0
    #: Each request, its result, and the serving snapshot's parameters of
    #: its slot (the Per baseline's μ).  Holding only the slot keeps the
    #: store's artifact cache collectable once the pass ends.
    served: List[Tuple[EstimationRequest, ServedResult, RTFSlot]] = field(default_factory=list)
    publishes: int = 0
    published_slots: int = 0
    ingest_s: float = 0.0
    ingest_events: int = 0
    store_counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """The work this pass did, as the counts the seed fixes."""
        results = [served for _, served, _ in self.served]
        executions = [r.result for r in results if not r.coalesced and r.result is not None]
        return {
            "served": len(results),
            "degraded": sum(r.degraded for r in results),
            "errors": self.errors,
            "coalesced": sum(r.coalesced for r in results),
            "gsp_sweeps": sum(q.gsp.sweeps for q in executions if q.gsp is not None),
            "probes_bought": sum(q.budget_spent for q in executions),
            "publishes": self.publishes,
        }

    def answers(self) -> List[checks.Answer]:
        """Each answer next to the day's truth and the Per baseline."""
        out = []
        for request, served, params in self.served:
            roads = np.asarray(request.queried, dtype=int)
            out.append(
                checks.Answer(
                    queried=request.queried,
                    estimates=served.estimates_kmh,
                    truths=np.array([request.truth(int(r)) for r in roads]),
                    per=periodic_field(params)[roads],
                )
            )
        return out


class Source:
    """Builds fresh requests (fresh stateful markets) for one pass."""

    def __init__(self, world: World, recorder: Optional[spans.Recorder]) -> None:
        self._world = world
        self._recorder = recorder
        self._truths: Dict[Tuple[int, int], Callable[[int], float]] = {}

    def truth(self, day: int, slot: int) -> Callable[[int], float]:
        # One oracle object per (day, slot): the serve layer only
        # coalesces requests that share their market and truth objects.
        key = (day, slot)
        if key not in self._truths:
            self._truths[key] = truth_oracle_for(self._world.data.test_history, day, slot)
        return self._truths[key]

    def market(self, spec: inputs.QuerySpec) -> CrowdMarket:
        data = self._world.data
        return CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(spec.market_seed)
        )

    def request(self, spec: inputs.QuerySpec, market=None, truth=None) -> EstimationRequest:
        request = EstimationRequest(
            queried=spec.queried,
            slot=spec.slot,
            budget=spec.budget,
            market=market if market is not None else self.market(spec),
            truth=truth if truth is not None else self.truth(spec.day, spec.slot),
            day=spec.day,
        )
        if self._recorder is not None:
            self._recorder.request_ids[id(request)] = len(self._recorder.request_ids)
        return request


def _serve_one(
    service: QueryService, request: EstimationRequest, params: RTFSlot, out: Pass
) -> None:
    out.attempted += 1
    try:
        out.served.append((request, service.serve(request), params))
    except ReproError:
        out.errors += 1


def _slot_params(started: Started) -> Dict[int, RTFSlot]:
    snapshot = started.system.store.current()
    return {slot: snapshot.slot(slot) for slot in snapshot.slots}


def citywide_pass(plan: List[inputs.QuerySpec], started: Started, source: Source) -> Pass:
    """Closed loop, one client: each distinct paper-shaped request waits
    for its answer before the next is sent."""
    requests = [source.request(spec) for spec in plan]
    params = _slot_params(started)
    out = Pass()
    start = time.perf_counter()
    for request in requests:
        _serve_one(started.service, request, params[request.slot], out)
    out.wall_s = time.perf_counter() - start
    return out


def hotspot_pass(plan: inputs.HotspotPlan, started: Started, source: Source) -> Pass:
    """Closed loop of bursts: submit 16 at once, wait for all, repeat."""
    markets = [source.market(pair) for pair in plan.pairs]
    truths = [source.truth(pair.day, pair.slot) for pair in plan.pairs]
    bursts = [
        [source.request(plan.pairs[k], markets[k], truths[k]) for k in burst]
        for burst in plan.bursts
    ]
    params = _slot_params(started)
    service = started.service
    out = Pass()
    start = time.perf_counter()
    for burst in bursts:
        tickets = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(BURST_SWITCH_INTERVAL_S)
        try:
            for request in burst:
                out.attempted += 1
                try:
                    tickets.append((request, service.submit(request)))
                except ReproError:
                    out.errors += 1
        finally:
            sys.setswitchinterval(previous)
        for request, ticket in tickets:
            try:
                out.served.append((request, ticket.result(), params[request.slot]))
            except ReproError:
                out.errors += 1
    out.wall_s = time.perf_counter() - start
    return out


def refresh_pass(plan: Tuple[inputs.RefreshPlan, list], started: Started, source: Source) -> Pass:
    """Replay days through an inline-publishing refresher; after every
    publish, one read on the slot it refreshed."""
    refresh, feeds = plan
    reads = {key: source.request(spec) for key, spec in refresh.reads.items()}
    store = started.system.store
    refresher = StreamRefresher(started.system, StreamConfig(async_publish=False))
    out = Pass(ingest_events=sum(len(batch) for feed in feeds for batch in feed))

    def timed_ingest(day: int, call, *args) -> None:
        before = store.current()
        begin = time.perf_counter()
        call(*args)
        out.ingest_s += time.perf_counter() - begin
        after = store.current()
        if after.version != before.version:
            for slot in after.slots:
                if after.digest(slot) != before.digest(slot):
                    _serve_one(started.service, reads[(day, slot)], after.slot(slot), out)

    start = time.perf_counter()
    for day, feed in zip(refresh.days, feeds):
        for batch in feed:
            timed_ingest(day, refresher.ingest, batch)
        timed_ingest(day, refresher.drain)
    begin = time.perf_counter()
    stats = refresher.close()
    out.ingest_s += time.perf_counter() - begin
    out.wall_s = time.perf_counter() - start
    out.publishes = stats.publishes
    out.published_slots = stats.published_slots
    return out


@dataclass(frozen=True)
class Workload:
    serve_config: ServeConfig
    plan: Callable[[int, World], object]
    run_pass: Callable[..., Pass]


def _shape(world: World) -> Tuple[Sequence[int], int, int]:
    return world.slots, world.data.network.n_roads, world.data.test_history.n_days


def _refresh_plan(seed: int, world: World):
    plan = inputs.refresh_plan(seed, *_shape(world))
    return plan, inputs.day_feeds(world.data.test_history, plan)


WORKLOADS = {
    "citywide": Workload(
        SERVE_REFERENCE,
        lambda seed, world: inputs.citywide_specs(seed, *_shape(world)),
        citywide_pass,
    ),
    "hotspot": Workload(
        SERVE_VECTORIZED,
        lambda seed, world: inputs.hotspot_plan(seed, *_shape(world)),
        hotspot_pass,
    ),
    "refresh": Workload(
        SERVE_VECTORIZED,
        _refresh_plan,
        refresh_pass,
    ),
}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """The last line a run prints, or the problems that replace it."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    problems: List[str]


def _measure_pass(
    workload: Workload, world: World, plan, recorder: Optional[spans.Recorder]
) -> Tuple[Pass, SetupTime]:
    started = cold_start(world, workload.serve_config)
    try:
        source = Source(world, recorder)
        stats = started.system.store.stats
        problems = checks.stray_threads(TIMED_THREADS)
        before = stats.as_dict()
        if recorder is None:
            result = workload.run_pass(plan, started, source)
        else:
            recorder.store_stats = stats
            with spans.installed(recorder):
                result = workload.run_pass(plan, started, source)
        after = stats.as_dict()
        result.store_counts = {k: after[k] - before[k] for k in after}
        result.problems = problems + checks.stray_threads(TIMED_THREADS)
    finally:
        started.service.close()
    return result, started.times


def _percentile_ms(values: Sequence[float], q: float) -> float:
    return 1e3 * float(np.percentile(values, q))


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    source_digest: str,
) -> RunResult:
    """Measure one workload at one seed.

    Untraced, the result carries the end-to-end metrics.  Traced, one
    untraced pass is followed by one traced pass of the same work, and
    the result carries the per-layer metrics, the spans being written to
    ``out_dir/<workload>-<seed>.spans.jsonl``.
    """
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path = out_dir / f"world-{os.getpid()}.snap"
    try:
        world = build_world(snapshot_path)
        plan = workload.plan(seed, world)
        passes: List[Pass] = []
        setups: List[SetupTime] = []
        recorder = spans.Recorder() if trace else None
        while True:
            tracing = trace and len(passes) == 1
            result, setup = _measure_pass(workload, world, plan, recorder if tracing else None)
            passes.append(result)
            setups.append(setup)
            print(
                f"pass {len(passes)}{' (traced)' if tracing else ''}: {result.attempted} requests "
                f"in {result.wall_s:.3f} s after {setup.setup_s:.3f} s set-up",
                file=sys.stderr,
                flush=True,
            )
            if trace:
                if len(passes) == 2:
                    break
            elif (
                len(passes) >= MIN_PASSES
                and sum(p.attempted for p in passes) >= MIN_REQUESTS
                and sum(p.wall_s for p in passes) >= seconds
            ):
                break
        while len(setups) < SETUP_SAMPLES:
            extra = cold_start(world, workload.serve_config)
            extra.service.close()
            setups.append(extra.times)
    finally:
        snapshot_path.unlink(missing_ok=True)

    answers = [one.answers() for one in passes]
    record = out_dir / "work" / f"{name}-{seed}-{source_digest[:16]}.json"
    problems = _check(passes, answers, record)
    measured = passes[-1:] if trace else passes
    attempted = sum(p.attempted for p in measured)
    failed = sum(p.errors + p.counts()["degraded"] for p in measured)
    if trace:
        metrics = _layer_metrics(passes[0], passes[1], recorder, setups)
        recorder.dump(out_dir / f"{name}-{seed}.spans.jsonl")
    else:
        metrics = _end_to_end(passes, answers, setups, attempted, failed)
    return RunResult(attempted, failed, metrics, problems)


def _check(
    passes: Sequence[Pass], answers: Sequence[List[checks.Answer]], record: Path
) -> List[str]:
    problems = [p for one in passes for p in one.problems]
    first = passes[0].counts()
    for k, one in enumerate(passes[1:], start=2):
        problems += checks.work_problems(first, one.counts(), f"pass {k}")
    problems += checks.recorded_work_problems(record, first)
    for k, (one, served_answers) in enumerate(zip(passes, answers), start=1):
        problems += [f"pass {k}: {p}" for p in checks.answer_problems(served_answers)]
        outside = [
            s.total_seconds for _, s, _ in one.served if not 0.0 < s.total_seconds <= one.wall_s
        ]
        if outside:
            problems.append(f"pass {k}: latency {outside[0]} s lies outside the pass")
    return problems


def _end_to_end(passes, answers, setups, attempted, failed) -> Dict[str, Tuple[float, str]]:
    latencies = [served.total_seconds for one in passes for _, served, _ in one.served]
    flat = [a for pass_answers in answers for a in pass_answers]
    estimates = np.concatenate([a.estimates for a in flat])
    truths = np.concatenate([a.truths for a in flat])
    ok = attempted - failed
    return {
        "latency_p50_ms": (_percentile_ms(latencies, 50), "ms"),
        "latency_p90_ms": (_percentile_ms(latencies, 90), "ms"),
        "throughput_qps": (ok / sum(p.wall_s for p in passes), "1/s"),
        "mape_pct": (checks.mape_pct(estimates, truths), "%"),
        "ok_pct": (100.0 * ok / attempted, "%"),
        "setup_s": (statistics.median(s.setup_s for s in setups), "s"),
    }


def _layer_metrics(untraced: Pass, traced: Pass, recorder, setups) -> Dict[str, Tuple[float, str]]:
    results = [served for _, served, _ in traced.served]
    counts = traced.counts()
    served = max(len(results), 1)
    metrics = spans.span_metrics(recorder.spans, len(results), traced.wall_s)
    metrics.update(
        {
            "serve.queue_wait_ms.mean": (
                1e3 * float(np.mean([r.queue_seconds for r in results])) if results else 0.0,
                "ms",
            ),
            "serve.coalesced_share": (counts["coalesced"] / served, "fraction"),
            "serve.executions": (float(len(results) - counts["coalesced"]), "count"),
            "gsp.sweeps": (float(counts["gsp_sweeps"]), "count"),
            "store.correlation_derivations": (
                float(traced.store_counts["correlation_derivations"]), "count"),
            "store.propagation_derivations": (
                float(traced.store_counts["propagation_derivations"]), "count"),
            "stream.publishes": (float(traced.publishes), "count"),
            "stream.published_slots": (float(traced.published_slots), "count"),
            "stream.ingest_events_per_s": (
                traced.ingest_events / traced.ingest_s if traced.ingest_s else 0.0, "1/s"),
            "snapshot_io.load_store_ms": (
                1e3 * statistics.median(s.load_store_s for s in setups), "ms"),
            "trace.overhead_pct": (
                100.0 * len(recorder.spans) * spans.per_span_cost_s() / untraced.wall_s, "%"),
        }
    )
    return metrics
