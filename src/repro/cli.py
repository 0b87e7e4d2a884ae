"""Command-line interface for the CrowdRTSE reproduction.

Subcommands:

* ``dataset`` — build a dataset, print its Table II statistics, and
  optionally save the network / histories to disk.
* ``fit``     — run the offline stage and save the RTF model.
* ``query``   — answer one realtime query end to end and print the
  selection, spend, and quality against the simulated ground truth.
* ``refresh`` — replay test days through the versioned model store
  (hot model refresh) and print version/derivation counters.
* ``experiment`` — run one of the paper's tables/figures.
* ``stats``   — run a small instrumented query and dump the telemetry
  (Prometheus text plus optional JSON / trace artifacts).
* ``serve``   — replay a query workload through the concurrent
  :class:`~repro.serve.QueryService` and report latency percentiles.
* ``stream``  — replay test days as a probe feed through the streaming
  refresher (merge/dedup, watermark closes, bounded publishes) while
  the QueryService keeps answering queries concurrently.

Exit codes (uniform across subcommands):

* ``0``  — success.
* ``2``  — user error: bad arguments or any :class:`~repro.errors.ReproError`
  (malformed trace, invalid config, ...).  Matches argparse's own code.
* ``70`` — internal error (``EX_SOFTWARE``): an unexpected exception
  escaped; this is a bug, please report the traceback.

Examples::

    python -m repro.cli dataset --name semisyn --roads 150
    python -m repro.cli query --budget 30 --selector hybrid
    python -m repro.cli query --trace trace.jsonl --metrics-out metrics.json
    python -m repro.cli stats --metrics-out metrics.json --trace trace.jsonl
    python -m repro.cli experiment figure2 --scale quick
    python -m repro.cli serve --requests trace.jsonl --workers 4
    python -m repro.cli serve --n-requests 64 --duplication 4 --deadline-ms 500
    python -m repro.cli stream --days 2 --lateness-s 30 --queries 4
    python -m repro.cli stream --save-feed feed.jsonl
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import obs
from repro.experiments.common import ExperimentScale

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.health import AdminServer, HealthMonitor


def _build_dataset(args: argparse.Namespace) -> "repro.Dataset":
    if args.name == "semisyn":
        return repro.build_semisyn(
            repro.SemiSynConfig(
                n_roads=args.roads,
                n_queried=args.queried,
                n_train_days=args.train_days,
                n_test_days=args.test_days,
                n_slots=args.slots,
                seed=args.seed,
            )
        )
    return repro.build_gmission(
        repro.GMissionConfig(
            n_train_days=args.train_days,
            n_test_days=args.test_days,
            n_slots=args.slots,
            seed=args.seed,
        )
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--name", choices=("semisyn", "gmission"), default="semisyn",
        help="which Table II dataset to build",
    )
    parser.add_argument("--roads", type=int, default=150, help="network size (semisyn)")
    parser.add_argument("--queried", type=int, default=25, help="|R^q| (semisyn)")
    parser.add_argument("--train-days", type=int, default=20)
    parser.add_argument("--test-days", type=int, default=5)
    parser.add_argument("--slots", type=int, default=12, help="simulated slots per day")
    parser.add_argument("--seed", type=int, default=2018)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", help="write the metrics snapshot JSON here"
    )
    group.add_argument(
        "--trace", help="write the span tree as JSON-lines here"
    )
    group.add_argument(
        "--chrome-trace",
        help="write a chrome://tracing-compatible trace event file here",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(args.metrics_out or args.trace or args.chrome_trace)


def _enable_obs(args: argparse.Namespace) -> None:
    """Turn on metrics/tracing for the outputs the user asked for."""
    obs.configure(
        metrics=bool(args.metrics_out),
        tracing=bool(args.trace or args.chrome_trace),
    )
    obs.reset()


def _export_obs(args: argparse.Namespace) -> None:
    if args.metrics_out:
        obs.write_metrics_json(obs.get_metrics().snapshot(), args.metrics_out)
        print(f"metrics snapshot written to {args.metrics_out}")
    tracer = obs.get_tracer()
    if args.trace:
        tracer.export_jsonl(args.trace)
        print(f"trace ({len(tracer.records())} spans) written to {args.trace}")
    if args.chrome_trace:
        tracer.export_chrome_trace(args.chrome_trace)
        print(f"chrome trace written to {args.chrome_trace}")


def _add_admin_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("admin endpoint")
    group.add_argument(
        "--admin-port", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /flightrecorder on this port "
             "(0 picks a free one); off by default",
    )
    group.add_argument(
        "--admin-host", default="127.0.0.1",
        help="admin endpoint bind address (default: loopback only)",
    )
    group.add_argument(
        "--hold-s", type=float, default=0.0, metavar="SECONDS",
        help="keep the process (and admin endpoint) alive this long "
             "after the replay finishes — for probing /healthz",
    )


def _admin_requested(args: argparse.Namespace) -> bool:
    return getattr(args, "admin_port", None) is not None


def _start_admin(
    args: argparse.Namespace, store: "repro.ModelStore"
) -> Optional[Tuple["HealthMonitor", "AdminServer"]]:
    """Launch the health sampler + admin endpoint when requested."""
    if not _admin_requested(args):
        return None
    from repro.obs import health as obs_health

    if not obs.get_metrics().enabled:
        # The endpoint serves the live registry; the dashboard is empty
        # without it, so opting into --admin-port opts into telemetry.
        obs.configure(metrics=True, tracing=True)
    monitor = obs_health.HealthMonitor(interval_s=1.0)
    monitor.set_info("store", store.health_info)
    monitor.set_info("uptime_seconds", lambda: store.uptime_seconds)
    monitor.set_info("store_version", lambda: store.version)
    obs_health.install(monitor)
    monitor.start()
    server = obs_health.AdminServer(
        monitor, host=args.admin_host, port=args.admin_port
    )
    server.start()
    print(f"admin endpoint on {server.url} (/metrics /healthz /flightrecorder)")
    return (monitor, server)


def _hold_admin(args: argparse.Namespace) -> None:
    """Keep the process alive for --hold-s after the work is done."""
    hold = float(getattr(args, "hold_s", 0.0) or 0.0)
    if hold > 0:
        print(f"holding for {hold:.0f}s (Ctrl-C to exit early)")
        time.sleep(hold)


def _stop_admin(
    admin: Optional[Tuple["HealthMonitor", "AdminServer"]],
) -> None:
    if admin is None:
        return
    from repro.obs import health as obs_health

    monitor, server = admin
    server.close()
    monitor.close()
    obs_health.uninstall()


def cmd_dataset(args: argparse.Namespace) -> int:
    """``dataset`` subcommand."""
    data = _build_dataset(args)
    print(data.summary())
    print(
        f"train: {data.train_history.n_days} days x {data.train_history.n_slots} "
        f"slots ({data.train_history.n_records} records); "
        f"test: {data.test_history.n_days} days"
    )
    if args.save_network:
        repro.network_to_json(data.network, args.save_network)
        print(f"network written to {args.save_network}")
    if args.save_history:
        data.train_history.save(args.save_history)
        print(f"training history written to {args.save_history}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """``fit`` subcommand."""
    data = _build_dataset(args)
    config = repro.RTFInferenceConfig(init=args.init, seed=args.seed)
    model, diags = repro.fit_rtf(
        data.network, data.train_history, slots=[data.slot], config=config
    )
    diag = diags[data.slot]
    print(
        f"fitted slot {data.slot}: {diag.iterations} iterations, "
        f"converged={diag.converged}, max|grad mu|={diag.final_grad_mu:.4g}"
    )
    if args.output:
        model.save(args.output)
        print(f"model written to {args.output}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``query`` subcommand."""
    if _obs_requested(args):
        _enable_obs(args)
    data = _build_dataset(args)
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(args.seed),
    )
    truth = repro.truth_oracle_for(data.test_history, args.day, data.slot)
    request = repro.EstimationRequest(
        queried=data.queried,
        slot=data.slot,
        budget=args.budget,
        theta=args.theta,
        selector=args.selector,
        rng=np.random.default_rng(args.seed),
    )
    result = system.answer_query(request, market=market, truth=truth)
    truths = np.array([truth(q) for q in data.queried])
    mape = repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
    fer = repro.false_estimation_rate(result.estimates_kmh, truths)
    print(
        f"selected {len(result.selection.selected)} roads "
        f"({result.selection.algorithm}), spent {result.budget_spent}/{args.budget}"
    )
    print(f"GSP sweeps: {result.gsp.sweeps} (converged={result.gsp.converged})")
    print(f"quality over R^q: MAPE {mape:.4f}, FER {fer:.4f}")
    if args.verbose:
        print("\nroad      estimate   truth")
        for road, estimate in zip(data.queried, result.estimates_kmh):
            print(f"r{road:<8} {estimate:7.1f}   {truth(road):7.1f}")
    if _obs_requested(args):
        _export_obs(args)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats`` subcommand: instrumented end-to-end run + telemetry dump.

    Runs one small query with metrics and tracing enabled, prints the
    resulting registry in Prometheus text format, and writes whichever
    artifacts were requested.  This is also the CI observability smoke
    surface.
    """
    obs.configure(metrics=True, tracing=True)
    obs.reset()
    data = _build_dataset(args)
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(args.seed),
    )
    truth = repro.truth_oracle_for(data.test_history, day=0, slot=data.slot)
    result = system.answer_query(
        repro.EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=args.budget,
            selector=args.selector,
            rng=np.random.default_rng(args.seed),
        ),
        market=market,
        truth=truth,
    )
    print(
        f"# instrumented query: selected {len(result.selection.selected)} roads, "
        f"spent {result.budget_spent}/{args.budget}, "
        f"{result.gsp.sweeps} GSP sweeps"
    )
    print(obs.prometheus_text(), end="")
    _export_obs(args)
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    """``refresh`` subcommand: replay test days through the model store.

    Fits the offline stage once, then absorbs each test day with
    :meth:`CrowdRTSE.refresh` and answers a query against the refreshed
    snapshot, printing the published store version and the derivation
    counters that show copy-on-write economy (one Γ_R re-derivation per
    refreshed slot, everything else cache hits).
    """
    if _obs_requested(args):
        _enable_obs(args)
    data = _build_dataset(args)
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
    local = data.test_history.local_slot(data.slot)
    n_days = args.days if args.days is not None else data.test_history.n_days
    n_days = min(n_days, data.test_history.n_days)
    print(f"store version {system.store.version} (offline fit, slot {data.slot})")
    for day in range(n_days):
        truth = repro.truth_oracle_for(data.test_history, day, data.slot)
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(args.seed + day),
        )
        result = system.answer_query(
            repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=args.budget,
                rng=np.random.default_rng(args.seed + day),
            ),
            market=market,
            truth=truth,
        )
        truths = np.array([truth(q) for q in data.queried])
        mape = repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
        snapshot = system.refresh(
            {data.slot: data.test_history.day(day)[local]},
            learning_rate=args.learning_rate,
        )
        print(
            f"day {day}: MAPE {mape:.4f}; refreshed -> version {snapshot.version}"
        )
    stats = system.store.stats
    print(
        f"store: {stats.publishes} publishes, "
        f"{stats.correlation_derivations} Γ_R derivations / "
        f"{stats.correlation_hits} hits, "
        f"{stats.propagation_derivations} propagation derivations / "
        f"{stats.propagation_hits} hits"
    )
    if _obs_requested(args):
        _export_obs(args)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` subcommand: workload replay through the QueryService.

    With ``--requests`` the JSON-lines trace is replayed verbatim;
    without it a mixed-slot workload with request duplication is
    synthesized (the shape coalescing is designed for).  Prints the
    admission/degradation counts and latency percentiles.
    """
    from repro import serve as serving

    if _obs_requested(args):
        _enable_obs(args)
    data = _build_dataset(args)

    # Fit a window of slots starting at the dataset's query slot so the
    # workload can mix slots; clamp to what the history actually covers.
    available = data.train_history.global_slots
    slots = [s for s in range(data.slot, data.slot + args.serve_slots) if s in available]
    if not slots:
        slots = [data.slot]
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=slots)
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(args.seed),
    )

    if args.requests:
        items = serving.load_workload(args.requests)
        trace_slots = {item.slot for item in items}
        unknown = trace_slots - set(slots)
        if unknown:
            raise repro.DatasetError(
                f"trace queries slots {sorted(unknown)} outside the fitted "
                f"window {slots}; raise --serve-slots or fix the trace"
            )
    else:
        items = serving.synthesize_workload(
            slots,
            list(data.queried),
            n_requests=args.n_requests,
            budget=args.budget,
            queried_size=min(8, len(data.queried)),
            duplication=args.duplication,
            deadline_ms=args.deadline_ms,
            seed=args.seed,
        )

    # Backends the store does not already serve (the --backend
    # override, the shadow challenger, and anything the trace lines
    # name; rtf_gsp is built in) are fitted on the same training
    # history and attached before serving starts.
    backends = {args.backend, args.shadow} | {item.backend for item in items}
    for name in sorted(backends - {None, *system.store.attached_backends}):
        system.attach_backend(name, history=data.train_history)
        print(f"attached backend {name!r} (store v{system.store.version})")

    # Truth oracles are (day, slot)-specific; cache them so identical
    # requests share one oracle object and stay coalescable.
    oracles = {}

    def bind(item: "repro.EstimationRequest") -> "repro.EstimationRequest":
        day = min(item.day, data.test_history.n_days - 1)
        key = (day, item.slot)
        if key not in oracles:
            oracles[key] = repro.truth_oracle_for(data.test_history, day, item.slot)
        overrides = {"truth": oracles[key]}
        if args.backend != "rtf_gsp":
            overrides["backend"] = args.backend
        return dataclasses.replace(item, **overrides)

    config = serving.ServeConfig(
        num_workers=args.workers,
        max_queue_depth=args.queue_depth,
        coalesce_window_s=args.coalesce_window_ms / 1e3,
        default_deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        shadow_backend=args.shadow,
    )
    print(
        f"serving {len(items)} requests over slots {slots} "
        f"({args.workers} workers, queue depth {args.queue_depth}, "
        f"backend {args.backend})"
    )
    admin = _start_admin(args, system.store)
    try:
        with serving.QueryService(system, market=market, config=config) as service:
            report = serving.replay(service, items, bind=bind)
            print(report.format())
            if args.shadow is not None:
                # Shadow scoring trails ticket resolution; only the
                # drain on close() makes the tally final.
                service.close()
                stats = service.shadow_stats
                print(
                    f"shadow[{args.shadow}]: {stats.scored} scored, "
                    f"{stats.errors} errors, "
                    f"mean divergence {stats.mean_divergence_kmh:.2f} km/h"
                )
            _hold_admin(args)
    finally:
        _stop_admin(admin)
    if _obs_requested(args):
        _export_obs(args)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """``stream`` subcommand: probe-feed replay with continuous refresh.

    Replays the test days as overlapping probe-feed snapshots through
    :class:`~repro.stream.StreamRefresher` (watermark-based slot closes,
    bounded publish batching, backpressure) while a
    :class:`~repro.serve.QueryService` answers queries concurrently from
    pinned snapshots.  Prints per-day merge/publish telemetry and an
    end-of-replay throughput/freshness summary.  ``--feed`` replays a
    saved ``#``-delimited JSONL feed file through the
    :class:`~repro.stream.FeedAdapter` instead of synthesizing one.
    """
    from repro import serve as serving
    from repro import stream as streaming

    if _obs_requested(args):
        _enable_obs(args)
    data = _build_dataset(args)
    available = data.train_history.global_slots
    slots = [
        s for s in range(data.slot, data.slot + args.stream_slots) if s in available
    ]
    if not slots:
        slots = [data.slot]
    system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=slots)
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(args.seed),
    )

    adapter = streaming.FeedAdapter(data.network)
    if args.feed:
        day_batches = [adapter.parse_feed_file(args.feed)]
    else:
        n_days = args.days if args.days is not None else data.test_history.n_days
        n_days = max(1, min(n_days, data.test_history.n_days))
        day_batches = [
            streaming.synthesize_day_feed(
                data.test_history,
                day,
                slots=slots,
                coverage=args.coverage,
                seed=args.seed + day,
            )
            for day in range(n_days)
        ]
        if args.save_feed:
            flat = [batch for batches in day_batches for batch in batches]
            streaming.save_feed(flat, args.save_feed)
            print(f"feed ({sum(len(b) for b in flat)} messages) written to {args.save_feed}")

    config = streaming.StreamConfig(
        lateness_s=args.lateness_s, learning_rate=args.learning_rate
    )
    n_batches = sum(len(batches) for batches in day_batches)
    query_step = max(1, n_batches // max(1, args.queries))
    print(
        f"streaming {len(day_batches)} day(s) over slots {slots} "
        f"(lateness {args.lateness_s:.0f}s, eta {args.learning_rate})"
    )

    oracles = {}
    tickets = []
    total_events = 0
    batch_index = 0
    started = time.perf_counter()
    admin = _start_admin(args, system.store)
    with serving.QueryService(
        system, market=market, config=serving.ServeConfig(num_workers=2)
    ) as service:
        with streaming.StreamRefresher(system, config) as refresher:
            for day, batches in enumerate(day_batches):
                seen = (
                    refresher.log.accepted,
                    refresher.log.duplicates,
                    refresher.log.late,
                )
                for batch in batches:
                    if batch_index % query_step == 0 and len(tickets) < args.queries:
                        truth_day = min(day, data.test_history.n_days - 1)
                        if truth_day not in oracles:
                            oracles[truth_day] = repro.truth_oracle_for(
                                data.test_history, truth_day, data.slot
                            )
                        tickets.append(
                            service.submit(
                                repro.EstimationRequest(
                                    queried=tuple(data.queried),
                                    slot=data.slot,
                                    budget=args.budget,
                                    truth=oracles[truth_day],
                                    rng=np.random.default_rng(args.seed + day),
                                )
                            )
                        )
                    refresher.ingest(batch)
                    total_events += len(batch)
                    batch_index += 1
                # End-of-day flush: the feed goes quiet, so publish the
                # trailing open slots instead of waiting for tomorrow's
                # watermark.
                refresher.drain()
                print(
                    f"day {day}: {refresher.log.accepted - seen[0]} accepted, "
                    f"{refresher.log.duplicates - seen[1]} duplicate, "
                    f"{refresher.log.late - seen[2]} late; "
                    f"version {system.store.version}"
                )
            stats = refresher.close()
        served = 0
        for ticket in tickets:
            result = ticket.result(timeout=60.0)
            if np.all(np.isfinite(result.estimates_kmh)):
                served += 1
    elapsed = time.perf_counter() - started
    print(
        f"stream: {total_events} events in {elapsed:.2f}s "
        f"({total_events / max(elapsed, 1e-9):.0f} events/s), "
        f"{adapter.total_dropped} adapter drops"
    )
    print(
        f"refresh: {stats.publishes} publishes ({stats.published_slots} slots), "
        f"final version {system.store.version}, "
        f"max publish lag {stats.max_publish_lag_s:.0f}s (event time), "
        f"{stats.backpressure_waits} backpressure waits"
    )
    print(f"serve: {served}/{len(tickets)} concurrent queries answered")
    try:
        _hold_admin(args)
    finally:
        _stop_admin(admin)
    if _obs_requested(args):
        _export_obs(args)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``top`` subcommand: live dashboard over a running admin endpoint.

    Point it at a ``repro serve --admin-port N`` / ``repro stream
    --admin-port N`` process; it polls ``/healthz`` and redraws
    throughput, latency percentiles, publish lag, store version and the
    per-SLO burn table.  Ctrl-C exits cleanly.
    """
    from repro.obs.health.top import run_top

    return run_top(
        args.url,
        interval_s=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


#: Experiment registry: name -> module path inside repro.experiments.
EXPERIMENTS = (
    "table2",
    "table3",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "ablations",
    "theta_sweep",
    "query_patterns",
    "scalability",
    "allocation_study",
    "fixed_vs_crowd",
    "noise_sensitivity",
    "daily_refresh",
    "stream_replay",
    "leaderboard",
)


def cmd_experiment(args: argparse.Namespace) -> int:
    """``experiment`` subcommand."""
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.which}")
    if args.scale == "paper":
        module.main()
        return 0
    # Quick scale: call run() explicitly and print with the module's
    # formatter (main() defaults to paper scale).
    scale = ExperimentScale.QUICK
    if args.which == "figure4":
        print(module.format_table(module.run_ocs_runtime(scale)))
        print(module.format_table(module.run_estimator_runtime(scale)))
    elif args.which == "ablations":
        print(module.format_table(module.run_all(scale)))
    else:
        print(module.format_table(module.run(scale)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CrowdRTSE (ICDE 2018) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_dataset = subparsers.add_parser("dataset", help="build and describe a dataset")
    _add_dataset_args(p_dataset)
    p_dataset.add_argument("--save-network", help="write the network JSON here")
    p_dataset.add_argument("--save-history", help="write the training history .npz here")
    p_dataset.set_defaults(func=cmd_dataset)

    p_fit = subparsers.add_parser("fit", help="run the offline stage")
    _add_dataset_args(p_fit)
    p_fit.add_argument("--init", choices=("empirical", "random"), default="empirical")
    p_fit.add_argument("--output", help="write the fitted RTF model .npz here")
    p_fit.set_defaults(func=cmd_fit)

    p_query = subparsers.add_parser("query", help="answer one realtime query")
    _add_dataset_args(p_query)
    p_query.add_argument("--budget", type=int, default=30, help="crowdsourcing budget K")
    p_query.add_argument("--theta", type=float, default=0.92, help="redundancy bound")
    p_query.add_argument(
        "--selector",
        choices=("hybrid", "ratio", "objective", "random"),
        default="hybrid",
    )
    p_query.add_argument("--day", type=int, default=0, help="test day to query")
    p_query.add_argument("--verbose", action="store_true", help="print per-road rows")
    _add_obs_args(p_query)
    p_query.set_defaults(func=cmd_query)

    p_refresh = subparsers.add_parser(
        "refresh", help="replay test days through the versioned model store"
    )
    _add_dataset_args(p_refresh)
    p_refresh.set_defaults(roads=60, queried=10, train_days=8, test_days=3, slots=4)
    p_refresh.add_argument("--budget", type=int, default=20, help="crowdsourcing budget K")
    p_refresh.add_argument(
        "--learning-rate", type=float, default=0.05,
        help="forgetting factor η of the online updater",
    )
    p_refresh.add_argument(
        "--days", type=int, default=None,
        help="number of test days to replay (default: all)",
    )
    _add_obs_args(p_refresh)
    p_refresh.set_defaults(func=cmd_refresh)

    p_exp = subparsers.add_parser("experiment", help="run a paper table/figure")
    p_exp.add_argument("which", choices=EXPERIMENTS)
    p_exp.add_argument("--scale", choices=("paper", "quick"), default="quick")
    p_exp.set_defaults(func=cmd_experiment)

    p_stream = subparsers.add_parser(
        "stream", help="replay a probe feed through the streaming refresher"
    )
    _add_dataset_args(p_stream)
    p_stream.set_defaults(roads=60, queried=10, train_days=8, test_days=3, slots=6)
    p_stream.add_argument(
        "--days", type=int, default=None,
        help="number of test days to stream (default: all)",
    )
    p_stream.add_argument(
        "--stream-slots", type=int, default=3,
        help="how many consecutive slots (from the dataset slot) to fit and stream",
    )
    p_stream.add_argument(
        "--lateness-s", type=float, default=60.0,
        help="event-time grace period before a slot closes (late data beyond "
        "it is counted and dropped)",
    )
    p_stream.add_argument(
        "--learning-rate", type=float, default=0.1,
        help="forgetting factor η of the online updater",
    )
    p_stream.add_argument(
        "--coverage", type=float, default=0.5,
        help="fraction of roads reporting per slot in the synthesized feed",
    )
    p_stream.add_argument(
        "--queries", type=int, default=4,
        help="concurrent QueryService requests submitted during the replay",
    )
    p_stream.add_argument("--budget", type=int, default=15, help="crowdsourcing budget K")
    p_stream.add_argument(
        "--feed", help="replay this #-delimited JSONL feed file instead of synthesizing"
    )
    p_stream.add_argument(
        "--save-feed", help="write the synthesized feed as JSONL here"
    )
    _add_obs_args(p_stream)
    _add_admin_args(p_stream)
    p_stream.set_defaults(func=cmd_stream)

    p_stats = subparsers.add_parser(
        "stats", help="run an instrumented query and dump telemetry"
    )
    _add_dataset_args(p_stats)
    p_stats.set_defaults(roads=60, queried=10, train_days=8, test_days=2, slots=4)
    p_stats.add_argument("--budget", type=int, default=20, help="crowdsourcing budget K")
    p_stats.add_argument(
        "--selector",
        choices=("hybrid", "ratio", "objective", "random"),
        default="hybrid",
    )
    _add_obs_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_serve = subparsers.add_parser(
        "serve", help="replay a workload through the concurrent QueryService"
    )
    _add_dataset_args(p_serve)
    p_serve.set_defaults(roads=80, queried=15, train_days=10, test_days=3, slots=6)
    p_serve.add_argument(
        "--requests", help="JSON-lines workload trace to replay (see docs/API.md)"
    )
    p_serve.add_argument(
        "--n-requests", type=int, default=48,
        help="synthesized workload size when --requests is not given",
    )
    p_serve.add_argument(
        "--duplication", type=int, default=4,
        help="requests per unique (slot, queried) pair in the synthesized workload",
    )
    p_serve.add_argument("--budget", type=int, default=15, help="crowdsourcing budget K")
    p_serve.add_argument("--workers", type=int, default=2, help="worker threads")
    p_serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission queue bound (beyond it, requests are rejected)",
    )
    p_serve.add_argument(
        "--coalesce-window-ms", type=float, default=0.0,
        help="wait this long after picking up a request to batch same-slot arrivals",
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; near-deadline requests degrade to Per",
    )
    p_serve.add_argument(
        "--serve-slots", type=int, default=3,
        help="how many consecutive slots (from the dataset slot) to fit and serve",
    )
    p_serve.add_argument(
        "--backend", default="rtf_gsp",
        help="estimator backend answering the requests (any registered "
        "name: rtf_gsp, per, lasso, grmc, lsmrn, gmrf, ...)",
    )
    p_serve.add_argument(
        "--shadow", default=None, metavar="BACKEND",
        help="score this challenger backend in shadow mode on every "
        "completed request (serve.shadow.* metrics; answers unchanged)",
    )
    _add_obs_args(p_serve)
    _add_admin_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_top = subparsers.add_parser(
        "top", help="live health dashboard over a running admin endpoint"
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="base URL of the admin endpoint (repro serve --admin-port ...)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, help="refresh interval in seconds"
    )
    p_top.add_argument(
        "--iterations", type=int, default=None,
        help="render this many frames and exit (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs/CI)",
    )
    p_top.set_defaults(func=cmd_top)

    return parser


#: Exit codes: success / user error (matches argparse) / internal bug.
EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INTERNAL_ERROR = 70  # BSD sysexits EX_SOFTWARE


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Every subcommand reports failures through the same exit codes:
    ``ReproError`` means the user asked for something the system cannot
    do (bad trace, invalid config, stale model — exit 2, like argparse's
    own usage errors); anything else escaping is a bug (exit 70).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except repro.ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except KeyboardInterrupt:
        raise
    except Exception:
        import traceback

        traceback.print_exc()
        print(
            "internal error: this is a bug in the reproduction, not your input",
            file=sys.stderr,
        )
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
