"""Concurrency tests: QueryService under threaded clients + hot refresh.

Modeled on test_store_concurrency.py: client threads hammer the service
while a writer publishes model refreshes.  Because every batch pins one
snapshot, no request may ever observe a torn model (estimates from one
generation labeled with another's version), and the service must keep
resolving every ticket — no deadlocks, no lost requests.

Run in CI with faulthandler and a hard timeout so a deadlock shows a
stack dump instead of hanging the job.
"""

from __future__ import annotations

import sys
import threading
from typing import List

import numpy as np
import pytest

import repro
from repro.serve import EstimationRequest, QueryService, ServeConfig
from tests.test_serve import CountingMarket


@pytest.fixture(scope="module")
def world(tiny_dataset):
    system = repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=[tiny_dataset.slot]
    )
    return {
        "data": tiny_dataset,
        "system": system,
        "truth": repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        ),
        "local": tiny_dataset.test_history.local_slot(tiny_dataset.slot),
    }


def _request(world, seed):
    data = world["data"]
    return EstimationRequest(
        queried=tuple(data.queried[:6]),
        slot=data.slot,
        budget=12,
        market=repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(seed),
        ),
        truth=world["truth"],
        rng=np.random.default_rng(seed),
        warm_start=False,
    )


class TestServeUnderRefresh:
    def test_clients_race_hot_refresh_without_torn_results(self, world):
        """Every result is finite, version-stamped, and from a version
        that existed while the request was in flight."""
        data = world["data"]
        system = world["system"]
        config = ServeConfig(num_workers=3, max_queue_depth=256)
        service = QueryService(system, config=config)
        stop = threading.Event()
        errors_seen: List[str] = []
        served_versions: List[int] = []
        lock = threading.Lock()

        def writer():
            # Keep publishing until every client is done, so serving and
            # refreshing genuinely overlap regardless of relative speed.
            day = 0
            while not stop.is_set():
                system.refresh(
                    {data.slot: data.test_history.day(day)[world["local"]]},
                    learning_rate=0.2,
                )
                day = (day + 1) % data.test_history.n_days

        def client(seed: int):
            for k in range(5):
                floor = system.store.version
                try:
                    result = service.serve(_request(world, seed * 1000 + k))
                except repro.ReproError as exc:
                    errors_seen.append(f"client {seed}: {exc!r}")
                    return
                ceiling = system.store.version
                if result.degraded:
                    errors_seen.append("unexpected degradation")
                    return
                if not np.all(np.isfinite(result.estimates_kmh)):
                    errors_seen.append("non-finite estimates under refresh")
                    return
                if not (floor <= result.model_version <= ceiling):
                    errors_seen.append(
                        f"torn version: served v{result.model_version} "
                        f"outside [{floor}, {ceiling}]"
                    )
                    return
                with lock:
                    served_versions.append(result.model_version)

        clients = [
            threading.Thread(target=client, args=(s,)) for s in range(4)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in clients:
            thread.start()
        writer_thread.start()
        for thread in clients:
            thread.join(timeout=300)
        stop.set()
        writer_thread.join(timeout=300)
        service.close()
        assert not errors_seen, errors_seen
        assert served_versions, "clients never completed a request"
        # The stream of answers spans multiple model generations — the
        # refreshes really happened underneath live serving.
        assert len(set(served_versions)) > 1

    def test_concurrent_submitters_all_resolve(self, world):
        """Many threads submitting into a small queue: every ticket either
        resolves or fails with typed backpressure — none hang."""
        config = ServeConfig(num_workers=2, max_queue_depth=8)
        service = QueryService(world["system"], config=config)
        outcomes: List[str] = []
        lock = threading.Lock()

        def submitter(seed: int):
            for k in range(6):
                try:
                    result = service.serve(
                        _request(world, seed * 100 + k), timeout=120
                    )
                    label = "ok" if not result.degraded else "degraded"
                except repro.OverloadedError:
                    label = "rejected"
                with lock:
                    outcomes.append(label)

        threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        service.close()
        assert len(outcomes) == 30
        assert outcomes.count("ok") >= 1

    def test_close_during_load_resolves_every_ticket(self, world):
        """close(drain=True) after a burst: nothing is left hanging."""
        config = ServeConfig(num_workers=2, max_queue_depth=64)
        service = QueryService(world["system"], config=config)
        tickets = [service.submit(_request(world, 7000 + k)) for k in range(10)]
        service.close(drain=True)
        for ticket in tickets:
            result = ticket.result(timeout=60)
            assert np.all(np.isfinite(result.estimates_kmh))

    def test_refresh_never_blocks_on_serving(self, world):
        """A writer publishing during a long queue drain finishes promptly
        (snapshot pinning is lock-free for the writer)."""
        data = world["data"]
        system = world["system"]
        service = QueryService(system, config=ServeConfig(num_workers=2))
        tickets = [service.submit(_request(world, 9000 + k)) for k in range(8)]
        done = threading.Event()

        def writer():
            for day in range(data.test_history.n_days):
                system.refresh(
                    {data.slot: data.test_history.day(day)[world["local"]]},
                    learning_rate=0.2,
                )
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=120)
        assert done.is_set(), "refresh writer stalled behind serving"
        for ticket in tickets:
            ticket.result(timeout=120)
        service.close()


class TestCoalescingUnderWorkerRace:
    N_TRIALS = 60

    @staticmethod
    def _probe_calls_for_one_burst(world, trial):
        data = world["data"]
        market = CountingMarket(
            repro.CrowdMarket(
                data.network, data.pool, data.cost_model,
                rng=np.random.default_rng(trial),
            )
        )
        request = EstimationRequest(
            queried=tuple(data.queried[:6]),
            slot=data.slot,
            budget=12,
            market=market,
            truth=world["truth"],
            warm_start=False,
        )
        service = QueryService(
            world["system"], config=ServeConfig(num_workers=4), autostart=False
        )
        tickets = [service.submit(request) for _ in range(16)]
        service.start()
        results = [ticket.result(timeout=60) for ticket in tickets]
        service.close()
        assert sum(not r.coalesced for r in results) >= 1
        return market.probe_calls

    def test_identical_burst_probes_once_across_workers(self, world):
        """Four workers racing for one queued burst of 16 duplicates:
        the leader and its followers leave the queue together, so the
        shared market is probed exactly once per burst."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers' pops finely
        try:
            calls = [
                self._probe_calls_for_one_burst(world, trial)
                for trial in range(self.N_TRIALS)
            ]
        finally:
            sys.setswitchinterval(interval)
        split = [(trial, n) for trial, n in enumerate(calls) if n != 1]
        assert split == []
