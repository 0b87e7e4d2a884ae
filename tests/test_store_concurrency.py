"""Concurrency tests: snapshot-isolated serving under a hot writer.

Readers hammer :meth:`ModelStore.current` / :meth:`CrowdRTSE.answer_query`
while a writer publishes refreshes; no reader may ever observe a mixed
version (parameters from one generation, correlations from another).
The hypothesis block checks the copy-on-write publish invariant over
arbitrary touched-slot subsets.

Run in CI with faulthandler and a hard timeout so a deadlock shows a
stack dump instead of hanging the job.
"""

from __future__ import annotations

import threading
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.inference import empirical_slot_parameters
from repro.core.rtf import RTFModel, params_signature
from repro.core.store import ModelStore

SLOTS = (90, 91, 92, 93)
SETTINGS = settings(max_examples=20, deadline=None)


@pytest.fixture(scope="module")
def world(small_world):
    network = small_world["network"]
    history = small_world["history"]
    model = RTFModel(
        network,
        [
            empirical_slot_parameters(network, history.slot_samples(t), t)
            for t in SLOTS
        ],
    )
    day0 = history.day(0)
    day1 = history.day(1)
    return {
        "network": network,
        "model": model,
        "samples": [
            {t: day[history.local_slot(t)] for t in SLOTS}
            for day in (day0, day1)
        ],
    }


class TestConcurrentServing:
    def test_readers_never_see_mixed_versions(self, world):
        """Every artifact read off one pinned snapshot is self-consistent.

        The writer publishes ~50 refreshes while readers repeatedly pin
        a snapshot and check that the digest recorded for a slot still
        matches a recomputed signature of the parameters they read —
        which fails if a publish ever swapped parameters under a live
        snapshot.
        """
        store = ModelStore(world["model"])
        stop = threading.Event()
        errors: List[str] = []

        def writer():
            rng = np.random.default_rng(7)
            for k in range(50):
                sample = world["samples"][k % 2]
                touched = list(rng.choice(SLOTS, size=2, replace=False))
                store.refresh({int(t): sample[int(t)] for t in touched})
            stop.set()

        def reader():
            while not stop.is_set():
                snapshot = store.current()
                version = snapshot.version
                for t in SLOTS:
                    params = snapshot.slot(t)
                    if snapshot.digest(t) != params_signature(params):
                        errors.append(
                            f"v{version}: slot {t} digest/params mismatch"
                        )
                        return
                # Derived artifacts must belong to the same generation.
                snapshot.correlation_matrix(SLOTS[0])
                if snapshot.version != version:
                    errors.append("snapshot version mutated in place")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        for thread in readers:
            thread.join(timeout=120)
        assert not errors, errors
        assert store.version == 51

    def test_concurrent_queries_are_version_consistent(self, tiny_dataset):
        """Full answer_query spans racing a refresh stay self-consistent."""
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        local = data.test_history.local_slot(data.slot)
        truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
        errors: List[str] = []
        stop = threading.Event()

        def writer():
            for day in range(data.test_history.n_days):
                system.refresh(
                    {data.slot: data.test_history.day(day)[local]},
                    learning_rate=0.3,
                )
            stop.set()

        def reader(seed: int):
            while not stop.is_set():
                market = repro.CrowdMarket(
                    data.network,
                    data.pool,
                    data.cost_model,
                    rng=np.random.default_rng(seed),
                )
                result = system.answer_query(
                    repro.EstimationRequest(
                        queried=data.queried,
                        slot=data.slot,
                        budget=15,
                        rng=np.random.default_rng(seed),
                        warm_start=False,
                    ),
                    market=market, truth=truth,
                )
                if not np.all(np.isfinite(result.estimates_kmh)):
                    errors.append("non-finite estimates under refresh")
                    return

        threads = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=300)
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert system.store.version == data.test_history.n_days + 1

    def test_single_flight_derivation(self, world):
        """Concurrent first lookups of one matrix derive it exactly once."""
        store = ModelStore(world["model"])
        snapshot = store.current()
        barrier = threading.Barrier(6)
        results: List[np.ndarray] = []

        def lookup():
            barrier.wait()
            results.append(snapshot.correlation_matrix(92))

        threads = [threading.Thread(target=lookup) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert store.stats.correlation_derivations == 1
        assert all(m is results[0] for m in results)


class TestWarmStartUnderRefresh:
    def test_warm_seeded_answers_stay_correct_under_hot_refresh(
        self, tiny_dataset
    ):
        """Warm-start caching races a hot writer without corrupting answers.

        Readers answer warm-started queries (storing/consuming seeds on
        their pinned snapshots) while the writer publishes refreshes
        that drop the touched slot's seed in the same atomic publish.
        Each warm answer is checked against a cold-start answer off the
        *same pinned snapshot* — a seed leaking across digests, or a
        race between the artifact drop and a concurrent store, would
        surface as a divergent field or an exception.
        """
        data = tiny_dataset
        system = repro.CrowdRTSE.fit(
            data.network, data.train_history, slots=[data.slot]
        )
        local = data.test_history.local_slot(data.slot)
        truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
        errors: List[str] = []
        stop = threading.Event()

        def request(warm_start: bool):
            return repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=15,
                warm_start=warm_start,
            )

        def market(seed: int):
            return repro.CrowdMarket(
                data.network,
                data.pool,
                data.cost_model,
                rng=np.random.default_rng(seed),
            )

        def writer():
            for day in range(data.test_history.n_days):
                system.refresh(
                    {data.slot: data.test_history.day(day)[local]},
                    learning_rate=0.3,
                )
            stop.set()

        def reader(seed: int):
            while not stop.is_set():
                snapshot = system.store.current()
                warm = system.answer_query(
                    request(True), market=market(seed), truth=truth,
                    snapshot=snapshot,
                )
                cold = system.answer_query(
                    request(False), market=market(seed), truth=truth,
                    snapshot=snapshot,
                )
                if warm.probes != cold.probes:
                    errors.append("warm/cold probes diverged on one snapshot")
                    return
                if not np.allclose(
                    warm.full_field_kmh, cold.full_field_kmh, atol=1e-2
                ):
                    errors.append(
                        "warm-started field diverged from cold start "
                        "beyond the solver tolerance"
                    )
                    return

        readers = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=300)
        for thread in readers:
            thread.join(timeout=300)
        assert not errors, errors
        assert system.store.version == data.test_history.n_days + 1


class TestPublishProperty:
    @SETTINGS
    @given(
        touched=st.sets(st.sampled_from(SLOTS), min_size=1),
        eta=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_cow_publish_shares_untouched_arrays(self, world, touched, eta):
        """COW invariant over arbitrary refresh subsets.

        After refreshing any subset of slots, every untouched slot of
        the new snapshot holds the *same* parameter arrays (``is``), and
        every touched slot got a fresh digest.
        """
        store = ModelStore(world["model"])
        before = store.current()
        after = store.refresh(
            {t: world["samples"][0][t] for t in touched}, learning_rate=eta
        )
        assert after.version == before.version + 1
        for t in SLOTS:
            if t in touched:
                assert after.slot(t) is not before.slot(t)
                assert after.digest(t) != before.digest(t)
            else:
                assert after.slot(t) is before.slot(t)
                assert after.slot(t).mu is before.slot(t).mu
                assert after.slot(t).sigma is before.slot(t).sigma
                assert after.slot(t).rho is before.slot(t).rho
                assert after.digest(t) == before.digest(t)
