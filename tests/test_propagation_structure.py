"""One owner for GSP propagation structures: the snapshot's artifact cache.

Each slot digest's :class:`~repro.core.gsp.PropagationStructure` is
compiled once, by the store, from the store's own (possibly
file-seeded) propagation arrays; the serving path hands it to the
engine.  These tests pin the three promises that makes:

* **single compile** — one compile per slot digest, also when two
  threads race for the same slot (counted by ``StoreStats``);
* **no recompute after load** — a store loaded from a snapshot file
  written with its propagation arrays serves every slot without calling
  ``RTFSlot.propagation_arrays``;
* **identical answers** — what the loaded store serves equals, bit for
  bit, what a freshly fitted, never persisted system serves;
* **bare-state estimates** — a direct ``rtf_gsp`` estimate on a
  snapshot's own state reads that snapshot's structure, and an unpickled
  state compiles its own.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

import repro
import repro.core.gsp as gsp_module
import repro.core.store as store_module
from repro.core.gsp import GSPEngine
from repro.core.rtf import RTFSlot
from repro.core.snapshot_io import load_store, write_snapshot
from repro.core.store import ModelStore
from repro.datasets import truth_oracle_for
from repro.serve import QueryService, ServeConfig


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    """A system fitted on every slot of the tiny dataset."""
    return repro.CrowdRTSE.fit(tiny_dataset.network, tiny_dataset.train_history)


def _request(data, slot):
    """A paper-shaped request whose market and RNG are seeded by the slot."""
    return repro.EstimationRequest(
        queried=data.queried,
        slot=slot,
        budget=20,
        market=repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(slot)
        ),
        truth=truth_oracle_for(data.test_history, 0, slot),
        rng=np.random.default_rng(slot),
    )


def _answer(system, data, slot):
    return system.answer_query(_request(data, slot))


def _loaded(tmp_path, fitted, data):
    path = tmp_path / "model.snap"
    write_snapshot(path, fitted.model, include_propagation=True)
    return repro.CrowdRTSE(data.network, store=load_store(path, data.network))


class TestSingleCompile:
    def test_one_compile_per_slot_digest_when_serving(self, fitted, tiny_dataset):
        data = tiny_dataset
        system = repro.CrowdRTSE(data.network, store=ModelStore(fitted.model))
        slots = system.store.current().slots
        for _ in range(2):
            for slot in slots:
                result = _answer(system, data, slot)
                assert result.gsp.provenance.structure_cache_hit
        stats = system.store.stats
        assert stats.propagation_derivations == len(slots)
        assert stats.propagation_hits == len(slots)

    def test_racing_threads_compile_once(self, fitted, monkeypatch):
        store = ModelStore(fitted.model)
        snapshot = store.current()
        slot = snapshot.slots[0]
        real = store_module.build_propagation_structure
        compiles = []
        entered = threading.Event()

        def slow_build(network, arrays):
            compiles.append(threading.get_ident())
            entered.set()
            # Hold the compile open so the second reader arrives while
            # it is in flight.
            time.sleep(0.2)
            return real(network, arrays)

        monkeypatch.setattr(store_module, "build_propagation_structure", slow_build)
        barrier = threading.Barrier(2)
        results, errors = {}, []

        def read(name):
            try:
                barrier.wait(timeout=5)
                if name == "second":
                    entered.wait(timeout=5)
                results[name] = snapshot.propagation_structure(slot)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(n,)) for n in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(compiles) == 1
        assert results["first"] is results["second"]
        assert store.stats.propagation_derivations == 1
        assert store.stats.propagation_hits == 1


class TestLoadedStore:
    def test_no_propagation_arrays_recomputed_after_load(
        self, tmp_path, fitted, tiny_dataset, monkeypatch
    ):
        data = tiny_dataset
        system = _loaded(tmp_path, fitted, data)
        calls = []
        real = RTFSlot.propagation_arrays

        def counting(self, network):
            calls.append(self.slot)
            return real(self, network)

        monkeypatch.setattr(RTFSlot, "propagation_arrays", counting)
        slots = system.store.current().slots
        for slot in slots:
            _answer(system, data, slot)
        assert calls == []
        assert system.store.stats.propagation_derivations == len(slots)

    def test_served_fields_equal_a_fresh_unpersisted_system(
        self, tmp_path, fitted, tiny_dataset
    ):
        data = tiny_dataset
        loaded = _loaded(tmp_path, fitted, data)
        fresh = repro.CrowdRTSE.fit(data.network, data.train_history)
        for slot in fresh.store.current().slots:
            want, got = _answer(fresh, data, slot), _answer(loaded, data, slot)
            assert got.selection.selected == want.selection.selected
            assert got.probes == want.probes
            assert got.gsp.sweeps == want.gsp.sweeps
            np.testing.assert_array_equal(got.full_field_kmh, want.full_field_kmh)
            np.testing.assert_array_equal(got.estimates_kmh, want.estimates_kmh)

    def test_served_through_the_service(self, tmp_path, fitted, tiny_dataset):
        data = tiny_dataset
        loaded = _loaded(tmp_path, fitted, data)
        slot = data.slot
        with QueryService(loaded, config=ServeConfig(num_workers=1)) as service:
            served = service.serve(_request(data, slot))
        direct = _answer(fitted, data, slot)
        np.testing.assert_array_equal(
            served.result.full_field_kmh, direct.full_field_kmh
        )
        assert served.result.gsp.provenance.structure_cache_hit


class TestBareStateEstimate:
    def _world(self, fitted, data, monkeypatch):
        system = repro.CrowdRTSE(data.network, store=ModelStore(fitted.model))
        probes = _answer(system, data, data.slot).probes
        engine_compiles = []
        real = gsp_module.build_propagation_structure

        def counting(network, arrays):
            engine_compiles.append(1)
            return real(network, arrays)

        monkeypatch.setattr(gsp_module, "build_propagation_structure", counting)
        return system, probes, engine_compiles

    def test_repeated_estimates_reuse_the_snapshot_structure(
        self, fitted, tiny_dataset, monkeypatch
    ):
        data = tiny_dataset
        system, probes, engine_compiles = self._world(fitted, data, monkeypatch)
        stats = system.store.stats
        compiled = stats.propagation_derivations
        first = system.estimate_with_backend("rtf_gsp", probes, data.slot)
        for _ in range(3):
            again = system.estimate_with_backend("rtf_gsp", probes, data.slot)
            np.testing.assert_array_equal(again.speeds, first.speeds)
        assert engine_compiles == []
        assert stats.propagation_derivations == compiled
        snapshot = system.store.current()
        cold = GSPEngine(data.network).propagate(snapshot.slot(data.slot), probes)
        np.testing.assert_array_equal(first.speeds, cold.speeds)

    def test_unpickled_state_compiles_its_own(
        self, fitted, tiny_dataset, monkeypatch
    ):
        data = tiny_dataset
        system, probes, engine_compiles = self._world(fitted, data, monkeypatch)
        snapshot = system.store.current()
        state = snapshot.backend_state("rtf_gsp")
        revived = pickle.loads(pickle.dumps(state))
        backend = system.store.backend_instance("rtf_gsp")
        direct = backend.estimate(state, probes, data.slot)
        assert engine_compiles == []
        from_pickle = backend.estimate(revived, probes, data.slot)
        assert engine_compiles == [1]
        np.testing.assert_array_equal(from_pickle.speeds, direct.speeds)
