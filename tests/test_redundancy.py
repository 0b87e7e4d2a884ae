"""θ-redundancy sets: OCS's Eq. 15 test from one bounded search per θ.

A :class:`CorrelationRows` view answers ``Γ_R[a, b] > θ + slack`` through
:meth:`CorrelationRows.redundant`, which reads one redundancy set per θ,
derived by a Dijkstra bounded by ``-log θ``.  Everything here pins that
test to the dense matrix *bitwise*: the sets themselves, every solver's
selection and ``is_feasible``, what a served query derives, and the set's
lifetime (single-flight per θ, a few θ per view, dropped at publish).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.core.correlation as correlation_module
from repro.core.correlation import (
    REDUNDANCY_SLACK,
    CorrelationRows,
    road_road_correlation_matrix,
)
from repro.core.inference import empirical_slot_parameters
from repro.core.ocs import (
    OCSInstance,
    brute_force_ocs,
    hybrid_greedy,
    objective_greedy,
    random_selection,
    ratio_greedy,
)
from repro.experiments.ablations import local_search
from repro.core.rtf import RTFModel, RTFSlot
from repro.core.store import _KIND_CORRELATION_ROWS, ModelStore
from repro.datasets import truth_oracle_for
from repro.errors import ModelError

@pytest.fixture(scope="module")
def fitted_model(small_world):
    """Every slot of the small world's history, fitted."""
    network = small_world["network"]
    history = small_world["history"]
    slots = range(history.slot_offset, history.slot_offset + history.n_slots)
    return RTFModel(
        network,
        [empirical_slot_parameters(network, history.slot_samples(t), t) for t in slots],
    )


def _network(n, edges):
    roads = [repro.Road(road_id=f"r{i}") for i in range(n)]
    return repro.TrafficNetwork(roads, [(f"r{i}", f"r{j}") for i, j in edges])


def _assert_matches_dense(network, rho, theta):
    """Every road's test against every road equals the dense threshold."""
    dense = road_road_correlation_matrix(network, rho)
    sets = []
    view = CorrelationRows(network, rho, on_redundancy=lambda: sets.append(1))
    everyone = np.arange(network.n_roads)
    for road in range(network.n_roads):
        np.testing.assert_array_equal(
            view.redundant(road, everyone, theta),
            dense[road] > theta + REDUNDANCY_SLACK,
        )
    assert len(sets) == 1


@st.composite
def graphs(draw):
    """Small road graphs with ρ = 0, ρ = 1, ρ on the θ grid and free ρ."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    network = _network(n, edges)
    rho = np.array(
        [
            draw(
                st.one_of(
                    st.sampled_from([0.0, 1.0, 0.92, 0.6, 0.999999]),
                    st.floats(0.0, 1.0),
                )
            )
            for _ in edges
        ]
    )
    theta = draw(
        st.one_of(
            st.sampled_from([1.0, 0.999999, 0.92, 0.6]),
            st.floats(0.01, 1.0),
        )
    )
    return network, rho, theta


class TestSetsMatchDense:
    @settings(max_examples=120, deadline=None)
    @given(case=graphs())
    def test_random_graphs(self, case):
        network, rho, theta = case
        _assert_matches_dense(network, rho, theta)

    @pytest.mark.parametrize("theta", [1.0, 0.999, 0.92, 0.5])
    def test_unit_zero_and_disconnected_roads(self, theta):
        """A ρ = 1 chain 0-1-2 (the 1e-15 weight nudge), a zero-ρ edge
        2-3 and an isolated road 4."""
        network = _network(5, [(0, 1), (1, 2), (2, 3)])
        rho = np.array([1.0, 1.0, 0.0])
        _assert_matches_dense(network, rho, theta)
        view = CorrelationRows(network, rho)
        everyone = np.arange(5)
        if theta == 1.0:
            assert not view.redundant(0, everyone, theta).any()
        else:
            np.testing.assert_array_equal(
                view.redundant(1, everyone, theta), [True, True, True, False, False]
            )
            np.testing.assert_array_equal(
                view.redundant(4, everyone, theta), [False] * 4 + [True]
            )

    def test_edgeless_network(self):
        network = _network(3, [])
        _assert_matches_dense(network, np.zeros(0), 0.5)

    def test_every_fitted_slot(self, fitted_model):
        network = fitted_model.network
        for slot in fitted_model.slots:
            for theta in (0.92, 0.8, 0.6):
                _assert_matches_dense(network, fitted_model.slot(slot).rho, theta)

    def test_bounded_chunks_cover_every_source(self, fitted_model, monkeypatch):
        """Memory stays O(pairs + chunk · n): the set is the same when
        the search runs a few sources at a time."""
        monkeypatch.setattr(correlation_module, "_REDUNDANCY_CHUNK_ENTRIES", 7 * 60)
        rho = fitted_model.slot(fitted_model.slots[0]).rho
        _assert_matches_dense(fitted_model.network, rho, 0.6)

    def test_rejects_bad_theta_and_source(self, fitted_model):
        network = fitted_model.network
        view = CorrelationRows(network, fitted_model.slot(fitted_model.slots[0]).rho)
        for theta in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ModelError):
                view.redundant(0, [1], theta)
        for source in (-1, network.n_roads):
            with pytest.raises(IndexError):
                view.redundant(source, [1], 0.92)


class TestViewMemo:
    def _view(self, fitted_model, **kwargs):
        rho = fitted_model.slot(fitted_model.slots[0]).rho
        return CorrelationRows(fitted_model.network, rho, **kwargs)

    def test_one_set_per_theta_and_no_rows(self, fitted_model):
        sets, rows = [], []
        view = self._view(
            fitted_model, on_derive=rows.append, on_redundancy=lambda: sets.append(1)
        )
        for road in range(20):
            view.redundant(road, np.arange(60), 0.92)
        assert len(sets) == 1 and rows == []

    def test_a_few_theta_are_kept(self, fitted_model):
        sets = []
        view = self._view(fitted_model, on_redundancy=lambda: sets.append(1))
        kept = correlation_module._REDUNDANCY_THETAS
        thetas = [0.5 + 0.05 * k for k in range(kept + 1)]
        for theta in thetas:
            view.redundant(0, [1], theta)
        assert len(sets) == kept + 1
        view.redundant(0, [1], thetas[-1])
        view.redundant(0, [1], thetas[1])
        assert len(sets) == kept + 1
        view.redundant(0, [1], thetas[0])  # the least recent one was evicted
        assert len(sets) == kept + 2

    def test_cached_dense_is_thresholded(self, fitted_model):
        rho = fitted_model.slot(fitted_model.slots[0]).rho
        dense = road_road_correlation_matrix(fitted_model.network, rho)
        sets, rows = [], []
        view = self._view(
            fitted_model,
            dense=lambda: dense,
            on_derive=rows.append,
            on_redundancy=lambda: sets.append(1),
        )
        np.testing.assert_array_equal(
            view.redundant(3, np.arange(60), 0.6), dense[3] > 0.6 + REDUNDANCY_SLACK
        )
        assert sets == [] and rows == []


@pytest.fixture(scope="module")
def world(tiny_dataset, tiny_system):
    data = tiny_dataset
    params = tiny_system.model.slot(data.slot)
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model, rng=np.random.default_rng(0)
    )
    candidates = market.candidate_roads()
    return {
        "data": data,
        "params": params,
        "dense": road_road_correlation_matrix(data.network, params.rho),
        "candidates": candidates,
        "costs": data.cost_model.costs_of(candidates).astype(float),
    }


@st.composite
def queries(draw):
    queried = draw(
        st.lists(st.integers(0, 79), min_size=1, max_size=25, unique=True)
    )
    budget = draw(st.integers(1, 45))
    theta = draw(st.sampled_from([0.5, 0.6, 0.8, 0.92, 1.0]))
    return tuple(queried), float(budget), theta


def _same(a, b):
    assert a.selected == b.selected
    assert a.objective == b.objective
    assert a.cost == b.cost


class TestSelectionsMatchDense:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=queries(), seed=st.integers(0, 2**16))
    def test_every_solver_and_feasibility(self, world, query, seed):
        queried, budget, theta = query

        def instances(candidates, costs):
            kwargs = dict(
                queried=queried,
                candidates=tuple(candidates),
                costs=costs,
                budget=budget,
                theta=theta,
                sigma=world["params"].sigma,
            )
            view = CorrelationRows(world["data"].network, world["params"].rho)
            return (
                OCSInstance(corr=world["dense"], **kwargs),
                OCSInstance(corr=view, **kwargs),
            )

        dense, rows = instances(world["candidates"], world["costs"])
        for solve in (hybrid_greedy, ratio_greedy, objective_greedy):
            _same(solve(dense), solve(rows))
        _same(
            random_selection(dense, np.random.default_rng(seed)),
            random_selection(rows, np.random.default_rng(seed)),
        )
        start = hybrid_greedy(dense).selected
        _same(local_search(dense, start), local_search(rows, start))
        _same(local_search(dense), local_search(rows))

        rng = np.random.default_rng(seed)
        for _ in range(10):
            size = int(rng.integers(0, 8))
            picks = [int(r) for r in rng.choice(world["candidates"], size, replace=False)]
            assert dense.is_feasible(picks) == rows.is_feasible(picks)

        few = world["candidates"][:12]
        small_dense, small_rows = instances(few, world["costs"][:12])
        _same(brute_force_ocs(small_dense), brute_force_ocs(small_rows))


def _bumped(params: RTFSlot) -> RTFSlot:
    return RTFSlot(
        params.slot,
        params.mu * 1.05,
        params.sigma,
        np.clip(params.rho * 0.97, 0.0, 1.0),
    )


class TestServedQueryDerivations:
    def test_hybrid_on_a_fresh_digest_reads_only_query_rows(
        self, tiny_dataset, tiny_system
    ):
        """|R^q| rows (one batch at the build) and one set — no row per pick."""
        data = tiny_dataset
        system = repro.CrowdRTSE(data.network, store=ModelStore(tiny_system.model))
        system.store.publish([_bumped(tiny_system.model.slot(data.slot))])
        stats = system.store.stats
        rows_before = stats.correlation_row_derivations
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(3)
        )
        result = system.answer_query(
            repro.EstimationRequest(
                queried=data.queried, slot=data.slot, budget=30
            ),
            market=market,
            truth=truth_oracle_for(data.test_history, 0, data.slot),
        )
        assert result.selection.algorithm == "hybrid-greedy"
        assert len(result.selection.selected) > 1
        assert stats.correlation_row_derivations - rows_before == len(set(data.queried))
        assert stats.redundancy_derivations == 1
        assert stats.correlation_derivations == 0


class TestLifetime:
    def test_racing_threads_derive_one_set(self, fitted_model, monkeypatch):
        store = ModelStore(fitted_model)
        snapshot = store.current()
        slot = snapshot.slots[0]
        real = correlation_module._redundancy_set
        derived = []

        def slow(graph, theta):
            derived.append(theta)
            time.sleep(0.05)  # the other readers arrive while it is in flight
            return real(graph, theta)

        monkeypatch.setattr(correlation_module, "_redundancy_set", slow)
        dense = road_road_correlation_matrix(fitted_model.network, snapshot.slot(slot).rho)
        everyone = np.arange(fitted_model.network.n_roads)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results, errors = {}, []

        def read(name):
            try:
                barrier.wait(timeout=10)
                view = snapshot.correlation_rows(slot)
                results[name] = [
                    view.redundant(road, everyone, 0.92) for road in range(0, 60, 7)
                ]
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert derived == [0.92]
        assert store.stats.redundancy_derivations == 1
        for got in results.values():
            for road, mask in zip(range(0, 60, 7), got):
                np.testing.assert_array_equal(mask, dense[road] > 0.92 + REDUNDANCY_SLACK)

    def test_publish_drops_the_superseded_sets_with_their_view(self, fitted_model):
        store = ModelStore(fitted_model)
        old = store.current()
        refreshed, kept = old.slots[0], old.slots[1]
        for slot in (refreshed, kept):
            old.correlation_rows(slot).redundant(0, [1, 2], 0.92)
        assert store.stats.redundancy_derivations == 2
        stale_view = old.correlation_rows(refreshed)
        store.publish([_bumped(old.slot(refreshed))])
        new = store.current()
        cache = store._artifacts
        assert cache.peek(_KIND_CORRELATION_ROWS, old.digest(refreshed)) is None
        assert cache.peek(_KIND_CORRELATION_ROWS, old.digest(kept)) is not None
        new.correlation_rows(kept).redundant(0, [1, 2], 0.92)
        assert store.stats.redundancy_derivations == 2
        assert new.correlation_rows(refreshed) is not stale_view
        new.correlation_rows(refreshed).redundant(0, [1, 2], 0.92)
        assert store.stats.redundancy_derivations == 3
