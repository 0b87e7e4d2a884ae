"""Row-on-demand Γ_R: ``road_road_correlation_rows`` and ``CorrelationRows``.

OCS reads Γ_R values only from the rows sourced at ``R^q`` (its
θ-redundancy tests go through the sets of ``tests/test_redundancy.py``).
Serving derives just those rows, so everything here pins the row path
to the dense matrix *bitwise*: the rows themselves, the index
forms the solvers use (values and memory layout), every solver's
selection, and a whole ``answer_query`` after a publish.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.core.correlation as correlation_module
from repro.core.correlation import (
    CorrelationRows,
    road_road_correlation_matrix,
    road_road_correlation_rows,
)
from repro.core.inference import empirical_slot_parameters
from repro.core.ocs import (
    OCSInstance,
    _GreedyState,
    hybrid_greedy,
    objective_greedy,
    random_selection,
    ratio_greedy,
    trivial_solution,
)
from repro.core.rtf import RTFModel, RTFSlot
from repro.core.store import (
    _KIND_CORRELATION,
    _KIND_CORRELATION_ROWS,
    _KIND_PROPAGATION,
    _KIND_PROPAGATION_ARRAYS,
    ModelStore,
)
from repro.datasets import truth_oracle_for

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


def _isolated_world():
    """Five roads: a chain 0-1-2 with a zero-ρ edge 1-2, road 3-4 apart."""
    roads = [repro.Road(road_id=f"r{i}") for i in range(5)]
    network = repro.TrafficNetwork(
        roads, [("r0", "r1"), ("r1", "r2"), ("r3", "r4")]
    )
    rho = np.zeros(network.n_edges)
    rho[network.edge_id(0, 1)] = 0.8
    rho[network.edge_id(1, 2)] = 0.0
    rho[network.edge_id(3, 4)] = 1.0
    return network, rho


class TestRowsMatchDense:
    def test_every_fitted_slot(self, fitted_model):
        network = fitted_model.network
        rng = np.random.default_rng(5)
        for slot in fitted_model.slots:
            rho = fitted_model.slot(slot).rho
            dense = road_road_correlation_matrix(network, rho)
            sources = rng.permutation(network.n_roads)
            rows = road_road_correlation_rows(network, rho, sources)
            np.testing.assert_array_equal(rows, dense[sources])
            assert rows.flags.c_contiguous

    def test_zero_rho_and_disconnected_roads(self):
        network, rho = _isolated_world()
        dense = road_road_correlation_matrix(network, rho)
        for source in range(network.n_roads):
            row = road_road_correlation_rows(network, rho, [source])
            np.testing.assert_array_equal(row[0], dense[source])
        assert dense[0, 2] == 0.0 and dense[0, 3] == 0.0
        assert dense[3, 4] == pytest.approx(1.0) and dense[4, 4] == 1.0

    def test_duplicates_and_order_kept(self, fitted_model):
        network = fitted_model.network
        rho = fitted_model.slot(fitted_model.slots[0]).rho
        dense = road_road_correlation_matrix(network, rho)
        sources = [7, 3, 7, 0]
        rows = road_road_correlation_rows(network, rho, sources)
        np.testing.assert_array_equal(rows, dense[sources])

    def test_empty_and_out_of_range_sources(self, line_net):
        rho = np.full(line_net.n_edges, 0.5)
        assert road_road_correlation_rows(line_net, rho, []).shape == (0, 6)
        with pytest.raises(IndexError):
            road_road_correlation_rows(line_net, rho, [6])
        with pytest.raises(IndexError):
            road_road_correlation_rows(line_net, rho, [-1])


@pytest.fixture(scope="module")
def world(tiny_dataset, tiny_system):
    data = tiny_dataset
    params = tiny_system.model.slot(data.slot)
    dense = road_road_correlation_matrix(data.network, params.rho)
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model, rng=np.random.default_rng(0)
    )
    candidates = market.candidate_roads()
    return {
        "data": data,
        "params": params,
        "dense": dense,
        "candidates": candidates,
        "costs": data.cost_model.costs_of(candidates).astype(float),
    }


def _view(world):
    """A fresh view with no dense matrix behind it (every row derived)."""
    return CorrelationRows(world["data"].network, world["params"].rho)


class TestIndexForms:
    def test_every_solver_index_form(self, world):
        dense, view = world["dense"], _view(world)
        q = np.array([5, 2, 9, 2])
        c = np.asarray(world["candidates"][:12])
        block = view[np.ix_(q, c)]
        np.testing.assert_array_equal(block, dense[np.ix_(q, c)])
        assert block.flags.c_contiguous
        np.testing.assert_array_equal(view[7, c], dense[7, c])
        np.testing.assert_array_equal(view[q, 4], dense[q, 4])
        np.testing.assert_array_equal(view[np.int64(7)], dense[7])
        assert view[3, 11] == dense[3, 11]
        assert type(view[3, 11]) is type(dense[3, 11])
        assert view.shape == dense.shape

    def test_entries_come_from_the_first_index(self, world, monkeypatch):
        """[a, b] reads the row sourced at a — never b's row by symmetry."""
        view = _view(world)
        asked = []
        real = correlation_module._graph_rows

        def spy(graph, sources):
            asked.append(sources.tolist())
            return real(graph, sources)

        monkeypatch.setattr(correlation_module, "_graph_rows", spy)
        view[4, 9]
        view[np.array([11, 12]), 4]
        assert asked == [[4], [11, 12]]

    def test_reads_cannot_write_into_the_memo(self, world):
        view = _view(world)
        row = view[3]
        row[:] = -1.0
        view.rows([3])[0, :] = -1.0
        np.testing.assert_array_equal(view[3], world["dense"][3])
        with pytest.raises(IndexError):
            view[80, 1]

    def test_float_first_index_rejected(self, world):
        with pytest.raises(IndexError):
            _view(world)[np.array([0.5]), 1]

    def test_dense_is_read_first(self, world):
        derived = []
        view = CorrelationRows(
            world["data"].network,
            world["params"].rho,
            dense=lambda: world["dense"],
            on_derive=derived.append,
        )
        np.testing.assert_array_equal(view.rows([3, 1]), world["dense"][[3, 1]])
        assert derived == []

    def test_greedy_block_is_c_contiguous(self, world):
        """BLAS rounds ``sigma_q @ improvement`` differently on an
        F-ordered block, which flips near-ties between candidates; the
        view must hand the greedy the dense block's C layout."""
        queried = tuple(range(0, 60, 3))
        kwargs = dict(
            queried=queried,
            candidates=world["candidates"],
            costs=world["costs"],
            budget=30.0,
            theta=0.92,
            sigma=world["params"].sigma,
        )
        dense_state = _GreedyState(OCSInstance(corr=world["dense"], **kwargs))
        view_state = _GreedyState(OCSInstance(corr=_view(world), **kwargs))
        assert view_state.corr_qc.flags.c_contiguous
        assert view_state.corr_qc.strides == dense_state.corr_qc.strides
        np.testing.assert_array_equal(view_state.corr_qc, dense_state.corr_qc)
        np.testing.assert_array_equal(view_state.gains(), dense_state.gains())


@st.composite
def queries(draw):
    queried = draw(
        st.lists(st.integers(0, 79), min_size=1, max_size=25, unique=True)
    )
    budget = draw(st.integers(1, 45))
    theta = draw(st.sampled_from([0.6, 0.92, 1.0]))
    return tuple(queried), float(budget), theta


class TestSelectionsMatchDense:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=queries())
    def test_every_solver(self, world, query):
        queried, budget, theta = query
        kwargs = dict(
            queried=queried,
            candidates=world["candidates"],
            costs=world["costs"],
            budget=budget,
            theta=theta,
            sigma=world["params"].sigma,
        )
        dense = OCSInstance(corr=world["dense"], **kwargs)
        rows = OCSInstance(corr=_view(world), **kwargs)
        for solve in (hybrid_greedy, ratio_greedy, objective_greedy):
            a, b = solve(dense), solve(rows)
            assert a.selected == b.selected
            assert a.objective == b.objective
            assert a.cost == b.cost
        a = random_selection(dense, np.random.default_rng(int(budget)))
        b = random_selection(rows, np.random.default_rng(int(budget)))
        assert (a.selected, a.objective) == (b.selected, b.objective)
        assert dense.is_feasible(a.selected) == rows.is_feasible(a.selected)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=queries())
    def test_trivial_solution(self, world, query):
        queried, budget, _ = query
        unit = np.ones(len(world["candidates"]))
        kwargs = dict(
            queried=queried,
            candidates=world["candidates"],
            costs=unit,
            budget=budget,
            theta=1.0,
            sigma=world["params"].sigma,
        )
        a = trivial_solution(OCSInstance(corr=world["dense"], **kwargs))
        b = trivial_solution(OCSInstance(corr=_view(world), **kwargs))
        if a is None:
            assert b is None
        else:
            assert (a.selected, a.objective) == (b.selected, b.objective)


def _bumped(params: RTFSlot) -> RTFSlot:
    return RTFSlot(
        params.slot,
        params.mu * 1.05,
        params.sigma,
        np.clip(params.rho * 0.97, 0.0, 1.0),
    )


class TestServingAfterPublish:
    def _answer(self, system, data):
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(3)
        )
        return system.answer_query(
            repro.EstimationRequest(
                queried=data.queried, slot=data.slot, budget=20
            ),
            market=market,
            truth=truth_oracle_for(data.test_history, 0, data.slot),
        )

    def test_matches_a_dense_first_system(self, tiny_dataset, tiny_system):
        data = tiny_dataset
        new = _bumped(tiny_system.model.slot(data.slot))
        rows_system = repro.CrowdRTSE(data.network, store=ModelStore(tiny_system.model))
        dense_system = repro.CrowdRTSE(data.network, store=ModelStore(tiny_system.model))
        rows_system.store.publish([new])
        dense_system.store.publish([new])
        dense_system.store.current().correlation_matrix(data.slot)

        stats = rows_system.store.stats
        dense_before = stats.correlation_derivations
        via_rows = self._answer(rows_system, data)
        assert stats.correlation_derivations == dense_before
        assert 0 < stats.correlation_row_derivations < data.network.n_roads

        via_dense = self._answer(dense_system, data)
        assert dense_system.store.stats.correlation_row_derivations == 0

        assert via_rows.selection.selected == via_dense.selection.selected
        np.testing.assert_array_equal(via_rows.full_field_kmh, via_dense.full_field_kmh)
        np.testing.assert_array_equal(via_rows.estimates_kmh, via_dense.estimates_kmh)
        assert via_rows.probes == via_dense.probes

    def test_rows_are_derived_once_per_digest(self, tiny_dataset, tiny_system):
        data = tiny_dataset
        system = repro.CrowdRTSE(data.network, store=ModelStore(tiny_system.model))
        self._answer(system, data)
        first = system.store.stats.correlation_row_derivations
        self._answer(system, data)
        assert system.store.stats.correlation_row_derivations == first
        snapshot = system.store.current()
        assert snapshot.correlation_rows(data.slot) is snapshot.correlation_rows(data.slot)


class TestPublishDropsSupersededCorrelations:
    def test_stale_digests_leave_the_cache(self, fitted_model):
        store = ModelStore(fitted_model)
        old = store.current()
        for slot in old.slots:
            old.correlation_matrix(slot)
            old.correlation_rows(slot).rows([0, 1])
        refreshed = old.slots[:2]
        store.publish([_bumped(old.slot(t)) for t in refreshed])
        new = store.current()
        cache = store._artifacts
        for slot in old.slots:
            stale = slot in refreshed
            assert (new.digest(slot) != old.digest(slot)) == stale
            for kind in (_KIND_CORRELATION, _KIND_CORRELATION_ROWS):
                assert (cache.peek(kind, old.digest(slot)) is None) == stale

    def test_pinned_old_reader_rederives(self, fitted_model):
        store = ModelStore(fitted_model)
        old = store.current()
        slot = old.slots[0]
        before = old.correlation_matrix(slot)
        store.publish([_bumped(old.slot(slot))])
        again = old.correlation_matrix(slot)
        assert again is not before
        np.testing.assert_array_equal(again, before)
        np.testing.assert_array_equal(
            old.correlation_rows(slot).rows([2]), before[[2]]
        )


class TestPublishDropsSupersededPropagation:
    def test_stale_digests_leave_the_cache(self, fitted_model):
        store = ModelStore(fitted_model)
        old = store.current()
        for slot in old.slots:
            old.propagation_structure(slot)
            store.seed_propagation(old.digest(slot), old.propagation_arrays(slot))
        refreshed = old.slots[:2]
        store.publish([_bumped(old.slot(t)) for t in refreshed])
        cache = store._artifacts
        for slot in old.slots:
            stale = slot in refreshed
            for kind in (_KIND_PROPAGATION, _KIND_PROPAGATION_ARRAYS):
                assert (cache.peek(kind, old.digest(slot)) is None) == stale

    def test_pinned_old_reader_recompiles(self, fitted_model):
        store = ModelStore(fitted_model)
        old = store.current()
        slot = old.slots[0]
        before = old.propagation_structure(slot)
        store.publish([_bumped(old.slot(slot))])
        again = old.propagation_structure(slot)
        assert again is not before
        for want, got in zip(before.arrays, again.arrays):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(again.const_pull, before.const_pull)
        assert store.stats.propagation_derivations == 2


class TestConcurrentRows:
    def test_two_threads_derive_each_source_once(self, world, monkeypatch):
        derived = []
        real = correlation_module._graph_rows

        def recording(graph, sources):
            derived.extend(sources.tolist())
            return real(graph, sources)

        monkeypatch.setattr(correlation_module, "_graph_rows", recording)
        view = _view(world)
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def read(name, sources):
            try:
                barrier.wait(timeout=30)
                out = []
                for _ in range(20):
                    out.append(view.rows(sources))
                    out.append(view[np.ix_(sources, world["candidates"])])
                results[name] = out
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        a_sources = list(range(0, 40))
        b_sources = list(range(20, 60))
        threads = [
            threading.Thread(target=read, args=("a", a_sources)),
            threading.Thread(target=read, args=("b", b_sources)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert sorted(derived) == list(range(60))
        dense = world["dense"]
        for name, sources in (("a", a_sources), ("b", b_sources)):
            for k, out in enumerate(results[name]):
                expected = (
                    dense[sources]
                    if k % 2 == 0
                    else dense[np.ix_(sources, world["candidates"])]
                )
                np.testing.assert_array_equal(out, expected)
