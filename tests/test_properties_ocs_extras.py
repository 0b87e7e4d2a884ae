"""Property-based tests for local search and the CSV loader round-trip."""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.core.ocs import OCSInstance, hybrid_greedy
from repro.experiments.ablations import local_search
from repro.datasets.loaders import history_from_records, history_to_csv, history_from_csv
from repro.traffic.history import SpeedHistory


@st.composite
def ocs_instance(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    base = rng.uniform(0.05, 0.95, (n, n))
    corr = (base + base.T) / 2
    np.fill_diagonal(corr, 1.0)
    n_q = draw(st.integers(1, n))
    queried = tuple(sorted(rng.choice(n, n_q, replace=False).tolist()))
    costs = rng.integers(1, 4, n).astype(float)
    return OCSInstance(
        queried=queried,
        candidates=tuple(range(n)),
        costs=costs,
        budget=draw(st.integers(2, 10)),
        theta=draw(st.floats(0.4, 1.0)),
        corr=corr,
        sigma=rng.uniform(0.5, 6.0, n),
    )


class TestLocalSearchProperties:
    @given(ocs_instance())
    @settings(max_examples=30, deadline=None)
    def test_refinement_feasible_and_monotone(self, instance):
        greedy = hybrid_greedy(instance)
        refined = local_search(instance, greedy.selected, max_rounds=20)
        assert instance.is_feasible(refined.selected)
        assert refined.objective >= greedy.objective - 1e-9

    @given(ocs_instance())
    @settings(max_examples=20, deadline=None)
    def test_from_scratch_feasible(self, instance):
        result = local_search(instance, (), max_rounds=20)
        assert instance.is_feasible(result.selected)


@st.composite
def small_history(draw):
    n_days = draw(st.integers(2, 5))
    n_slots = draw(st.integers(1, 4))
    n_roads = draw(st.integers(1, 5))
    offset = draw(st.integers(0, 280))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    speeds = rng.uniform(5, 120, (n_days, n_slots, n_roads)).astype(np.float32)
    ids = [f"r{i}" for i in range(n_roads)]
    return SpeedHistory(speeds, ids, slot_offset=offset)


class TestLoaderProperties:
    @given(history=small_history())
    @settings(max_examples=25, deadline=None)
    def test_csv_roundtrip_preserves_history(self, history, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "h.csv"
        history_to_csv(history, path)
        loaded = history_from_csv(path)
        assert loaded.n_days == history.n_days
        assert loaded.n_slots == history.n_slots
        assert loaded.slot_offset == history.slot_offset
        assert set(loaded.road_ids) == set(history.road_ids)
        # Values survive the text round-trip to 3 decimals.
        reorder = [loaded.road_ids.index(r) for r in history.road_ids]
        assert np.allclose(
            loaded.values[:, :, reorder], history.values, atol=2e-3
        )

    @given(small_history())
    @settings(max_examples=25, deadline=None)
    def test_records_roundtrip(self, history):
        records = []
        for day in range(history.n_days):
            for s in range(history.n_slots):
                for r, rid in enumerate(history.road_ids):
                    records.append(
                        (rid, day, history.slot_offset + s,
                         float(history.values[day, s, r]))
                    )
        rebuilt = history_from_records(records)
        assert rebuilt.n_records == history.n_records
