"""End-to-end integration tests across all subsystems.

These walk the full Fig. 1 workflow on freshly built worlds (not the
shared fixtures) and check cross-module contracts: offline fit → OCS →
market probing → GSP → metrics, persistence round-trips of the fitted
artefacts, and the incident-response story the paper motivates.
"""

import numpy as np
import pytest

import repro
from repro.baselines import per_field
from repro.datasets import truth_oracle_for


class TestFullPipelineSemiSyn:
    @pytest.fixture(scope="class")
    def world(self):
        data = repro.build_semisyn(
            repro.SemiSynConfig(
                n_roads=100,
                n_queried=18,
                n_train_days=15,
                n_test_days=5,
                n_slots=8,
                budgets=(15, 30, 45),
                seed=303,
            )
        )
        system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
        return data, system

    def test_quality_improves_with_budget(self, world):
        data, system = world
        mapes = []
        for budget in data.budgets:
            errors = []
            for day in range(data.test_history.n_days):
                market = repro.CrowdMarket(
                    data.network, data.pool, data.cost_model,
                    rng=np.random.default_rng(day),
                )
                truth = truth_oracle_for(data.test_history, day, data.slot)
                result = system.answer_query(
                    repro.EstimationRequest(
                        queried=data.queried,
                        slot=data.slot,
                        budget=budget,
                    ),
                    market=market, truth=truth,
                )
                truths = np.array([truth(q) for q in data.queried])
                errors.append(
                    repro.mean_absolute_percentage_error(result.estimates_kmh, truths)
                )
            mapes.append(np.mean(errors))
        # More budget should not make things notably worse.
        assert mapes[-1] <= mapes[0] + 0.01

    def test_model_persistence_roundtrip(self, world, tmp_path):
        data, system = world
        path = tmp_path / "rtf.npz"
        system.model.save(path)
        loaded = repro.RTFModel.load(path, data.network)
        rebuilt = repro.CrowdRTSE(data.network, loaded)
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(0)
        )
        truth = truth_oracle_for(data.test_history, 0, data.slot)
        a = rebuilt.answer_query(
            repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=20,
            ),
            market=market, truth=truth,
        )
        market2 = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(0)
        )
        b = system.answer_query(
            repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=20,
            ),
            market=market2, truth=truth,
        )
        assert a.selection.selected == b.selection.selected
        assert np.allclose(a.estimates_kmh, b.estimates_kmh)

    def test_selection_subset_of_workers_and_budgeted(self, world):
        data, system = world
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(1)
        )
        truth = truth_oracle_for(data.test_history, 1, data.slot)
        result = system.answer_query(
            repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=25,
            ),
            market=market, truth=truth,
        )
        assert set(result.selection.selected) <= set(data.worker_roads)
        assert data.cost_model.total(result.selection.selected) <= 25


class TestIncidentResponse:
    """The paper's motivation: crowd probes catch accidental variance."""

    def test_gsp_sees_incident_per_does_not(self):
        network = repro.ring_radial_network(60, n_rings=2, n_radials=6, seed=21)
        profiles = repro.random_profiles(network, seed=22)
        config = repro.SimulationConfig(n_days=21, slot_start=96, n_slots=8, seed=23)
        simulator = repro.TrafficSimulator(network, profiles, config)
        clean = simulator.simulate(incidents=[])
        # Inject a severe incident on the last day around the query slot.
        incident_road = 5
        incident = repro.Incident(
            road_index=incident_road,
            day=20,
            start_slot=1,
            duration_slots=7,
            severity=0.6,
            spread_hops=2,
        )
        shocked = simulator.simulate(incidents=[incident])
        train, _ = clean.split_days(20)
        slot = 100
        system = repro.CrowdRTSE.fit(network, train, slots=[slot])
        truth_day = shocked.slot_samples(slot)[20]

        # Probe the incident road plus a few others.
        probes = {incident_road: float(truth_day[incident_road])}
        gsp_field = system.estimate_with_backend("rtf_gsp", probes, slot).speeds
        per_speeds = per_field(network, train.slot_samples(slot), probes)

        affected = [incident_road] + list(network.neighbors(incident_road))
        gsp_err = np.abs(gsp_field[affected] - truth_day[affected]).mean()
        per_err = np.abs(per_speeds[affected] - truth_day[affected]).mean()
        assert gsp_err < per_err

    def test_incident_propagates_through_gsp(self):
        """A probe far below the mean drags its neighbourhood down."""
        network = repro.grid_network(5, 5)
        profiles = repro.random_profiles(network, seed=31)
        config = repro.SimulationConfig(n_days=15, slot_start=90, n_slots=4, seed=32)
        history = repro.TrafficSimulator(network, profiles, config).simulate()
        slot = 92
        system = repro.CrowdRTSE.fit(network, history, slots=[slot])
        params = system.model.slot(slot)
        centre = 12
        probe_value = float(params.mu[centre] * 0.5)
        result = repro.propagate(network, params, {centre: probe_value})
        for j in network.neighbors(centre):
            assert result.speeds[j] < params.mu[j]


class TestGMissionEndToEnd:
    def test_worker_scarce_instance_answers(self):
        data = repro.build_gmission(
            repro.GMissionConfig(
                n_component_roads=30,
                n_worker_roads=15,
                n_train_days=12,
                n_test_days=3,
                n_slots=6,
                source_network_roads=90,
                budgets=(8, 16),
                seed=44,
            )
        )
        system = repro.CrowdRTSE.fit(data.network, data.train_history, slots=[data.slot])
        market = repro.CrowdMarket(
            data.network, data.pool, data.cost_model, rng=np.random.default_rng(3)
        )
        truth = truth_oracle_for(data.test_history, 0, data.slot)
        result = system.answer_query(
            repro.EstimationRequest(
                queried=data.queried,
                slot=data.slot,
                budget=16,
            ),
            market=market, truth=truth,
        )
        # Selection restricted to the worker roads (R^w ⊂ R^q).
        assert set(result.selection.selected) <= set(data.worker_roads)
        truths = np.array([truth(q) for q in data.queried])
        assert repro.mean_absolute_percentage_error(result.estimates_kmh, truths) < 0.5


class TestInferenceQualityOnSimulatedWorld:
    def test_fitted_sigma_identifies_volatile_roads(self):
        """Roads simulated as weak-periodicity must get larger fitted σ —
        the property OCS's periodicity weighting relies on."""
        network = repro.grid_network(4, 4)
        profiles = repro.random_profiles(network, seed=55, volatile_fraction=0.5)
        config = repro.SimulationConfig(n_days=40, slot_start=96, n_slots=4, seed=56)
        history = repro.TrafficSimulator(network, profiles, config).simulate()
        slot = 98
        model, _ = repro.fit_rtf(network, history, slots=[slot])
        sigma = model.slot(slot).sigma
        volatile = [
            i for i, p in enumerate(profiles) if p.kind.value == "volatile"
        ]
        stable = [i for i in range(network.n_roads) if i not in volatile]
        assert sigma[volatile].mean() > sigma[stable].mean()

    def test_fitted_rho_higher_for_adjacent_than_random_pairs(self):
        network = repro.ring_radial_network(80, seed=61)
        profiles = repro.random_profiles(network, seed=62)
        config = repro.SimulationConfig(n_days=30, slot_start=96, n_slots=4, seed=63)
        history = repro.TrafficSimulator(network, profiles, config).simulate()
        slot = 98
        model, _ = repro.fit_rtf(network, history, slots=[slot])
        params = model.slot(slot)
        corr = repro.road_road_correlation_matrix(network, params.rho)
        rng = np.random.default_rng(64)
        # Average fitted adjacency correlation should exceed the path
        # correlation of random far-apart pairs.
        distant = []
        hops = network.hop_distances([0])
        for _ in range(50):
            i, j = rng.integers(0, network.n_roads, 2)
            if i != j and not network.are_adjacent(int(i), int(j)):
                distant.append(corr[i, j])
        assert params.rho.mean() > np.mean(distant)
