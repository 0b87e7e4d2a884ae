"""Unit tests for repro.crowd.mobility."""

import numpy as np
import pytest

import repro
from repro.errors import CrowdError
from repro.crowd.mobility import MobilityModel
from repro.crowd.workers import WorkerPool


class TestMobilityModel:
    def test_invalid_probability(self, line_net):
        with pytest.raises(CrowdError):
            MobilityModel(line_net, move_probability=1.5)

    def test_step_preserves_worker_count(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 30, seed=1)
        model = MobilityModel(grid_net, seed=2)
        stepped = model.step(pool)
        assert stepped.n_workers == 30

    def test_step_moves_to_adjacent_or_stays(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 40, seed=3)
        model = MobilityModel(grid_net, move_probability=1.0, seed=4)
        stepped = model.step(pool)
        before = {w.worker_id: w.road_index for w in pool.workers}
        for worker in stepped.workers:
            old = before[worker.worker_id]
            assert worker.road_index == old or grid_net.are_adjacent(
                old, worker.road_index
            )

    def test_zero_probability_is_identity(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 20, seed=5)
        model = MobilityModel(grid_net, move_probability=0.0, seed=6)
        stepped = model.step(pool)
        before = {w.worker_id: w.road_index for w in pool.workers}
        for worker in stepped.workers:
            assert worker.road_index == before[worker.worker_id]

    def test_isolated_road_worker_stays(self):
        roads = [repro.Road(road_id="a"), repro.Road(road_id="b")]
        net = repro.TrafficNetwork(roads, [])
        pool = WorkerPool(net, [repro.Worker(worker_id="w", road_index=0)])
        model = MobilityModel(net, move_probability=1.0, seed=7)
        stepped = model.step(pool)
        assert stepped.workers[0].road_index == 0

    def test_input_pool_untouched(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 10, seed=8)
        before = [w.road_index for w in pool.workers]
        MobilityModel(grid_net, move_probability=1.0, seed=9).step(pool)
        assert [w.road_index for w in pool.workers] == before

    def test_walk_length_and_invalid(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 10, seed=10)
        model = MobilityModel(grid_net, seed=11)
        pools = model.walk(pool, 4)
        assert len(pools) == 4
        with pytest.raises(CrowdError):
            model.walk(pool, 0)

    def test_distribution_changes_over_time(self, grid_net):
        """R^w churns — the paper's time-variant worker distribution."""
        pool = WorkerPool.random_distribution(grid_net, 15, seed=12)
        model = MobilityModel(grid_net, move_probability=0.5, seed=13)
        stepped = model.walk(pool, 5)
        coverages = {p.roads_with_workers() for p in stepped}
        assert len(coverages) > 1

    def test_coverage_series_shape(self, grid_net):
        pool = WorkerPool.random_distribution(grid_net, 12, seed=14)
        model = MobilityModel(grid_net, seed=15)
        series = model.coverage_series(pool, 6)
        assert len(series) == 6
        for covered, total in series:
            assert 1 <= covered <= grid_net.n_roads
            assert total == 12
