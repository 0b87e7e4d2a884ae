"""Tests for the network-size scalability experiment."""

import pytest

from repro.experiments import scalability
from repro.experiments.common import ExperimentScale


class TestScalability:
    @pytest.fixture(scope="class")
    def points(self):
        return scalability.run(
            ExperimentScale.QUICK, sizes=(30, 60, 90), budget=15
        )

    def test_sizes_covered(self, points):
        assert [p.n_roads for p in points] == [30, 60, 90]

    def test_all_timings_positive(self, points):
        for p in points:
            assert p.gamma_build_s >= 0
            assert p.ocs_s >= 0
            assert p.gsp_s >= 0
            assert p.gsp_warm_parallel_s >= 0
            assert p.exact_solve_s >= 0
            assert p.gsp_sweeps >= 1

    def test_online_stage_stays_subsecond(self, points):
        """The paper's realtime claim must survive scaling."""
        for p in points:
            assert p.ocs_s < 1.0
            assert p.gsp_s < 1.0

    def test_format(self, points):
        text = scalability.format_table(points)
        assert "GSP sweeps" in text
        assert "GSP 1st" in text
        assert "GSP warm" in text
        assert "|R|" in text
