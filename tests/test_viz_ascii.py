"""Unit tests for the ASCII visualization helpers."""

import numpy as np
import pytest

import repro
from repro.errors import ExperimentError
from repro.viz import (
    congestion_strip,
    convergence_sparkline,
)


class TestCongestionStrip:
    def test_free_flow_renders_light(self):
        strip = congestion_strip([60, 60, 60], [60, 60, 60])
        assert strip == "   "

    def test_jam_renders_dark(self):
        strip = congestion_strip([1, 60], [60, 60])
        assert strip[0] == "█"
        assert strip[1] == " "

    def test_width_downsampling_keeps_max(self):
        speeds = [60.0] * 9 + [5.0]
        strip = congestion_strip(speeds, [60.0] * 10, width=2)
        assert len(strip) == 2
        assert strip[1] in "▓█"

    def test_length_matches_roads(self):
        strip = congestion_strip([30] * 7, [60] * 7)
        assert len(strip) == 7

    def test_validation(self):
        with pytest.raises(ExperimentError):
            congestion_strip([], [])
        with pytest.raises(ExperimentError):
            congestion_strip([10, 20], [60])
        with pytest.raises(ExperimentError):
            congestion_strip([10], [0])
        with pytest.raises(ExperimentError):
            congestion_strip([10], [60], width=0)


class TestSparkline:
    def test_monotone_history_descends(self):
        spark = convergence_sparkline([1.0, 0.1, 0.01, 0.001])
        assert spark[0] == "█"
        assert spark[-1] == "▁"

    def test_flat_history(self):
        spark = convergence_sparkline([0.5, 0.5, 0.5])
        assert spark == "▁▁▁"

    def test_length(self):
        assert len(convergence_sparkline(np.geomspace(1, 1e-6, 12))) == 12

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            convergence_sparkline([])
