"""Smoke tests: the example scripts run end-to-end and print results.

Each example is executed as a subprocess (exactly how a user runs it)
and its output checked for the headline lines.  Marked slow; the
fastest examples are exercised so the suite stays snappy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "quality : MAPE" in out
        assert "baseline: Per MAPE" in out

    def test_incident_detection(self):
        out = run_example("incident_detection.py")
        assert "*ALARM*" in out
        assert "incident zone" in out

    def test_streaming_deployment(self):
        out = run_example("streaming_deployment.py")
        assert "day 5:" in out
        # One publish per replayed day on top of the fitted version 1.
        assert "store version 7" in out

    def test_budget_planning(self):
        out = run_example("budget_planning.py")
        assert "75   hybrid" in out

    def test_city_monitoring(self):
        out = run_example("city_monitoring.py")
        assert "morning summary: GSP MAPE" in out

    def test_uncertainty_aware_routing(self):
        out = run_example("uncertainty_aware_routing.py")
        assert "mean CI width" in out
