"""Shared fixtures for the benchmark suite.

All benchmarks run at ``ExperimentScale.QUICK`` — a scaled-down world
with the same structure as the paper's Table II datasets — so the whole
suite finishes in minutes.  The paper-scale numbers reported in
EXPERIMENTS.md come from running the ``repro.experiments`` CLI modules
at ``--scale paper``.
"""

from __future__ import annotations

import pytest

import repro
from repro.datasets import truth_oracle_for
from repro.experiments.common import (
    ExperimentScale,
    default_gmission,
    default_semisyn,
    fit_system,
    market_for,
)

QUICK = ExperimentScale.QUICK


@pytest.fixture(scope="session")
def semisyn():
    """The QUICK semi-synthesized dataset."""
    return default_semisyn(QUICK)


@pytest.fixture(scope="session")
def gmission():
    """The QUICK gMission-like dataset."""
    return default_gmission(QUICK)


@pytest.fixture(scope="session")
def semisyn_system(semisyn):
    """CrowdRTSE fitted on the semisyn dataset."""
    return fit_system("semisyn", QUICK)


@pytest.fixture(scope="session")
def gmission_system(gmission):
    """CrowdRTSE fitted on the gMission dataset."""
    return fit_system("gmission", QUICK)


@pytest.fixture()
def semisyn_probe(semisyn, semisyn_system):
    """One realized probe set (Hybrid selection, mid budget) on semisyn."""
    budget = semisyn.budgets[len(semisyn.budgets) // 2]
    market = market_for(semisyn, seed=0)
    truth = truth_oracle_for(semisyn.test_history, 0, semisyn.slot)
    result = semisyn_system.answer_query(
        repro.EstimationRequest(
            queried=semisyn.queried,
            slot=semisyn.slot,
            budget=budget,
        ),
        market=market,
        truth=truth,
    )
    return result, truth
