"""Paper-fidelity gate: the quick report must reproduce the committed figures.

Regenerates every table of ``results/quick_report/`` once at quick scale
and compares it with the committed file.  Quality tables (objective
values, |R^c|, MAPE, FER, coverage, ...) must match byte for byte.  The
three timing tables are compared only on the columns that are not wall
clock: labels, K, |R| and the GSP sweep count.

A drift here means a change altered what the paper's algorithms pick or
estimate, for example an OCS greedy whose argmax or tie-break no longer
follows Alg. 2–4 exactly.  Regenerate the report with
``python -m repro.experiments.run_all --scale quick --out results/quick_report``
only when the change is meant to move the figures.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.experiments.common import ExperimentScale
from repro.experiments.run_all import run_all

COMMITTED = Path(__file__).resolve().parent.parent / "results" / "quick_report"

#: Timing tables and the columns of each that carry no wall-clock time.
TIMING_TABLES: Dict[str, Tuple[str, ...]] = {
    "figure_4a.txt": ("panel", "K", "method"),
    "figure_4b.txt": ("panel", "K", "method"),
    "scalability.txt": ("|R|", "GSP sweeps"),
}


def _columns(text: str) -> Dict[str, List[str]]:
    """Column name → cells of a ``format_rows`` table (spans from its rule)."""
    lines = text.rstrip("\n").split("\n")
    rule = lines[1]
    spans = []
    start = 0
    while start < len(rule):
        end = rule.find(" ", start)
        end = len(rule) if end < 0 else end
        spans.append((start, end))
        start = end + 2
    # The last column runs to the end of each line.
    spans[-1] = (spans[-1][0], None)
    rows = [lines[0]] + lines[2:]
    cells = [[row[a:b].strip() for a, b in spans] for row in rows]
    return {head: [row[k] for row in cells[1:]] for k, head in enumerate(cells[0])}


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("quick_report")
    run_all(ExperimentScale.QUICK, out_dir=out)
    return out


def _committed_tables() -> List[str]:
    return sorted(p.name for p in COMMITTED.glob("*.txt"))


def test_report_writes_the_committed_tables(regenerated):
    assert sorted(p.name for p in regenerated.glob("*.txt")) == _committed_tables()


@pytest.mark.parametrize(
    "name", [n for n in _committed_tables() if n not in TIMING_TABLES]
)
def test_quality_table_is_byte_identical(regenerated, name):
    committed = (COMMITTED / name).read_text()
    fresh = (regenerated / name).read_text()
    assert fresh == committed, f"{name} drifted from results/quick_report/"


@pytest.mark.parametrize("name", sorted(TIMING_TABLES))
def test_timing_table_non_timing_columns_match(regenerated, name):
    committed = _columns((COMMITTED / name).read_text())
    fresh = _columns((regenerated / name).read_text())
    for column in TIMING_TABLES[name]:
        assert fresh[column] == committed[column], f"{name}: column {column!r} drifted"
