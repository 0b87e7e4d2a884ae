"""Experiment harness — one module per table/figure of the paper (§VII).

Every module exposes ``run(scale=...)`` returning a structured result
and a ``format_table`` helper; ``python -m repro.experiments.<name>``
prints the table the paper reports.  The ``scale`` knob selects between
``"paper"`` (full-size, slower) and ``"quick"`` (small but same shape,
used by the benchmark suite).
"""

from repro.experiments.common import (
    ExperimentScale,
    default_gmission,
    default_semisyn,
    fit_system,
    ocs_instance_for,
)

__all__ = [
    "ExperimentScale",
    "default_gmission",
    "default_semisyn",
    "fit_system",
    "ocs_instance_for",
]
