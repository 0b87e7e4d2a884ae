"""Network-size scalability of the online stage (extension of Fig. 4).

The paper's Fig. 4 sweeps the *budget*; a deployment also needs to know
how the online stage scales with the *network size*.  This experiment
grows connected subcomponents of the city and times each online step —
OCS solve, GSP propagation, exact sparse solve — plus the offline Γ_R
build, at a fixed budget.

GSP is timed twice, both times on the default vectorized kernel.  "GSP
1st" is the first call on a fresh engine with the default ``BFS``
schedule, so it includes compiling the propagation structure and the
schedule.  "GSP warm" is the layer-parallel ``BFS_PARALLEL`` schedule on
a structure compiled beforehand and a schedule already cached: the
steady-state cost a serving deployment pays per query.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.correlation import road_road_correlation_matrix
from repro.core.exact_inference import exact_conditional_mean
from repro.core.gsp import (
    GSPConfig,
    GSPEngine,
    GSPSchedule,
    build_propagation_structure,
)
from repro.core.inference import fit_rtf
from repro.core.ocs import OCSInstance, hybrid_greedy
from repro.experiments.common import ExperimentScale, default_semisyn, format_rows

#: Subcomponent sizes per scale.
PAPER_SIZES = (150, 300, 450, 600)
QUICK_SIZES = (40, 80, 120)


@dataclass(frozen=True)
class ScalabilityPoint:
    """Timings for one subnetwork size (seconds).

    ``gsp_s`` is the cold first ``BFS`` propagation (compiles included);
    ``gsp_warm_parallel_s`` a warm ``BFS_PARALLEL`` one.
    """

    n_roads: int
    gamma_build_s: float
    ocs_s: float
    gsp_s: float
    gsp_warm_parallel_s: float
    exact_solve_s: float
    gsp_sweeps: int


def run(
    scale: ExperimentScale = ExperimentScale.QUICK,
    sizes: Sequence[int] = (),
    budget: int = 30,
    seed: int = 7,
) -> List[ScalabilityPoint]:
    """Time the online stage on growing subcomponents.

    Args:
        scale: Experiment sizing (chooses the source network).
        sizes: Explicit subnetwork sizes (defaults per scale).
        budget: OCS budget at every size.
        seed: Query sampling seed.
    """
    data = default_semisyn(scale)
    if not sizes:
        sizes = PAPER_SIZES if scale is ExperimentScale.PAPER else QUICK_SIZES
    rng = np.random.default_rng(seed)
    points: List[ScalabilityPoint] = []
    for size in sizes:
        subnetwork = data.network.connected_subcomponent(size)
        history = data.train_history.restrict_roads(subnetwork)
        model, _ = fit_rtf(subnetwork, history, slots=[data.slot])
        params = model.slot(data.slot)

        start = time.perf_counter()
        corr = road_road_correlation_matrix(subnetwork, params.rho)
        gamma_s = time.perf_counter() - start

        n_queried = max(5, size // 10)
        queried = tuple(
            sorted(int(r) for r in rng.choice(size, n_queried, replace=False))
        )
        instance = OCSInstance(
            queried=queried,
            candidates=tuple(range(size)),
            costs=np.ones(size),
            budget=float(budget),
            theta=0.92,
            corr=corr,
            sigma=params.sigma,
        )
        start = time.perf_counter()
        selection = hybrid_greedy(instance)
        ocs_s = time.perf_counter() - start

        observed = {
            int(road): float(params.mu[road] * 0.8) for road in selection.selected
        }
        engine = GSPEngine(subnetwork)
        start = time.perf_counter()
        gsp = engine.propagate(params, observed, GSPConfig())
        gsp_s = time.perf_counter() - start

        # The layer-parallel schedule, timed warm: the structure is
        # compiled once and the schedule on a throwaway run first, so this
        # measures the steady-state cost a serving deployment pays per
        # query.
        warm_config = GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)
        structure = build_propagation_structure(
            subnetwork, params.propagation_arrays(subnetwork)
        )
        engine.propagate(params, observed, warm_config, structure=structure)
        start = time.perf_counter()
        engine.propagate(params, observed, warm_config, structure=structure)
        gsp_warm_s = time.perf_counter() - start

        start = time.perf_counter()
        exact_conditional_mean(subnetwork, params, observed)
        exact_s = time.perf_counter() - start

        points.append(
            ScalabilityPoint(
                n_roads=size,
                gamma_build_s=gamma_s,
                ocs_s=ocs_s,
                gsp_s=gsp_s,
                gsp_warm_parallel_s=gsp_warm_s,
                exact_solve_s=exact_s,
                gsp_sweeps=gsp.sweeps,
            )
        )
    return points


def format_table(points: Sequence[ScalabilityPoint]) -> str:
    """Render the scalability table."""
    header = [
        "|R|", "gamma build", "OCS", "GSP 1st", "GSP warm", "exact solve",
        "GSP sweeps",
    ]
    body = [
        [
            p.n_roads,
            f"{p.gamma_build_s:.4f}s",
            f"{p.ocs_s:.4f}s",
            f"{p.gsp_s:.4f}s",
            f"{p.gsp_warm_parallel_s:.4f}s",
            f"{p.exact_solve_s:.4f}s",
            p.gsp_sweeps,
        ]
        for p in points
    ]
    return format_rows(header, body)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry: print the scalability table.

    ``argv`` defaults to *no* arguments (not ``sys.argv``) because the
    ``repro experiment`` dispatcher calls ``main()`` with its own CLI
    flags still on ``sys.argv``.
    """
    parser = argparse.ArgumentParser(description="online-stage scalability")
    parser.add_argument("--scale", choices=("quick", "paper"), default="paper")
    parser.add_argument(
        "--metrics-out", default=None, help="write the metrics snapshot JSON here"
    )
    args = parser.parse_args(argv if argv is not None else [])
    if args.metrics_out:
        obs.configure(metrics=True)
        obs.get_metrics().reset()
    print("Online-stage scalability vs network size (budget fixed)")
    print(format_table(run(ExperimentScale(args.scale))))
    if args.metrics_out:
        obs.write_metrics_json(obs.get_metrics().snapshot(), args.metrics_out)


if __name__ == "__main__":
    main(sys.argv[1:])
