"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload citywide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and writes its spans to
``.perfbench_out/<workload>-<seed>.spans.jsonl``.  The last line of
standard output is the result; a line before it carries the environment
fingerprint.  A failed correctness, fixed-work or thread check prints
the problems and exits with code 3 instead of printing a result.
"""

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import drivers

    args = _parse(argv, drivers.WORKLOADS)
    fingerprint = checks.environment_fingerprint(ROOT)
    print(json.dumps({"env": fingerprint}, sort_keys=True), flush=True)
    result = drivers.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        OUT_DIR,
        str(fingerprint["source_sha256"]),
    )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    reported = {name: unit for name, (_, unit) in result.metrics.items()}
    if reported != expected:
        result.problems.append(f"metrics {reported} do not match BENCHMARK.json's {expected}")
    if result.problems:
        for problem in result.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(f"{len(result.problems)} check(s) failed; no result reported", flush=True)
        return 3
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
