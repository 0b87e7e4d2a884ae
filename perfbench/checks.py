"""Correctness, fixed-work and thread-hygiene checks, and the run's
environment fingerprint.

A run whose answers are wrong, whose work differs from what the seed
fixes, or that shares the host with stray threads reports no numbers:
the driver prints the problems and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Counts that a seed fixes exactly; any difference is different work.
WORK_COUNTS = (
    "served", "degraded", "errors", "coalesced", "gsp_sweeps", "probes_bought", "publishes",
)


@dataclass(frozen=True)
class Answer:
    """One served answer next to what the check compares it with."""

    queried: tuple
    estimates: np.ndarray
    truths: np.ndarray
    per: np.ndarray


def mape_pct(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean absolute percentage error, in percent."""
    return float(100.0 * np.mean(np.abs(estimates - truths) / truths))


def answer_problems(answers: Sequence[Answer]) -> List[str]:
    """Every answer is finite and positive and covers its R^q, and the
    run's MAPE beats the Per baseline (slot mean μ) on the same requests."""
    problems = []
    for k, answer in enumerate(answers):
        est = np.asarray(answer.estimates, dtype=float)
        if est.shape != (len(answer.queried),):
            problems.append(
                f"answer {k}: {est.shape[0] if est.ndim else 0} estimates for "
                f"{len(answer.queried)} queried roads"
            )
        elif not (np.all(np.isfinite(est)) and np.all(est > 0)):
            problems.append(f"answer {k}: non-finite or non-positive estimate")
    if problems or not answers:
        return problems or ["no answers were served"]
    served = mape_pct(*_stack(answers, "estimates"))
    per = mape_pct(*_stack(answers, "per"))
    if not served < per:
        problems.append(f"MAPE {served:.3f}% is not below the Per baseline's {per:.3f}%")
    return problems


def _stack(answers: Sequence[Answer], field: str):
    values = np.concatenate([np.asarray(getattr(a, field), dtype=float) for a in answers])
    truths = np.concatenate([np.asarray(a.truths, dtype=float) for a in answers])
    return values, truths


def work_problems(expected: Mapping[str, int], actual: Mapping[str, int], what: str) -> List[str]:
    """Differences between two sets of work counts."""
    return [
        f"{what}: {name} = {actual.get(name)} but the seed fixes {expected.get(name)}"
        for name in WORK_COUNTS
        if actual.get(name) != expected.get(name)
    ]


def recorded_work_problems(path: Path, counts: Mapping[str, int]) -> List[str]:
    """Compare with the counts recorded for this seed, recording them on
    the first run."""
    if path.is_file():
        return work_problems(json.loads(path.read_text()), counts, f"record {path.name}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(counts), sort_keys=True))
    return []


def stray_threads(expected: Sequence[str]) -> List[str]:
    """Threads alive beyond ``expected`` (Python threads by name, and
    native threads such as a BLAS pool by count)."""
    names = sorted(t.name for t in threading.enumerate())
    problems = []
    if names != sorted(expected):
        problems.append(f"threads alive {names}, expected {sorted(expected)}")
    native = _native_thread_count()
    if native is not None and native != len(names):
        problems.append(f"{native} native threads for {len(names)} Python threads")
    return problems


def _native_thread_count() -> Optional[int]:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = [*(root / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_fingerprint(root: Path) -> Dict[str, object]:
    """The environment a result was measured in."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
