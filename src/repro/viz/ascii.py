"""ASCII renderings of speed fields and solver diagnostics.

Dashboards and notebooks want a quick visual; this repo has no plotting
dependency, so these helpers draw with Unicode block characters.  All
functions return strings (never print), so they are easy to test and to
embed in logs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ExperimentError

#: Shade ramp from free-flow (light) to jammed (dark).
_SHADES = " ░▒▓█"

#: Sparkline bars, low to high.
_BARS = "▁▂▃▄▅▆▇█"


def _to_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ExperimentError(f"{name} must not be empty")
    if np.any(~np.isfinite(arr)):
        raise ExperimentError(f"{name} contains NaN or infinity")
    return arr


def congestion_strip(
    speeds_kmh: Sequence[float],
    free_flow_kmh: Sequence[float],
    width: Optional[int] = None,
) -> str:
    """One-line congestion strip: dark cells are congested roads.

    Each road's congestion is ``1 - speed / free_flow`` clipped to
    [0, 1]; roads are rendered in index order, optionally downsampled to
    ``width`` cells (max congestion per bucket, so jams never average
    away).

    Args:
        speeds_kmh: Current speed per road.
        free_flow_kmh: Free-flow speed per road.
        width: Output cells; default one per road.
    """
    speeds = _to_array(speeds_kmh, "speeds_kmh")
    free = _to_array(free_flow_kmh, "free_flow_kmh")
    if speeds.shape != free.shape:
        raise ExperimentError("speeds and free-flow arrays must align")
    if np.any(free <= 0):
        raise ExperimentError("free-flow speeds must be positive")
    congestion = np.clip(1.0 - speeds / free, 0.0, 1.0)
    if width is not None:
        if width <= 0:
            raise ExperimentError("width must be positive")
        buckets = np.array_split(congestion, min(width, congestion.size))
        congestion = np.array([b.max() for b in buckets])
    cells = (congestion * (len(_SHADES) - 1)).round().astype(int)
    return "".join(_SHADES[c] for c in cells)


def convergence_sparkline(history: Sequence[float]) -> str:
    """Sparkline of a solver's per-iteration residuals (log scale).

    Useful for :class:`~repro.core.gsp.GSPResult.max_delta_history` and
    :class:`~repro.core.inference.InferenceDiagnostics.grad_mu_history`.
    """
    values = _to_array(history, "history")
    values = np.maximum(values, 1e-12)
    logs = np.log10(values)
    lo, hi = logs.min(), logs.max()
    if hi - lo < 1e-12:
        return _BARS[0] * values.size
    scaled = (logs - lo) / (hi - lo)
    cells = (scaled * (len(_BARS) - 1)).round().astype(int)
    return "".join(_BARS[c] for c in cells)
