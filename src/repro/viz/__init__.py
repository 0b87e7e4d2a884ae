"""Terminal visualization helpers (no plotting dependencies)."""

from repro.viz.ascii import (
    congestion_strip,
    convergence_sparkline,
)

__all__ = [
    "congestion_strip",
    "convergence_sparkline",
]
