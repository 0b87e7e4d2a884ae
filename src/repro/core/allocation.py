"""Cross-slot budget allocation.

The paper fixes one budget K per query.  A deployed service has a
*daily* crowdsourcing budget to spread over the slots it monitors, and
slots differ in how much help they need: the RTF σ parameters say
exactly where periodicity is weak.  :func:`allocate_budget` splits a
total budget across slots proportionally to each slot's total queried
periodicity weakness Σ_{r∈R^q} σ_r^t, subject to a per-slot floor —
a direct, principled extension of the paper's Eq. 13 weighting to the
temporal axis.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import BudgetError
from repro.core.rtf import RTFModel


def slot_need(
    model: RTFModel,
    queried: Sequence[int],
    slots: Sequence[int],
) -> Dict[int, float]:
    """Per-slot need score: Σ over queried roads of ``sigma_i^t``.

    Large scores mean the slot's queried roads are hard to predict from
    history alone, so crowdsourcing helps most there.
    """
    if not queried:
        raise BudgetError("queried set must not be empty")
    if not slots:
        raise BudgetError("slot set must not be empty")
    roads = list(queried)
    return {
        slot: float(model.slot(slot).sigma[roads].sum())
        for slot in slots
    }


def allocate_budget(
    model: RTFModel,
    queried: Sequence[int],
    slots: Sequence[int],
    total_budget: int,
    floor: int = 0,
) -> Dict[int, int]:
    """Split a daily budget over slots proportionally to their need.

    Uses largest-remainder rounding so the allocations are integers and
    sum exactly to ``total_budget``.

    Args:
        model: Fitted RTF (must cover every slot).
        queried: The roads the service answers queries about.
        slots: Monitored slots.
        total_budget: Total units to spend across all slots.
        floor: Minimum units every slot must receive.

    Returns:
        Mapping slot → integer budget.

    Raises:
        BudgetError: When the floor alone exceeds the total budget, or
            inputs are invalid.
    """
    if not total_budget > 0:  # NaN fails too
        raise BudgetError("total_budget must be positive")
    if floor < 0:
        raise BudgetError("floor must be >= 0")
    slots = list(slots)
    need = slot_need(model, queried, slots)
    base = floor * len(slots)
    if base > total_budget:
        raise BudgetError(
            f"floor {floor} x {len(slots)} slots exceeds total budget {total_budget}"
        )
    remaining = total_budget - base
    weights = np.array([need[slot] for slot in slots], dtype=np.float64)
    if weights.sum() <= 0:
        shares = np.full(len(slots), remaining / len(slots))
    else:
        shares = remaining * weights / weights.sum()
    allocations = np.floor(shares).astype(int)
    leftovers = remaining - int(allocations.sum())
    # Largest remainder first.
    remainders = shares - allocations
    for idx in np.argsort(-remainders)[:leftovers]:
        allocations[idx] += 1
    return {slot: floor + int(alloc) for slot, alloc in zip(slots, allocations)}
