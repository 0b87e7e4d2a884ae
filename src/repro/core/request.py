"""The canonical request type of the estimation stack.

:class:`EstimationRequest` is the one way to spell "one query": the
pipeline (:meth:`~repro.core.pipeline.CrowdRTSE.answer_query`), the
serving layer (:meth:`~repro.serve.service.QueryService.submit`), the
workload JSONL format, and the CLI all construct and consume it.

The request also carries the two per-query latency knobs introduced with
it:

* ``precision`` — the GSP sweep precision
  (:class:`~repro.core.gsp.PrecisionPolicy` spelling; ``"float64"`` is
  the bit-exact reference, ``"float32"`` the opt-in fast mode with a
  documented tolerance contract);
* ``warm_start`` — seed the propagation from the previous converged
  field of the same ``(parameter digest, R^c)`` pair when one is cached
  (:meth:`~repro.core.store.ModelSnapshot.warm_field`).  Warm-started
  runs converge to the same fixed point within the solver's ε, not
  bit-identically — pass ``warm_start=False`` for answers that are
  byte-stable across repeated queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.core.gsp import PrecisionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids crowd import at runtime
    from repro.crowd.market import CrowdMarket, TruthOracle


@dataclass(frozen=True)
class EstimationRequest:
    """One realtime speed-estimation query, end to end.

    Attributes:
        queried: Queried road indices ``R^q`` (normalized to a tuple of
            ints).
        slot: Global time slot of the query.
        budget: Crowdsourcing budget ``K``.
        theta: Redundancy threshold θ of the OCS instance.
        selector: OCS solver — ``"hybrid"``, ``"ratio"``, ``"objective"``
            or ``"random"``.
        deadline_s: Wall-clock budget over the whole OCS → probe →
            estimate span (``None`` → no deadline; the serving layer may
            substitute its configured default).
        market: Crowd marketplace to probe (``None`` → the callee's
            default: the ``market`` argument of ``answer_query`` or the
            service-level market).
        truth: Ground-truth oracle the simulated workers measure
            (``None`` → callee default, as for ``market``).
        rng: RNG for the ``"random"`` selector.
        coalescable: Whether the serving layer may batch this request
            with same-slot neighbours.
        backend: Estimator backend that turns the probes into the speed
            field (``"rtf_gsp"`` is the paper's GSP pipeline).
        precision: GSP sweep precision, ``"float64"`` (reference) or
            ``"float32"`` (opt-in; see
            :class:`~repro.core.gsp.PrecisionPolicy` for the tolerance
            contract).
        warm_start: Seed GSP from the previous converged field of the
            same ``(parameter digest, R^c)`` when cached.  Converges to
            the same fixed point within ε, not bit-identically.
        day: Test-day index used by workload replay drivers to bind
            per-day markets/truth oracles; ignored by the pipeline.
    """

    queried: Tuple[int, ...]
    slot: int
    budget: float
    theta: float = 0.92
    selector: str = "hybrid"
    deadline_s: Optional[float] = None
    market: Optional["CrowdMarket"] = None
    truth: Optional["TruthOracle"] = None
    rng: Optional[np.random.Generator] = None
    coalescable: bool = True
    backend: str = "rtf_gsp"
    precision: str = "float64"
    warm_start: bool = True
    day: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "queried", tuple(int(q) for q in self.queried)
        )
        object.__setattr__(self, "slot", int(self.slot))
        object.__setattr__(self, "budget", float(self.budget))
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ModelError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        # Normalize to the canonical string spelling, rejecting unknown
        # precisions at construction instead of deep inside the solver.
        object.__setattr__(
            self, "precision", PrecisionPolicy.coerce(self.precision).value
        )

    @property
    def precision_policy(self) -> PrecisionPolicy:
        """The request's precision as a :class:`PrecisionPolicy`."""
        return PrecisionPolicy.coerce(self.precision)

    def bound(
        self,
        market: Optional["CrowdMarket"] = None,
        truth: Optional["TruthOracle"] = None,
    ) -> "EstimationRequest":
        """This request with unset market/truth filled from defaults.

        Returns ``self`` when nothing needs binding, so the common
        fully-specified request costs no copy.
        """
        from dataclasses import replace

        updates = {}
        if self.market is None and market is not None:
            updates["market"] = market
        if self.truth is None and truth is not None:
            updates["truth"] = truth
        if not updates:
            return self
        return replace(self, **updates)

