"""CrowdRTSE core: the paper's primary contribution.

* :mod:`repro.core.rtf` — the Realtime Traffic-speed Field (GMRF).
* :mod:`repro.core.inference` — offline parameter inference (Alg. 1).
* :mod:`repro.core.correlation` — road/set correlations (Eq. 7–13).
* :mod:`repro.core.ocs` — Optimal Crowdsourced-road Selection (Alg. 2–4).
* :mod:`repro.core.gsp` — Graph-based Speed Propagation (Alg. 5).
* :mod:`repro.core.pipeline` — the offline/online facade (Fig. 1).
"""

from repro.core.rtf import RTFModel, RTFSlot, network_fingerprint, params_signature
from repro.core.inference import (
    InferenceDiagnostics,
    RTFInferenceConfig,
    empirical_slot_parameters,
    fit_rtf,
    infer_slot_parameters,
)
from repro.core.correlation import (
    CorrelationTable,
    PathWeightMode,
    road_road_correlation_matrix,
)
from repro.core.ocs import (
    OCSInstance,
    OCSResult,
    brute_force_ocs,
    hybrid_greedy,
    objective_greedy,
    random_selection,
    ratio_greedy,
    trivial_solution,
)
from repro.core.gsp import (
    CompiledSchedule,
    GSPCacheStats,
    GSPConfig,
    GSPEngine,
    GSPKernel,
    GSPProvenance,
    GSPResult,
    GSPSchedule,
    PrecisionPolicy,
    PropagationStructure,
    build_propagation_structure,
    engine_for,
    independent_update_groups,
    propagate,
    propagate_batch,
)
from repro.core.allocation import allocate_budget, slot_need
from repro.core.exact_inference import (
    exact_conditional_mean,
    gsp_optimality_gap,
    pseudo_objective,
)
from repro.core.uncertainty import (
    conditional_variances,
    confidence_intervals,
    most_uncertain_roads,
)
from repro.core.online_update import OnlineRTFUpdater, refresh_model, refresh_slots
from repro.core.batch import BatchResult, answer_batch, sequential_baseline
from repro.core.local_search import greedy_plus_local_search, local_search
from repro.core.store import (
    ModelSnapshot,
    ModelStore,
    SnapshotCorrelations,
    StoreStats,
)
from repro.core.snapshot_io import (
    SnapshotFile,
    load_model,
    load_store,
    read_snapshot,
    verify_digests,
    write_snapshot,
)
from repro.core.request import EstimationRequest
from repro.core.pipeline import CrowdRTSE, QueryResult

__all__ = [
    "RTFModel",
    "RTFSlot",
    "network_fingerprint",
    "params_signature",
    "InferenceDiagnostics",
    "RTFInferenceConfig",
    "empirical_slot_parameters",
    "fit_rtf",
    "infer_slot_parameters",
    "CorrelationTable",
    "PathWeightMode",
    "road_road_correlation_matrix",
    "OCSInstance",
    "OCSResult",
    "brute_force_ocs",
    "hybrid_greedy",
    "objective_greedy",
    "random_selection",
    "ratio_greedy",
    "trivial_solution",
    "CompiledSchedule",
    "GSPCacheStats",
    "GSPConfig",
    "GSPEngine",
    "GSPKernel",
    "GSPProvenance",
    "GSPResult",
    "GSPSchedule",
    "PrecisionPolicy",
    "PropagationStructure",
    "build_propagation_structure",
    "engine_for",
    "independent_update_groups",
    "propagate",
    "propagate_batch",
    "allocate_budget",
    "slot_need",
    "exact_conditional_mean",
    "gsp_optimality_gap",
    "pseudo_objective",
    "conditional_variances",
    "confidence_intervals",
    "most_uncertain_roads",
    "OnlineRTFUpdater",
    "refresh_model",
    "refresh_slots",
    "ModelSnapshot",
    "ModelStore",
    "SnapshotCorrelations",
    "StoreStats",
    "SnapshotFile",
    "load_model",
    "load_store",
    "read_snapshot",
    "verify_digests",
    "write_snapshot",
    "EstimationRequest",
    "BatchResult",
    "answer_batch",
    "sequential_baseline",
    "greedy_plus_local_search",
    "local_search",
    "CrowdRTSE",
    "QueryResult",
]
