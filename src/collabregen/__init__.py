"""Collaborative regenerating codes: capacity bounds under selfish and
polluting nodes, storage/bandwidth trade-off optimization, and an exact
Reed-Solomon based collaborative repair code with adversarial simulation."""

from .capacity import (
    AdversaryKind,
    AdversaryProfile,
    GroupPartition,
    InfeasibleError,
    SystemParams,
    capacity_polluting,
    capacity_selfish,
    mbr_point,
    mincut_collab,
    mincut_single,
    msr_point,
    msr_selfish_bounds,
    polluted_collection_min_storage,
    repair_gamma,
)
from .exactcode import (
    AMBIGUOUS,
    Behavior,
    FragmentDigestTable,
    NodeBlock,
    ObjectMatrix,
    RepairFailureError,
    RepairPolicy,
    RepairReport,
    collaborative_repair,
    collect,
    collect_robust,
    encode_object,
    progressive_repair_with_digests,
)
from .gf import (
    ERASED,
    FieldElement,
    FieldMatrix,
    GF,
    RsCode,
    field,
    rs_decode,
)
from .scenarios import (
    CodeSetup,
    CostRecord,
    GenerationStats,
    Mitigation,
    ScenarioConfig,
    run_all_cost_scenarios,
    run_cost_scenario,
    simulate_generations,
)
from .tradeoff import (
    CurvePoint,
    SweepConfig,
    characteristic_bandwidth_box,
    default_alpha_grid,
    optimize_gamma,
    supremum_capacity,
    sweep_curve,
    worst_case_capacity,
)

__version__ = "0.1.0"
