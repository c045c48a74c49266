"""truncsym: exact verification of truncated power algebra and slope bounds.

Submodules:

- ``fp_linalg``: exact linear algebra over prime fields; the one elimination.
- ``monomial_box``: capped multi-index boxes and dominance matchings.
- ``trunc_power``: truncated symmetric powers and their Koszul resolution.
- ``trunc_algebra``: the truncated polynomial algebra with derivations.
- ``filtration``: local model of the connection filtration.
- ``slopes``: exact rational slope and stability-bound arithmetic.
- ``suites``: parameterized verification suites with seeded reports.
- ``scenario``: batch slope evaluation from JSON records.
- ``jsonout``: the JSON text of both commands' output.
- ``seeded``: seeded draws equal to ``random.Random.randint``'s.
"""

from .fp_linalg import FpMatrix, eliminate, is_prime, mat_mul, rank, row_reduce
from .filtration import (
    CurveReport,
    NablaTerm,
    curve_report,
    filtration_basis,
    graded_nabla_matrix,
    nabla,
    nabla_power_row,
    nabla_power_rows,
)
from .monomial_box import (
    Box,
    Matching,
    MatchingVerdict,
    box_size,
    dominance_matching,
    dominates,
    enumerate_box,
    grade_basis,
    hall_matching_exists,
    matching_sweep,
    verify_matching,
)
from .slopes import (
    EqualityDiagnosis,
    InstabilityBound,
    SlopeData,
    WeightSumVerdict,
    curve_gap,
    equality_diagnosis,
    gap_lower_bound,
    graded_slope,
    instability_bound,
    layer_slopes,
    make_slope_data,
    pushforward_c1,
    pushforward_rank,
    pushforward_slope,
    validate_profile,
    weight_sum_check,
)
from .suites import ALL_SUITES, ConfigError, Report, SuiteConfig, run_suite
from .trunc_algebra import (
    GradedSubspace,
    GrowthVerdict,
    apply_diff,
    check_upper_half_growth,
    coordinate_subspaces,
    diff_action_matrix,
    omega_pairing_matrix,
    spanned_image_dim,
)
from .trunc_power import (
    KoszulVerdict,
    WordLayout,
    WordRow,
    degree_weight_check,
    gl2_dim,
    koszul_complex,
    symmetrization_matrix,
    symmetrized_rows,
    symmetrized_tensor,
    trunc_rank,
    verify_koszul_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES",
    "Box",
    "ConfigError",
    "CurveReport",
    "EqualityDiagnosis",
    "FpMatrix",
    "GradedSubspace",
    "GrowthVerdict",
    "InstabilityBound",
    "KoszulVerdict",
    "Matching",
    "MatchingVerdict",
    "NablaTerm",
    "Report",
    "SlopeData",
    "SuiteConfig",
    "WeightSumVerdict",
    "WordLayout",
    "WordRow",
    "apply_diff",
    "box_size",
    "check_upper_half_growth",
    "coordinate_subspaces",
    "curve_gap",
    "curve_report",
    "degree_weight_check",
    "diff_action_matrix",
    "dominance_matching",
    "dominates",
    "eliminate",
    "enumerate_box",
    "equality_diagnosis",
    "filtration_basis",
    "gap_lower_bound",
    "gl2_dim",
    "grade_basis",
    "graded_nabla_matrix",
    "graded_slope",
    "hall_matching_exists",
    "instability_bound",
    "is_prime",
    "koszul_complex",
    "layer_slopes",
    "make_slope_data",
    "mat_mul",
    "matching_sweep",
    "nabla",
    "nabla_power_row",
    "nabla_power_rows",
    "omega_pairing_matrix",
    "pushforward_c1",
    "pushforward_rank",
    "pushforward_slope",
    "rank",
    "row_reduce",
    "run_suite",
    "spanned_image_dim",
    "symmetrization_matrix",
    "symmetrized_rows",
    "symmetrized_tensor",
    "trunc_rank",
    "validate_profile",
    "verify_koszul_exact",
    "verify_matching",
    "weight_sum_check",
]
