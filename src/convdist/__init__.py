"""Binary convolutional codes with optimal column distances.

Construction of (n, k, delta) codes from partial simplex block codes, exact
column-distance and free-distance computation, weight-based bounds, and
brute-force optimality verification.
"""

from .convcode import (
    BoundReport,
    ConvCode,
    DistanceProfile,
    column_bound,
    column_distances_exhaustive,
    column_distances_trellis,
    distance_profile,
    external_degree,
    free_distance,
    has_generic_row_degrees,
    internal_degree,
    is_delay_free,
    is_mdp,
    is_noncatastrophic,
    is_row_reduced,
    row_weight_bounds,
    L_value,
    row_degrees,
    singleton_bound,
    sliding_matrix,
)
from .construct import (
    ConstructionPlan,
    ExtensionChoice,
    binary_decomposition,
    construct,
    construct_extended,
    construct_k_dim,
    construct_k_dim_extended,
    construct_near_optimal,
    construct_rate_1_n,
    near_optimal_bound_profile,
    predicted_profile_k_dim,
    predicted_profile_rate_1_n,
    stack_to_code,
)
from .gf2core import (
    BitMatrix,
    BitVec,
    hstack,
    rank,
    vec_mat_mul,
    vstack,
    weight,
)
from .optsearch import (
    OptimalityVerdict,
    RowSearchResult,
    best_profile_bruteforce,
    codes_equivalent_by_column_permutation,
    optimal_codes_bruteforce,
    search_optimal_row,
    verify_optimal,
    wt_profile,
)
from .simplex import (
    SimplexFamilySpec,
    k_partial_simplex,
    m_fold,
    min_weight_block_code,
    partial_simplex,
    simplex_generator,
)

__version__ = "1.0.0"
