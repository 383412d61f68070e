"""Robust estimation of discrete distributions from privatized, corrupted batch data."""

from .adversary import (
    AttackSpec,
    BatchCollection,
    attack_counts,
    contaminate,
    load_collection,
    make_clean_collection,
    save_collection,
)
from .channel import (
    RapporChannel,
    invert_mean,
    lambda_of_alpha,
    ldp_ratio_check,
    mean_response,
    privatize,
    privatize_batch,
    sample_counts,
    sample_privatized,
    subset_sum_law_sample,
)
from .estimator import (
    DESK_TAU_THRESHOLD,
    EstimateResult,
    EstimatorConfig,
    batch_deletion,
    check_nice_properties,
    collection_mean,
    covariance_lipschitz_check,
    empirical_cov,
    model_cov,
    naive_estimate,
    robust_estimate,
    score_collection,
    special_subset,
)
from .gram import (
    GramSolution,
    dual_upper_bound,
    gram_maximize,
    indicator_embedding,
    sandwich_check,
    subset_bilinear_max,
)
from .harness import (
    RateFitReport,
    SweepConfig,
    TrialCell,
    TrialResult,
    eps_prime_solve,
    rate_fit,
    run_trial,
    sweep,
)
from .lowerbound import (
    AssouadFamily,
    CommonMixture,
    HardPair,
    OmegaMatrix,
    assouad_chi2_check,
    assouad_family,
    common_mixture,
    hard_pair,
    low_eigenspace_delta,
    omega_matrix,
)
from .prob import (
    FiniteDist,
    ProbVector,
    RngSeed,
    chi_square,
    l1_dist,
    make_prob_vector,
    sample_categorical,
    subset_mask,
    subset_mass,
    sup_subset_gap,
    tv,
    tv_product_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
