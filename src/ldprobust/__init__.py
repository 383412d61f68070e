"""Robust estimation of discrete distributions from privatized, corrupted batch data."""

from .adversary import (
    AttackSpec,
    BatchCollection,
    attack_counts,
    contaminate,
    make_clean_collection,
)
from .channel import (
    RapporChannel,
    count_dtype,
    invert_mean,
    lambda_of_alpha,
    ldp_ratio_check,
    mean_response,
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
    sandwich_check,
    subset_bilinear_max,
)
from .harness import (
    RateFitReport,
    SweepConfig,
    TrialCell,
    TrialResult,
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
    l1_dist,
    make_prob_vector,
    subset_mask,
    subset_mass,
    tv_product_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
