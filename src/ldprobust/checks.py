"""Checks of the paper's lemmas on clean batch collections and on the model covariance.

The estimator never calls these.  check_nice_properties tests the
concentration ("nice") properties that clean collections satisfy with high
probability, and covariance_lipschitz_check the Lipschitz bound of the model
covariance in the response mean.  Both enumerate all 2^d subsets, so d is
capped at 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversary import BatchCollection
from .channel import RapporChannel, mean_response
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EpsOutOfRange,
    InvalidArgument,
    LengthMismatch,
    ShiftTooLarge,
)
from .estimator import collection_mean, empirical_cov, model_cov
from .gram import subset_bilinear_max
from .prob import ProbVector, RngSeed, subset_indicators

#: Random trimmed sub-collections, besides the full one, on which
#: check_nice_properties checks the covariance, and random subset pairs it
#: inspects for condition 2.
NICE_SUBCOLLECTIONS = 8
NICE_PAIRS = 128
# Rows of subsets per block in covariance_lipschitz_check.
_LIPSCHITZ_CHUNK = 256


@dataclass(frozen=True)
class NicePropertiesReport:
    mean_ok: bool
    mean_margin: float
    mean_bound: float
    cov_ok: bool
    cov_margin: float
    cov_bound: float
    small_ok: bool
    small_margin: float
    small_bound: float

    @property
    def condition1(self) -> bool:
        return self.mean_ok and self.cov_ok

    @property
    def condition2(self) -> bool:
        return self.small_ok

    @property
    def all_ok(self) -> bool:
        return self.condition1 and self.condition2


def check_nice_properties(clean: BatchCollection, p_true: ProbVector, eps: float,
                          ch: RapporChannel,
                          rng: Optional[RngSeed] = None) -> NicePropertiesReport:
    """Concentration checks that clean batch collections satisfy with high probability.

    Condition 1a: every sub-collection keeping at least a (1 - 2*eps) fraction
    has subset-mass means within 6*eps*sqrt(d*ln(e/eps)/k) of the true response
    mean, for every subset.  The worst sub-collection per subset is computed
    exactly by trimming sorted batch sums from either end.

    Condition 1b: the empirical covariance of such sub-collections stays within
    250*d*eps*ln(e/eps)/k of the model covariance at the sub-collection mean,
    uniformly over subset pairs (checked exactly via the subset oracle), on
    the full collection and NICE_SUBCOLLECTIONS random trims.

    Condition 2: over every sub-collection of at most eps*|B_G| rows and each
    of NICE_PAIRS random subset pairs, the summed product of centered subset
    masses stays below 33*eps*d*|B_G|*ln(e/eps)/k; the worst sub-collection
    per pair is the positive part of the top scores, computed exactly.
    """
    if clean.truth is not None and clean.adversarial_count() != 0:
        raise InvalidArgument("collection must be entirely clean")
    if clean.d != ch.d:
        raise DimensionMismatch(f"collection has d={clean.d}, channel has d={ch.d}")
    d, k, n = clean.d, clean.k, clean.n
    if d > 12:
        raise DimensionTooLarge("subset enumeration capped at d = 12")
    if not 0.0 < eps < 0.25:
        raise EpsOutOfRange("eps must lie in (0, 1/4)")
    rng = rng or RngSeed(0)
    log_term = math.log(math.e / eps)

    means = clean.counts / k
    q = mean_response(ch, p_true)
    bits_t = subset_indicators(d).T                     # (d, 2^d)
    subset_sums = means @ bits_t                        # (n, 2^d)
    q_sums = (q[None, :] @ bits_t)[0]                   # (2^d,)

    # condition 1a: exact worst trimmed means over subsets x subcollections
    m_min = int(math.ceil((1.0 - 2.0 * eps) * n))
    m_min = max(m_min, 1)
    sorted_sums = np.sort(subset_sums, axis=0)
    csum = np.cumsum(sorted_sums, axis=0)
    bottom = csum[m_min - 1] / m_min
    top = (csum[-1] - (csum[-m_min - 1] if m_min < n else 0.0)) / m_min
    dev = np.maximum(np.abs(bottom - q_sums), np.abs(top - q_sums))
    mean_worst = float(dev.max())
    mean_bound = 6.0 * eps * math.sqrt(d * log_term / k)

    # condition 1b: covariance concentration for the full set and sampled trims
    cov_bound = 250.0 * d * eps * log_term / k
    cov_worst = 0.0
    selections = [np.arange(n)]
    gen = rng.generator(11)
    for _ in range(NICE_SUBCOLLECTIONS):
        selections.append(np.sort(gen.choice(n, size=m_min, replace=False)))
    for sel in selections:
        chat = empirical_cov(clean.counts[sel], k)
        cmod = model_cov(collection_mean(clean.counts[sel], k), k, ch.lam)
        val, _, _ = subset_bilinear_max(chat - cmod)
        cov_worst = max(cov_worst, val)

    # condition 2: exact worst small sub-collection per inspected pair
    small_bound = 33.0 * eps * d * n * log_term / k
    m_small = max(int(math.floor(eps * n)), 1)
    centered_true = subset_sums - q_sums[None, :]
    diag_scores = np.sort(centered_true * centered_true, axis=0)[::-1]
    small_worst = float(np.maximum(diag_scores[:m_small], 0.0).sum(axis=0).max())
    n_masks = 1 << d
    for _ in range(NICE_PAIRS):
        i = int(gen.integers(n_masks))
        j = int(gen.integers(n_masks))
        prod = centered_true[:, i] * centered_true[:, j]
        prod = prod[prod > 0.0]
        if prod.size:
            take = np.sort(prod)[::-1][:m_small].sum()
            small_worst = max(small_worst, float(take))

    return NicePropertiesReport(
        mean_ok=mean_worst <= mean_bound, mean_margin=mean_bound - mean_worst,
        mean_bound=mean_bound,
        cov_ok=cov_worst <= cov_bound, cov_margin=cov_bound - cov_worst,
        cov_bound=cov_bound,
        small_ok=small_worst <= small_bound, small_margin=small_bound - small_worst,
        small_bound=small_bound,
    )


@dataclass(frozen=True)
class LipschitzReport:
    max_gap: float
    max_allowed_violation: float
    ok: bool


def covariance_lipschitz_check(q, q_shift, k: int, lam: float) -> LipschitzReport:
    """Verify the covariance Lipschitz bound exactly over every subset pair.

    The bound checked is
        |Cov_{S,S'}(q) - Cov_{S,S'}(q')| <= (15/k) max(|e(S)|, |e(S')|, |e(S n S')|)
    with e = q' - q.  The intersection term is necessary: with mixed-sign
    shifts e(S n S') can exceed both |e(S)| and |e(S')|, and the two-term
    variant admits counterexamples.  Requires q and q_shift of the same length
    d <= 12 and all subset shifts at most 12 in absolute value.
    """
    qa = np.asarray(q, dtype=np.float64).ravel()
    qb = np.asarray(q_shift, dtype=np.float64).ravel()
    if qa.size != qb.size:
        raise LengthMismatch(f"q has length {qa.size}, q_shift has length {qb.size}")
    d = qa.size
    if d > 12:
        raise DimensionTooLarge("subset enumeration capped at d = 12")
    shift = qb - qa
    bits_f = subset_indicators(d)
    shift_sums = (shift[None, :] @ bits_f.T)[0]
    abs_shift = np.abs(shift_sums)
    if float(abs_shift.max()) > 12.0:
        raise ShiftTooLarge("subset shift exceeds 12")
    diff = model_cov(qa, k, lam) - model_cov(qb, k, lam)
    masks = np.arange(1 << d, dtype=np.uint64)
    right = diff @ bits_f.T                    # (d, 2^d)
    max_gap = 0.0
    worst_violation = -math.inf
    for start in range(0, 1 << d, _LIPSCHITZ_CHUNK):
        stop = min(start + _LIPSCHITZ_CHUNK, 1 << d)
        vals = np.abs(bits_f[start:stop] @ right)
        inter = masks[start:stop, None] & masks[None, :]
        cap = np.maximum(np.maximum.outer(abs_shift[start:stop], abs_shift),
                         abs_shift[inter])
        bound = (15.0 / k) * cap
        max_gap = max(max_gap, float(vals.max()))
        worst_violation = max(worst_violation, float((vals - bound).max()))
    return LipschitzReport(max_gap=max_gap,
                           max_allowed_violation=worst_violation,
                           ok=worst_violation <= 1e-12)
