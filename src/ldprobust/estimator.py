"""Robust estimation of the symbol distribution from corrupted privatized batch data.

The estimator iteratively scores the surviving batch rows and deletes suspicious
ones.  Scoring compares the empirical covariance of batch means against the
model covariance implied by the current mean; the comparison is maximized over
the Gram relaxation, which sandwiches the exponential subset search.  The loop
stops once the contamination rate sqrt(tau) falls below the configured
threshold, proved by a cheap upper bound where one reaches below it and
otherwise read from the Gram solver's value, then returns the inverted mean of
the survivors.

Determinism: given (collection, config, master seed) the result is bit
reproducible and invariant under permutations of the input rows.  Mean and
covariance come from exact integer sums of the counts, which have no order;
score ties and deletion clocks follow the lexicographic order of the count rows.

Cost per iteration: the sums S1 and S2 are computed once, before the first
iteration, and each deletion subtracts the deleted rows' contributions
exactly, so an iteration costs O(|deleted| d^2) for the statistics rather
than O(m d^2), with results bitwise those of a recompute.
The stop is decided before any row is read.  In sdp mode two proofs that the
Gram maximum lies below the threshold come first, an O(d^2) l1 bound and one
d x d eigvalsh (gram._upper_bound_below); only when neither passes is the Gram
program solved, and only as far as the decision needs (gram._loop_solve): one
start at the small rank gram.LOOP_RANK, ascended to a loose tolerance, whose
value reaches the threshold shows that the loop goes on and supplies the
factors to score with, and only below the threshold is the full, certified
solve run.  So a stopping iteration reads no row and scores nothing, every
stop rests on a proof or a certified solve, and only an iteration that
deletes gathers the survivors and scores them.  Each row's score
(c^T U) . (c^T V) comes from one product with the d x 2r factors of
M* = U V^T, O(m d r): r = min(LOOP_RANK, ceil(2 sqrt(d)) + 1) for a kept
ascent, 4 at any d >= 2, and the full solve's ceil(2 sqrt(d)) + 1, 24 at
d = 128, for the rare iteration whose full solve does not stop.  The loop's
own d x d matrices are symmetric and finite by construction and are not
checked again; the absolute values of the Gram input are built once per
iteration, for both the l1 proof and the in-loop solve.

Memory per pass: the row passes read the counts in blocks and allocate no
block-sized temporary.  The scores are centred and projected in float64
scratch made once per estimate.  The sums S1 and S2 convert the blocks into
one scratch array per call, float32 where their integers fit in 24 bits,
and S1 is one product with a ones vector per block.  Scratch held
across blocks stays mapped, where a freed block temporary would be handed
back to the kernel and faulted in again by the next block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversary import BatchCollection, as_counts, checked_counts
from .channel import RapporChannel, count_dtype, invert_mean
from .errors import (
    AllZeroScores,
    EmptySelection,
    EpsOutOfRange,
    Exhausted,
    InexactStatistics,
    InvalidArgument,
    InvalidConfig,
    TooFewBatches,
)
from .gram import (
    GramSolution,
    _l1_rounded_up,
    _loop_solve,
    _rank,
    _upper_bound_below,
    gram_maximize,
)
from .prob import RngSeed

#: Loop threshold on sqrt(tau) matching the termination constant of the
#: analysis.  At desk scales this value is far above anything an attack can
#: produce, so sweeps use the recalibrated DESK_TAU_THRESHOLD instead.
DEFAULT_TAU_THRESHOLD = 200.0
#: Gap at which the scoring switches to the special large-mean mode.
SPECIAL_GAP = 11.0
#: Pilot-calibrated sqrt(tau) threshold for desk-scale experiments: clean
#: collections at (d=5, k=50, n~2000) score sqrt(tau) well below 1 while the
#: attacks of interest score several times higher.  Frozen after a pilot run.
DESK_TAU_THRESHOLD = 1.2


def rate_unit(eps: float, d: int, k: int) -> float:
    """Normalization eps * d * ln(e/eps) / k used by the contamination rate."""
    if not 0.0 < eps < 1.0:
        raise EpsOutOfRange(f"eps must lie in (0, 1), got {eps}")
    return eps * d * math.log(math.e / eps) / k


@dataclass(frozen=True)
class EstimatorConfig:
    eps: float
    tau_threshold: float = DEFAULT_TAU_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.eps < 0.25:
            raise EpsOutOfRange(f"eps must lie in [0, 1/4), got {self.eps}")
        if not self.tau_threshold > 0:
            raise InvalidConfig("tau_threshold must be positive")


@dataclass
class CovBundle:
    """Mean, empirical covariance and its gap to the model covariance for one
    selection of batch rows."""

    qhat_col: np.ndarray
    chat: np.ndarray
    dmat: np.ndarray


@dataclass
class ScoreReport:
    mode: str                       # "special" or "sdp"
    tau: float                      # +inf in special mode
    scores: np.ndarray
    s_star: Optional[np.ndarray] = None
    gram: Optional[GramSolution] = None
    tau_upper: float = math.inf     # certified bound on tau: gram upper bound / rate unit


@dataclass(frozen=True)
class IterationRecord:
    """One filtering iteration: its survivors, its tau and what it deleted.

    gram_value and gram_upper are the Gram solver's value and an upper bound
    on the maximum, tau is gram_value / rate_unit, and certified_by the path
    that computed the bound (all three None and tau +inf in special mode).  A
    full solve reports "eigvalsh" and a bound within GAP_TOL of the value.  An iteration that kept the in-loop ascent (gram._loop_solve)
    has gram_value at or above tau_threshold^2 * rate_unit, gram_upper the
    l1 sum sum |A_ij| rounded upward (at least gram_value) and certified_by
    "l1"; it never stops.  A stop proved before any solve has gram_value
    None, gram_upper the proved bound, certified_by the proof, "l1" or
    "uniform-dual", and tau the bound / rate_unit, at least the tau a solve
    would give.  pool_size is the number of top-score candidates the deletion
    drew from (0 on the stopping iteration, which scores no row).
    """

    tau: float
    mode: str
    survivors: int
    pool_size: int
    gram_value: Optional[float]
    gram_upper: Optional[float]
    certified_by: Optional[str]
    deleted: tuple


@dataclass
class EstimateResult:
    qhat: np.ndarray
    phat: np.ndarray
    phat_normalized: np.ndarray
    surviving: np.ndarray
    trace: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_tau(self) -> float:
        return self.trace[-1].tau if self.trace else math.nan

    def deleted_indices(self) -> np.ndarray:
        parts = [np.asarray(rec.deleted, dtype=np.int64) for rec in self.trace]
        return np.sort(np.concatenate([np.empty(0, dtype=np.int64)] + parts))

    def to_text(self) -> str:
        """Key-value record including the full tau trace."""
        lines = [
            f"iterations={self.iterations}",
            f"final_tau={self.final_tau!r}",
            f"surviving={self.surviving.size}",
        ]
        for i, rec in enumerate(self.trace):
            deleted = ",".join(str(j) for j in rec.deleted)
            lines.append(f"trace[{i}]=mode:{rec.mode} tau:{rec.tau!r} "
                         f"certified_by:{rec.certified_by} "
                         f"gram_value:{rec.gram_value!r} gram_upper:{rec.gram_upper!r} "
                         f"survivors:{rec.survivors} pool:{rec.pool_size} deleted:[{deleted}]")
        lines.append("qhat=" + " ".join(repr(x) for x in self.qhat))
        lines.append("phat=" + " ".join(repr(x) for x in self.phat))
        lines.append("phat_normalized=" + " ".join(repr(x) for x in self.phat_normalized))
        return "\n".join(lines)


#: Passes over the rows of a count array convert them in blocks of about this
#: many entries.  Their float temporaries then stay small and of one size
#: however many rows there are, so a filtering loop whose selection shrinks
#: each iteration reuses the same memory, and peak RSS does not hinge on how
#: the heap happened to fragment.
_BLOCK_SCALARS = 1 << 16
# The halving stop counts scores on a grid that puts their float total below 2^60.
_HALVING_GRID_BITS = 60


def _block_step(d: int) -> int:
    return max(2, _BLOCK_SCALARS // max(d, 1))


def _row_blocks(c: np.ndarray):
    """Pairs (index of the first row, view of the rows) over consecutive row blocks of c.

    No block holds a lone row unless c does: BLAS computes a one-row product
    by another kernel, which can round differently, and a row's score should
    not depend on how the rows were blocked.  So a block holds at most
    _block_rows(c) rows.
    """
    m = c.shape[0]
    step = _block_step(c.shape[1])
    start = 0
    while start < m:
        stop = m if m - start <= step + 1 else start + step
        yield start, c[start:stop]
        start = stop


def _block_rows(c: np.ndarray) -> int:
    """The most rows a block of c, or of any selection of its rows, holds:
    a lone last row joins the block before it."""
    return min(c.shape[0], _block_step(c.shape[1]) + 1)


def _exact_sums(c: np.ndarray, k: int,
                second: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """(S1, S2): S1 = sum of c_b and, if second, S2 = sum of c_b c_b^T over the
    rows of c, in int64, from one product per row block; S2 is None otherwise.

    Each block is converted into one scratch array made for the call, so no
    block allocates its own float copy, and S1 is one ones @ block on it.
    Counts lie in [0, k], so every partial sum of a block's products is an
    integer of at most rows * k^2, or rows * k for S1 alone.  The scratch is
    float32 while that lies below 2^24 and float64 otherwise, which holds
    integers up to 2^53 (ExactSums.of keeps n k^2 below it), so either is
    exact in any summation order.  Where a block's S1 alone could reach 2^53
    it is summed in int64.
    """
    rows = _block_rows(c)
    peak = rows * k * k if second else rows * k
    if not second and peak >= 2 ** 53:
        return c.sum(axis=0, dtype=np.int64), None
    dtype = np.float32 if peak < 2 ** 24 else np.float64
    f = np.empty((rows, c.shape[1]), dtype=dtype)
    ones = np.ones(rows, dtype=dtype)
    s1 = np.zeros(c.shape[1], dtype=np.int64)
    s2 = np.zeros((c.shape[1], c.shape[1]), dtype=np.int64) if second else None
    for _, block in _row_blocks(c):
        b = f[:block.shape[0]]
        np.copyto(b, block)
        s1 += (ones[:b.shape[0]] @ b).astype(np.int64)
        if second:
            s2 += (b.T @ b).astype(np.int64)
    return s1, s2


def _mean(s1: np.ndarray, n: int, k: int) -> np.ndarray:
    return s1 / float(n * k)


def _collection_mean(c: np.ndarray, k: int) -> np.ndarray:
    """qhat = S1 / (n k), the mean fraction of ones per coordinate, of a nonempty
    selection of counts already checked to lie in [0, k]; S1 alone, without
    the bound on n k^2 that S2 needs."""
    if c.shape[0] == 0:
        raise EmptySelection("selection must be a nonempty (m, d) array of counts")
    return _mean(_exact_sums(c, k, second=False)[0], c.shape[0], k)


def check_exact_bounds(n: int, k: int) -> None:
    """Raise InexactStatistics unless n k^2 < 2^53 and n k < 3e9, the bounds
    within which ExactSums of n rows of counts in [0, k] are exact.  O(1): a
    sweep cell calls it before its first trial."""
    if n * k * k >= 2 ** 53 or n * k >= 3 * 10 ** 9:
        raise InexactStatistics(f"n={n}, k={k} exceed the exact-statistics bounds")


@dataclass(frozen=True)
class ExactSums:
    """Exact integer sums of n count rows: S1 = sum c_b and S2 = sum c_b c_b^T.

    `of` computes them from the rows; `without` subtracts the contributions of
    rows leaving the selection, so the sums of what remains, and the mean and
    covariance built from them, are bitwise those of a recompute.
    """

    n: int
    k: int
    s1: np.ndarray
    s2: np.ndarray

    @classmethod
    def of(cls, counts, k: int) -> ExactSums:
        """Sums of at least two rows of counts in [0, k], within the bounds that keep
        the covariance exact.

        Counts outside [0, k] raise CountMismatch.  S2 is exact while n k^2 <
        2^53 (see _exact_sums), and the numerator n S2 - S1 S1^T is exact in
        int64 while (n k)^2 < 9.2e18; outside these bounds InexactStatistics is
        raised.  Rows removed later only lower n.
        """
        c = as_counts(counts)
        if c.shape[0] < 2:
            raise TooFewBatches("need at least two batch rows")
        n, k = c.shape[0], int(k)
        # the O(1) bounds before the O(n d) range scan
        check_exact_bounds(n, k)
        c = checked_counts(c, k)
        s1, s2 = _exact_sums(c, k)
        return cls(n=n, k=k, s1=s1, s2=s2)

    def without(self, rows) -> ExactSums:
        """Sums after the given count rows, a subset of the summed rows, are removed."""
        c = as_counts(rows)
        s1, s2 = _exact_sums(c, self.k)
        return ExactSums(n=self.n - c.shape[0], k=self.k, s1=self.s1 - s1, s2=self.s2 - s2)

    def mean(self) -> np.ndarray:
        """qhat = S1 / (n k), rounded as the naive estimate's mean is rounded."""
        return _mean(self.s1, self.n, self.k)

    def cov(self) -> np.ndarray:
        """(n S2 - S1 S1^T) / (n^2 k^2): the exact integer numerator, one rounding, one division."""
        return (self.n * self.s2 - np.outer(self.s1, self.s1)) / float((self.n * self.k) ** 2)


def model_cov(qhat, k: int, lam: float) -> np.ndarray:
    """Covariance of a clean batch mean when the response mean is qhat.

    k * C(q) = -(lam*1 - q)(lam*1 - q)^T + lam*(1-lam)*I - (1-2*lam)*Diag(lam*1 - q)

    Built in the one d x d array, with the bits of the formula evaluated left
    to right on dense I and Diag, zero signs included.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    q = np.asarray(qhat, dtype=np.float64).ravel()
    delta = lam - q
    a, b = lam * (1.0 - lam), 1.0 - 2.0 * lam
    kc = np.outer(-delta, delta)
    diag = kc.reshape(-1)[::q.size + 1]
    on_diag = (diag + a) - b * delta
    # off the diagonal I and Diag add a * 0 and subtract b * 0, which can
    # only change the sign of a zero
    kc += a * 0.0
    kc -= b * 0.0
    diag[:] = on_diag
    kc /= k
    return kc


def build_cov_bundle(sums: ExactSums, lam: float) -> CovBundle:
    """Mean and empirical covariance of the rows summed in `sums`, and the
    empirical minus the model covariance at that mean; O(d^2), reads no row."""
    qhat_col = sums.mean()
    chat = sums.cov()
    dmat = model_cov(qhat_col, sums.k, lam)
    return CovBundle(qhat_col=qhat_col, chat=chat, dmat=np.subtract(chat, dmat, out=dmat))


def _canonical_order(c: np.ndarray, k: int) -> np.ndarray:
    """Stable permutation sorting count rows lexicographically, first column
    first, for counts c already checked to lie in [0, k].

    Equals np.lexsort(c.T[::-1]).  When (k+1)^d * n < 2^63 each row's key is
    the exact mixed-radix integer sum_j c_j (k+1)^(d-1-j), built by integer
    multiply-adds; key * n + row makes the keys unique, so one unstable sort
    gives the stable order and the row is read back as the remainder mod n.
    Otherwise each row is viewed as one byte string of big-endian entries of
    count_dtype(k), whose memcmp order is the lexicographic order of the
    rows, and one stable argsort sorts them; uint8 rows are viewed without a
    copy.
    """
    n, d = c.shape
    if (k + 1) ** d * n < 2 ** 63:
        key = np.zeros(n, dtype=np.int64)
        for j in range(d):
            key *= k + 1
            key += c[:, j].astype(np.int64, copy=False)
        key *= n
        key += np.arange(n)
        key.sort()
        key %= n
        return key
    rows = np.ascontiguousarray(c, dtype=count_dtype(k).newbyteorder(">"))
    keys = rows.view(np.dtype((np.void, rows.itemsize * d))).ravel()
    return np.argsort(keys, kind="stable")


def special_subset(qhat_col, lam: float) -> tuple[np.ndarray, float]:
    """Subset maximizing |qhat(S) - lam*|S||, from the split at coordinate level lam.

    Returns the better of A = {j: qhat_j >= lam} and its complement, ties
    toward A, together with the attained gap.
    """
    q = np.asarray(qhat_col, dtype=np.float64).ravel()
    a_mask = q >= lam
    shift = q - lam
    gap_a = abs(float(shift[a_mask].sum()))
    gap_c = abs(float(shift[~a_mask].sum()))
    if gap_a >= gap_c:
        return a_mask, gap_a
    return ~a_mask, gap_c


def _special_mask(sums: ExactSums, lam: float) -> Optional[np.ndarray]:
    """The mode check: S* when the mean gap |qhat(S*) - lam*|S*|| of the summed
    rows reaches SPECIAL_GAP (special mode), else None (sdp mode)."""
    s_star, gap = special_subset(sums.mean(), lam)
    return s_star if gap >= SPECIAL_GAP else None


def _special_scores(counts: np.ndarray, s_star: np.ndarray, k: int, lam: float) -> np.ndarray:
    """Each row's mean gap |c_b(S*) / k - lam*|S*|| on S*."""
    scores = np.empty(counts.shape[0], dtype=np.float64)
    offset = lam * float(s_star.sum())
    for start, block in _row_blocks(counts):
        shift = block[:, s_star].sum(axis=1) / k - offset
        scores[start:start + shift.size] = np.abs(shift)
    return scores


def _score_scratch(counts: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 arrays (centred, proj) of shapes (rows, d) and (rows, 2 rank) that
    _sdp_scores writes each block into, for counts or any selection of their
    rows, and factors of rank at most rank."""
    rows = _block_rows(counts)
    return np.empty((rows, counts.shape[1])), np.empty((rows, 2 * rank))


def _sdp_scores(counts: np.ndarray, sums: ExactSums, sol: GramSolution, k: int,
                scratch: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Each row's |c_b^T M* c_b| for its centred mean c_b, from the rank-r factors.

    Blocks are centred and projected in scratch (see _score_scratch), made for
    the call when not passed, so no block allocates its own temporaries.  A
    scratch made for a larger rank is used through its first (rows, 2r)
    entries, a contiguous array, so the scores do not depend on the scratch.
    """
    # c^T U V^T c = (c^T U) . (c^T V): one (rows, 2r) product per block.  Rows
    # are centred in count units (counts - S1/n, which is k c) by casting the
    # counts to float64 and subtracting in place, the bits of one float
    # subtraction from the counts at their own width, so a row at the mean
    # count centres to exactly zero; the k^2 is divided out at the end.
    r = sol.rank
    centred, proj = _score_scratch(counts, r) if scratch is None else scratch
    proj = proj.reshape(-1)
    scores = np.empty(counts.shape[0], dtype=np.float64)
    factors = np.hstack([sol.u_factors, sol.v_factors])
    mean_count = sums.s1 / float(sums.n)
    for start, block in _row_blocks(counts):
        rows = block.shape[0]
        c, p = centred[:rows], proj[:rows * 2 * r].reshape(rows, 2 * r)
        np.copyto(c, block)
        c -= mean_count
        np.matmul(c, factors, out=p)
        np.einsum("ij,ij->i", p[:, :r], p[:, r:], out=scores[start:start + rows])
    np.abs(scores, out=scores)
    scores /= k * k
    return scores


def score_collection(coll_or_counts, cfg: EstimatorConfig, ch: RapporChannel,
                     rng: RngSeed, k: Optional[int] = None) -> ScoreReport:
    """Contamination rate and per-row corruption scores for a selection.

    Takes a BatchCollection, or an (m, d) integer array of counts together
    with k.  The mean, and in sdp mode the covariance, are read from the
    exact sums of the rows (see ExactSums).  Special mode fires when the mean
    gap |qhat(S*) - lam*|S*|| reaches SPECIAL_GAP; tau is then +inf and scores
    are the per-row gaps on S*.  Otherwise tau normalizes the Gram maximum of
    Chat - C(qhat) and the score of row b is |c_b^T M* c_b| for its centered
    mean c_b, computed from the rank-r factors as (c_b^T U) . (c_b^T V).
    The mode check and the scoring passes are those of robust_estimate,
    which runs them on the iterations that delete.  The solve is the full
    gram_maximize, so tau_upper is certified to GAP_TOL; robust_estimate
    scores from its in-loop solve, which may stop at a one-start ascent.
    """
    if isinstance(coll_or_counts, BatchCollection):
        counts, k = coll_or_counts.counts, coll_or_counts.k
    else:
        counts = as_counts(coll_or_counts)
        if k is None:
            raise InvalidArgument("k is required when passing counts")
    if counts.shape[0] < 2:
        raise TooFewBatches("need at least two batch rows to score")

    sums = ExactSums.of(counts, k)
    s_star = _special_mask(sums, ch.lam)
    if s_star is not None:
        return ScoreReport(mode="special", tau=math.inf, s_star=s_star,
                           scores=_special_scores(counts, s_star, k, ch.lam))
    unit = rate_unit(cfg.eps, ch.d, k)
    sol = gram_maximize(build_cov_bundle(sums, ch.lam).dmat, rng=rng)
    return ScoreReport(mode="sdp", tau=sol.value / unit, scores=_sdp_scores(counts, sums, sol, k),
                       gram=sol, tau_upper=sol.upper_bound / unit)


def _top_pool(scores: np.ndarray, size: int) -> np.ndarray:
    """Ascending positions of the `size` largest scores, ties to the lower position.

    The set np.argsort(-scores, kind="stable")[:size], from one partition: t
    is the size-th largest score, and the pool is every position scoring
    above t plus the lowest positions scoring exactly t, O(m + size log size)
    in place of a full O(m log m) sort.
    """
    t = np.partition(scores, scores.size - size)[scores.size - size]
    above = np.flatnonzero(scores > t)
    at = np.flatnonzero(scores == t)[:size - above.size]
    return np.sort(np.concatenate((above, at)))


def _race_order(scores: np.ndarray, exponentials: np.ndarray) -> np.ndarray:
    """Deletion order of sequential weighted sampling without replacement.

    Sorting exponential clocks E_b / score_b ascending reproduces, exactly in
    distribution, the sequential scheme that repeatedly deletes one entry with
    probability proportional to its score.  Zero-score entries sort last.
    """
    with np.errstate(divide="ignore"):
        keys = np.where(scores > 0.0, exponentials / scores, np.inf)
    return np.argsort(keys, kind="stable")


def _delete_until_halved(scores: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Prefix of the deletion order that halves the total score mass.

    Deletion continues while the remaining mass exceeds half the initial
    total, i.e. it stops as soon as the deleted mass reaches half.  The mass
    is counted exactly on one power-of-two grid: each score becomes
    floor(s * 2^e), with e chosen from the total so that the grid total stays
    below 2^61, and an integer cumsum decides the stop.  So P equal scores
    delete exactly P/2 rows for even P, in any order and whatever the last bit
    of the common score.
    """
    total = float(scores.sum())
    if total <= 0.0:
        raise AllZeroScores("cannot delete from an all-zero score pool")
    # total < 2^t with t = frexp(total)[1]; on the grid 2^(60 - t) the exact
    # sum is below 2^61 (the float sum is off by far less than a factor 2),
    # so twice any remainder fits in int64, and the largest score, at least
    # total / P, is at least 2^59 / P grid units
    grid = np.floor(np.ldexp(scores, _HALVING_GRID_BITS - math.frexp(total)[1])).astype(np.int64)
    grid_total = int(grid.sum())
    left = grid_total - np.cumsum(grid[order])
    # stop after the first deletion that leaves at most half
    stop = int(np.searchsorted(-2 * left, -grid_total, side="left")) + 1
    return np.asarray(order[:stop], dtype=np.int64)


def batch_deletion(indices, scores, gen: np.random.Generator) -> np.ndarray:
    """Randomized deletion from a candidate pool until its score mass is halved.

    Picks entries with probability proportional to their score, without
    replacement; returns the deleted indices in deletion order.  The clocks
    are one exponential per entry, drawn from gen.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    sc = np.asarray(scores, dtype=np.float64).ravel()
    if idx.size == 0:
        raise AllZeroScores("empty candidate pool")
    if idx.size != sc.size:
        raise InvalidArgument(f"indices and scores differ in length: {idx.size} and {sc.size}")
    if np.any(sc < 0):
        raise InvalidArgument("scores must be nonnegative")
    exps = gen.exponential(size=idx.size)
    local = _delete_until_halved(sc, _race_order(sc, exps))
    return idx[local]


def naive_estimate(coll: BatchCollection, ch: RapporChannel) -> EstimateResult:
    """Mean over every batch row, inverted and normalized; no filtering.

    The counts are read without a range scan: the BatchCollection checked
    them when it was built.
    """
    qhat = _collection_mean(coll.counts, coll.k)
    return _finalize(qhat, np.arange(coll.n, dtype=np.int64), [], ch)


def _finalize(qhat: np.ndarray, surviving: np.ndarray, trace: list,
              ch: RapporChannel) -> EstimateResult:
    phat = invert_mean(ch, qhat)
    norm = float(np.abs(phat).sum())
    if norm > 1e-9:
        phat_normalized = phat / norm
    else:
        phat_normalized = phat.copy()
    return EstimateResult(qhat=qhat, phat=phat, phat_normalized=phat_normalized,
                          surviving=surviving, trace=trace)


def _stops(tau: float, cfg: EstimatorConfig) -> bool:
    """The stopping rule: sqrt(tau) below the threshold."""
    return math.isfinite(tau) and math.sqrt(max(tau, 0.0)) < cfg.tau_threshold


def robust_estimate(coll: BatchCollection, cfg: EstimatorConfig, ch: RapporChannel,
                    rng: RngSeed) -> EstimateResult:
    """Score-and-delete loop followed by mean inversion and l1 normalization.

    Per iteration: check the mode (special mode has tau = +inf and never
    stops); in sdp mode decide the stop before any row is scored, first by a
    cheap proof that the Gram maximum lies below limit = tau_threshold^2 *
    rate_unit (gram._upper_bound_below), which needs no solve, and otherwise
    by the in-loop solve (gram._loop_solve) with the draws of
    rng.child(4, iteration): one start at rank gram.LOOP_RANK ascended until
    a sweep gains at most LOOP_TOL, kept when its value reaches limit, which
    proves the loop does not stop, and otherwise the full gram_maximize,
    whose value stops the loop when sqrt(tau) falls below the threshold.
    An iteration that does not stop scores the survivors, takes the
    floor(eps * n) rows with top scores (ties to the lower canonical rank,
    the rank in lexicographic order of count rows) and runs the randomized
    deletion on that pool, its clocks assigned in canonical order.  When floor(eps * n) = 0, as at
    eps = 0, no row can be adversarial, and the result equals
    naive_estimate exactly.  Every
    iteration that does not stop deletes at least one row, so the loop ends;
    when fewer than two rows survive, or every score in the pool is zero, it
    ends with Exhausted, an InputError naming n, d and eps.

    A proved stop is a stop the full solve's value makes too: value <=
    maximum <= bound, the value up to its own rounding, and float division
    and sqrt are monotone.  So every deletion and result is that of the
    rule on the solve's value alone; only the stopping record differs, with
    tau = bound / rate_unit, gram_value None, gram_upper the bound and
    certified_by the proof ("l1" or "uniform-dual").  Deletions after an
    ascent are scored from its less polished, lower-rank factors, so they
    can differ from those the full solve's factors would give.

    The exact sums S1 and S2 of all rows are computed once, before the first
    iteration, so InexactStatistics is raised there, from the full n, and
    ExactSums.of's range check is the estimate's one scan of the counts: the
    canonical order reads them unchecked.  They
    are downdated exactly after each deletion (ExactSums.without), so qhat,
    Chat and the Gram input of every iteration, and the returned qhat, are
    bitwise those of a recompute from the survivors.  The mode check and
    the scoring passes are those of score_collection, whose solve is always
    the full one; deletions come from batch_deletion.
    """
    n = coll.n
    if n < 2:
        raise Exhausted("need at least two batch rows")
    pool_size = int(math.floor(cfg.eps * n))
    if pool_size == 0:
        return naive_estimate(coll, ch)

    counts, k = coll.counts, coll.k
    # the one range scan of the counts; the canonical order reads them unchecked
    sums = ExactSums.of(counts, k)
    canonical = _canonical_order(counts, k)
    # survivors are gathered into one buffer of the counts' width, and scored
    # in float64 scratch of one block, all reused by every iteration, so no
    # iteration or block allocates an (m, d) or block-sized array; the scratch
    # holds the full solve's rank, at which an iteration that falls back to
    # the full solve and does not stop scores
    work = np.empty(counts.shape, dtype=counts.dtype)
    scratch = _score_scratch(counts, _rank(ch.d))
    surviving = np.ones(n, dtype=bool)
    unit = rate_unit(cfg.eps, ch.d, k)
    # a product, not ** 2, which raises OverflowError for a threshold above 1e154
    limit = cfg.tau_threshold * cfg.tau_threshold * unit
    trace: list[IterationRecord] = []

    def exhausted(why: str) -> Exhausted:
        return Exhausted(f"{why}: n={n} batch rows at d={ch.d}, eps={cfg.eps} are too few "
                         f"for sqrt(tau) to fall below {cfg.tau_threshold}")

    for iteration in itertools.count():
        # survivors in canonical order, so position in sel is canonical rank
        sel = canonical[surviving[canonical]]
        if sel.size < 2:
            raise exhausted("fewer than two batch rows survive")
        record = dict(mode="special", tau=math.inf, survivors=int(sel.size),
                      gram_value=None, gram_upper=None, certified_by=None)
        stop = False
        s_star = _special_mask(sums, ch.lam)
        if s_star is None:
            dmat = build_cov_bundle(sums, ch.lam).dmat
            abs_dmat = np.abs(dmat)
            l1 = _l1_rounded_up(abs_dmat)
            proved = _upper_bound_below(dmat, limit, abs_dmat, l1)
            if proved is not None and _stops(proved[0] / unit, cfg):
                record.update(mode="sdp", tau=proved[0] / unit, gram_upper=proved[0],
                              certified_by=proved[1])
                stop = True
            else:
                sol = _loop_solve(dmat, limit, rng.child(4, iteration), l1)
                record.update(mode="sdp", tau=sol.value / unit, gram_value=sol.value,
                              gram_upper=sol.upper_bound, certified_by=sol.certified_by)
                # an ascent kept at value >= limit shows the maximum reaches the
                # limit, so only a full solve can stop the loop
                stop = sol.certified_by != "l1" and _stops(record["tau"], cfg)
        if stop:
            trace.append(IterationRecord(pool_size=0, deleted=(), **record))
            return _finalize(sums.mean(), np.sort(sel), trace, ch)

        # mode="clip" (sel is in range) writes straight into out; "raise" buffers
        chosen = np.take(counts, sel, axis=0, out=work[:sel.size], mode="clip")
        if s_star is None:
            scores = _sdp_scores(chosen, sums, sol, k, scratch=scratch)
        else:
            scores = _special_scores(chosen, s_star, k, ch.lam)
        pool = _top_pool(scores, min(pool_size, sel.size))
        try:
            local = batch_deletion(pool, scores[pool], rng.generator(3, iteration))
        except AllZeroScores as exc:
            raise exhausted("every score in the deletion pool is zero") from exc
        deleted = sel[local]
        surviving[deleted] = False
        sums = sums.without(counts[deleted])
        trace.append(IterationRecord(pool_size=int(pool.size),
                                     deleted=tuple(deleted.tolist()), **record))
