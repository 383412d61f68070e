"""Bilinear maximization over the Gram feasible set and its subset-indicator oracle.

The feasible set consists of matrices M with M_ij = <u_i, v_j> for unit vectors
u_1..u_d, v_1..v_d.  For a symmetric matrix A the maximum of <M, A> over that
set sandwiches the exponential-time subset maximum:

    max_{S,S'} |<1_S 1_{S'}^T, A>|  <=  max_M <M, A>  <=  8 * max_{S,S'} |...|

The maximum is a semidefinite program.  With Y = [U; V] stacking the factor
rows and B = [[0, A/2], [A/2, 0]], it is max <B, X> over positive semidefinite
2d x 2d matrices X with unit diagonal, and <B, Y Y^T> = <U V^T, A>.

The solver factors X = Y Y^T at rank ceil(2 sqrt(d)) + 1, above the
Barvinok-Pataki bound for the 2d diagonal constraints (Burer & Monteiro), and
maximizes by alternating exact block updates u_i <- normalize((A v)_i), so the
objective is nondecreasing per half sweep.  The returned value is feasible and
therefore a lower bound on the maximum.  What vouches for it is an
a-posteriori weak-duality certificate: with y_i = <(B Y)_i, Y_i>, the vector
y + t 1 is dual feasible whenever Diag(y) - B + t I is positive semidefinite,
and then every feasible X satisfies <B, X> <= sum(y) + 2d t.

The certificate takes t = max(0, -lambda_min(Diag(y) - B)) from one
symmetric eigenvalue problem of size 2d, plus a margin for the eigensolver's
backward error, and rounds the bound upward; dual_upper_bound is the same
bound from any factors.  Random restarts run only until the upper bound is
within GAP_TOL of the value, so a solution carries both ends of an interval
that holds the true maximum.  The ascent converges linearly, so polishing a
start to SWEEP_TOL buys digits the GAP_TOL promise does not need: each start
is certified on the way, when its sweep gain first falls to each of
STAGE_TOLS, and ends at the first bound within GAP_TOL; only a start that no
such check certifies runs on to SWEEP_TOL.  A solve's certificates share
one 2d x 2d buffer, whose off-diagonal blocks are written once.

Where only an upper bound below a limit is wanted, as for the filter's stop,
upper_bound_below tries two proofs before any solve: sum |A_ij|, and the
uniform dual y = c 1, feasible when d ||A||_2 <= sum(y), decided by one
Cholesky factor of a d x d Schur complement after an a-priori shift that
covers the rounding in forming it and Rump's margin for the factorization
(Rump 2006, "Verification of positive definiteness", BIT 46).  Where neither
proof passes, the filter solves for factors to score rows with, and the bound
matters only if the loop might stop.  _loop_solve ascends one start at the
small rank LOOP_RANK to the looser LOOP_TOL; a value at or above the limit is
itself the proof that the loop goes on, and its factors are kept with the l1
sum as their bound.  The scores need them only to within a constant factor,
and for unit-row Grothendieck-type programs every local maximum at rank k is
within a factor 1 - O(1/k) of the optimum (Mei, Misiakiewicz, Montanari &
Oliveira 2017).  Below the limit it runs the full, certified gram_maximize.
The loop's matrices are symmetric and finite by construction, so
_upper_bound_below and _loop_solve do not check them again; the public
functions do.  The filter builds |A| and its l1 sum once per iteration:
_upper_bound_below takes both, and _loop_solve the l1 sum alone.

The subset side is exact: subset_bilinear_max enumerates all 2^d masks S for
d <= MAX_ENUM_D, with the sums A 1_S built by a doubling table of elementwise
additions, about 2^d d of them, in place of products with a 0/1 indicator
matrix.  It uses no BLAS, so its value and masks have the same bits under
every BLAS kernel.  sandwich_check, and through it the sdp-check command,
holds the Gram solver against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidArgument,
    NotSymmetric,
)
from .prob import RngSeed

#: Enumeration guard for the exact subset oracle.
MAX_ENUM_D = 22
# Coordinates in the oracle's doubling table, which holds d 2^14 floats.
_ENUM_LOW_BITS = 14

SYMMETRY_TOL = 1e-12
# Bound on sum |A_ij| for every function here: it keeps every subset sum, the
# Gram value and its bound finite, far from overflow.
_MAX_ABS_SUM = 2.0 ** 1000
#: Certified relative gap (upper_bound - value) / |upper_bound| at which the
#: solver stops restarting.
GAP_TOL = 1e-4
# Floor on |upper_bound| in the relative gap, so that A = 0 (bound and value
# both 0) certifies.
_GAP_FLOOR = np.finfo(np.float64).tiny
#: A start stops once a full sweep gains at most SWEEP_TOL (relative above 1),
#: or after MAX_SWEEPS sweeps.
SWEEP_TOL = 1e-8
MAX_SWEEPS = 500
#: A start of a full solve is certified on the way when a full sweep's gain
#: first falls to each of these (relative above 1), and ends there once its
#: bound is within GAP_TOL (see _ascend).
STAGE_TOLS = (1e-6, 1e-7)
#: The sweep tolerance and the rank of the filter's in-loop ascent (see _loop_solve).
LOOP_TOL = 1e-3
LOOP_RANK = 4
#: Cap on the random starts of one solve.
MAX_RESTARTS = 16
#: Tolerance of both sides of the sandwich, relative to the Frobenius norm of A.
SANDWICH_TOL = 1e-6
#: The paths that can compute GramSolution.upper_bound.
CERTIFICATE_PATHS = ("eigvalsh",)
# Unit roundoff of float64, and the smallest normal float64, which bounds the
# absolute error a gradual underflow adds to one operation.
_UNIT = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
# Largest entries of A that gram_maximize solves unscaled: the squared row
# norms of A V, at most d^2 max|A|^2, stay finite and normal for any d < 2^250.
_SAFE_SCALE = (2.0 ** -256, 2.0 ** 256)


def _relative_gap(value: float, upper: float) -> float:
    return (upper - value) / max(abs(upper), _GAP_FLOOR)


def check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    if A.shape[0] == 0:
        raise InvalidArgument("matrix must be at least 1 x 1")
    if not float(np.abs(A).sum()) <= _MAX_ABS_SUM:
        raise InvalidArgument("matrix entries must be finite, their absolute values "
                              "summing below 2^1000")
    if float(np.abs(A - A.T).max(initial=0.0)) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return A


def subset_bilinear_max(A) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact max_{S,S'} |<1_S 1_{S'}^T, A>| with attaining masks, by enumeration.

    S is enumerated over all 2^d subsets (bit j of a mask is coordinate j).
    For each S the inner problem is separable: with W_S = A 1_S, the best S'
    is the positive support of W_S, worth pos = sum of its positive entries,
    or the negative support, worth neg; the value of S is max(pos, neg) =
    (||W_S||_1 + |sum W_S|) / 2.  Ties go to the lowest mask S, and S' is the
    positive support when pos >= neg.

    The sums W_S come from a doubling table over the low l = min(d, 14)
    coordinates, a (d, 2^l) array whose column m is W_m, filled by
    W[:, 2^j:2^(j+1)] = W[:, :2^j] + A[j]; each block of 2^l masks sharing
    the high coordinates adds one vector, the sum of A's selected high rows.
    The cost is about 2^d d additions for the sums and as many for the
    reductions, with one or two (d, 2^l) arrays of memory: 0.2 ms at d = 12
    and 56 ms at d = 20 on one core of a 2-vCPU VM.  The returned value and
    S' come from W_S of the winning S summed again from its rows.
    Everything is elementwise adds, absolute values and reductions over the
    first axis, in a fixed order, with no BLAS product, so the result has
    the same bits on every IEEE machine and BLAS kernel, and it is exact
    when the partial sums of A's entries are (small integers, for instance).
    """
    return _subset_bilinear_max(check_symmetric(A))


def _subset_bilinear_max(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """subset_bilinear_max of an A that check_symmetric has already returned."""
    d = A.shape[0]
    if d > MAX_ENUM_D:
        raise DimensionTooLarge(f"subset enumeration capped at d={MAX_ENUM_D}")
    low = min(d, _ENUM_LOW_BITS)
    table = np.zeros((d, 1 << low))
    for j in range(low):
        np.add(table[:, :1 << j], A[j][:, None], out=table[:, 1 << j:2 << j])
    # |W| overwrites W: with a second table-sized array per call the heap is
    # trimmed after each call and its pages fault in again, which at d = 12
    # tripled the time
    W = table if low == d else np.empty_like(table)
    # compared as 2 max(pos, neg), which halving would only round in underflow
    best_val2 = 0.0
    best_mask = 0
    for high in range(1 << (d - low)):
        if low < d:
            rows = A[low + np.flatnonzero((high >> np.arange(d - low)) & 1)]
            np.add(table, rows.sum(axis=0)[:, None], out=W)
        vals2 = np.abs(W.sum(axis=0))
        vals2 += np.abs(W, out=W).sum(axis=0)
        i = int(np.argmax(vals2))
        if vals2[i] > best_val2:
            best_val2 = float(vals2[i])
            best_mask = (high << low) + i
    s_mask = ((best_mask >> np.arange(d)) & 1).astype(bool)
    w = A[s_mask].sum(axis=0)
    pos = float(w[w > 0.0].sum())
    neg = float(-w[w < 0.0].sum())
    return max(pos, neg), s_mask, w > 0.0 if pos >= neg else w < 0.0


@dataclass
class GramSolution:
    """Feasible factors (rows are unit vectors), the objective they achieve and a
    certified upper bound on the maximum over the whole Gram feasible set.

    certified_by names the path that computed upper_bound: "eigvalsh" for the
    eigenvalue bound of dual_upper_bound, which every gram_maximize solve
    reports and hand-built solutions default to, and "l1" for the l1 sum
    sum |A_ij| that the filter's in-loop ascent reports (see _loop_solve).
    """

    u_factors: np.ndarray
    v_factors: np.ndarray
    value: float
    upper_bound: float
    restarts_used: int
    certified_by: str = "eigvalsh"
    history: list = field(default_factory=list, repr=False)

    @property
    def rank(self) -> int:
        return int(self.u_factors.shape[1])

    @property
    def gap(self) -> float:
        """upper_bound - value: how far below the true maximum value may lie."""
        return self.upper_bound - self.value

    @property
    def relative_gap(self) -> float:
        return _relative_gap(self.value, self.upper_bound)

    def matrix(self) -> np.ndarray:
        return self.u_factors @ self.v_factors.T


def _normalize_rows(G: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    nz = norms > 0.0
    if nz.all():
        return G / norms[:, None]
    out = fallback.copy()
    out[nz] = G[nz] / norms[nz, None]
    return out


def _half_sweep(G: np.ndarray, prev: np.ndarray, out: np.ndarray,
                norms: np.ndarray, norms_col: np.ndarray):
    """The factor _normalize_rows(G, prev), its objective <factor, G> and the
    buffer left free, as (factor, value, free).

    The rows are divided into out with no test for a zero norm: a zero row
    of G gives 0/0 = NaN and a nonzero row whose squares underflow gives
    +-inf, and either makes the objective NaN or +inf.  Only then is the
    half sweep redone by _normalize_rows, which keeps the rows of prev, so
    every result has the bits _normalize_rows gives.  norms_col is the
    (d, 1) view of norms; the caller ignores divide and invalid errors.
    """
    np.einsum("ij,ij->i", G, G, out=norms)
    np.sqrt(norms, out=norms)
    np.divide(G, norms_col, out=out)
    value = float(np.vdot(out, G))
    if math.isfinite(value):
        return out, value, prev
    factor = _normalize_rows(G, prev)
    return factor, float(np.vdot(factor, G)), out


def _ascend(A: np.ndarray, U: np.ndarray, V: np.ndarray, tol: float = SWEEP_TOL,
            S: np.ndarray | None = None):
    """Alternate half sweeps from unit-row factors U and V until a full sweep
    gains at most tol (relative above 1), or for MAX_SWEEPS sweeps.

    Given S = _dual_matrix(A), the start is also certified on the way: after
    the first full sweep whose gain falls to STAGE_TOLS[0], and again after
    the first to fall to STAGE_TOLS[1] (one check serves both when one sweep
    passes both), the current factors get the eigvalsh bound, and the start
    ends once it is within GAP_TOL of the value.  A check takes y from the
    sweep's A U and the A V the next sweep needs, so it adds no product, and
    a check that fails resumes the same start, so the history is a prefix
    of the one without S.

    Returns (value, U, V, history, AU, bound), AU = A @ U for the returned U
    and bound the certifying check's, or None where no check certified.  The
    products, row norms and quotients go into buffers made once per call,
    and the given U and V rotate with one spare factor buffer, so a half
    sweep allocates nothing; the arrays passed in are overwritten.
    """
    AV = np.matmul(A, V)
    AU = np.empty_like(AV)
    norms = np.empty(A.shape[0])
    norms_col = norms[:, None]
    free = np.empty_like(U)
    value = float(np.vdot(U, AV))
    history = [value]
    stages = list(STAGE_TOLS) if S is not None else []
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(MAX_SWEEPS):
            U, u_value, free = _half_sweep(AV, U, free, norms, norms_col)
            history.append(u_value)
            np.matmul(A, U, out=AU)
            V, new_value, free = _half_sweep(AU, V, free, norms, norms_col)
            history.append(new_value)
            gain, scale = new_value - value, max(1.0, abs(new_value))
            converged = gain <= tol * scale
            value = new_value
            if converged:
                break
            np.matmul(A, V, out=AV)
            if stages and gain <= stages[0] * scale:
                stages = [t for t in stages if gain > t * scale]
                bound = _eigvalsh_bound(S, _dual_vector(U, V, AU, AV))
                if _relative_gap(value, bound) <= GAP_TOL:
                    return value, U, V, history, AU, bound
    return value, U, V, history, AU, None


def _band_exponent(A: np.ndarray) -> int:
    """The e at which gram_maximize solves A 2^-e: 0 when A = 0 or its largest
    entry lies in [2^-256, 2^256], else that of 2^e, the power of two just
    above that entry.  The largest |entry| of a finite A is read from its
    extremes, so no |A| is built."""
    amax = max(float(A.max()), -float(A.min()))
    if amax > 0.0 and not _SAFE_SCALE[0] <= amax <= _SAFE_SCALE[1]:
        return math.frexp(amax)[1]
    return 0


def _rank(d: int) -> int:
    return math.ceil(2.0 * math.sqrt(d)) + 1


def _sum_rounded_up(y: np.ndarray, extra: float) -> float:
    """A float at least the exact sum(y) + extra, for extra >= 0."""
    n = y.size + 1
    total = float(y.sum()) + extra
    # summing n terms errs by at most (n-1)u sum|terms|; additions are exact
    # in gradual underflow, so no absolute term is needed
    err = (n + 1) * _UNIT * (float(np.abs(y).sum()) + extra)
    return math.nextafter(total + err, math.inf)


def _l1_rounded_up(abs_a: np.ndarray) -> float:
    """_sum_rounded_up(abs_a.ravel(), 0.0) for abs_a = |A|: entries that are
    nonnegative are their own absolute values, so one sum serves both terms."""
    total = float(abs_a.sum())
    return math.nextafter(total + (abs_a.size + 2) * _UNIT * total, math.inf)


def _dual_vector(U: np.ndarray, V: np.ndarray, AU: np.ndarray, AV: np.ndarray) -> np.ndarray:
    """y_i = <(B Y)_i, Y_i> for Y = [U; V], given AU = A @ U and AV = A @ V."""
    return 0.5 * np.concatenate([np.einsum("ij,ij->i", U, AV),
                                 np.einsum("ij,ij->i", V, AU)])


def _dual_matrix(A: np.ndarray) -> np.ndarray:
    """-B = [[0, -A/2], [-A/2, 0]], the 2d x 2d buffer of _eigvalsh_bound,
    made once per solve: each bound overwrites only its diagonal."""
    d = A.shape[0]
    S = np.zeros((2 * d, 2 * d))
    S[:d, d:] = S[d:, :d] = -0.5 * A
    return S


def _eigvalsh_bound(S: np.ndarray, y: np.ndarray) -> float:
    """sum(y) + 2d t, rounded upward, with t from lambda_min(Diag(y) - B),
    for S = _dual_matrix(A), whose diagonal becomes y."""
    n = S.shape[0]
    S.reshape(-1)[::n + 1] = y
    lam_min = float(np.linalg.eigvalsh(S)[0])
    # the computed eigenvalues are those of S + E with ||E||_2 a modest multiple
    # of n u ||S||_2 (n = 2d); the row-sum norm bounds ||S||_2
    margin = n * _UNIT * float(np.abs(S).sum(axis=1).max())
    return _sum_rounded_up(y, n * max(0.0, margin - lam_min))


def _uniform_dual_proves_psd(A: np.ndarray, c: float, abs_a: np.ndarray,
                             abs_row_sums: np.ndarray) -> bool:
    """True if a shifted Cholesky proves c I - B positive semidefinite, that is
    the uniform dual y = c 1 feasible.

    With c > 0, c I - B is PSD exactly when the Schur complement
    T = c I - G^T G, G = A / (2 sqrt(c)), is.  The computed T differs from it
    by E with ||E||_2 <= (2d + 16) u (max row sum of |G|^T |G| + c), a
    row-sum bound on the rounding in G, G^T G and the diagonal.  If the
    floating-point Cholesky of T - e I succeeds, T - e I is PSD up to
    gamma_{d+1} / (1 - gamma_{d+1}) trace(T) (Rump 2006), so the shift e, the
    sum of both bounds, makes success a proof.  abs_a and abs_row_sums are |A|
    and its row sums.
    """
    d = A.shape[0]
    if not c > 0.0:
        return False
    s = 0.5 / math.sqrt(c)
    G = A * s
    T = G.T @ G
    np.negative(T, out=T)
    diag = T.reshape(-1)[::d + 1]
    diag += c
    # |G|^T |G| = s^2 |A| |A|, whose row sums are one product
    row_sums = abs_a @ (s * s * abs_row_sums)
    form_err = (2 * d + 16) * _UNIT * (float(row_sums.max()) + c)
    gamma = (d + 1) * _UNIT / (1.0 - (d + 1) * _UNIT)
    # a success leaves every diagonal entry positive, so the sum is the trace
    # Rump's margin needs; clamping it at 0 keeps the shift nonnegative
    trace = max(float(diag.sum()), 0.0)
    diag -= form_err + gamma * trace + 4 * (d + 1) * _TINY
    # a NaN pivot does not stop every Cholesky kernel, so overflow in G or in
    # c must fail here
    if not np.isfinite(T).all():
        return False
    try:
        np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        return False
    return True


def upper_bound_below(A, limit: float) -> tuple[float, str] | None:
    """A certified upper bound on max <M, A> over the Gram set that lies below
    limit, and the proof that gave it; None if neither cheap proof gets there.

    The two proofs run in this order and solve nothing:
    "l1" is sum |A_ij|, rounded upward, a bound because every Gram entry has
    |M_ij| <= 1; "uniform-dual" is the dual vector y = c 1 with sum(y) = 2d c
    just below limit, feasible when c I - B is positive semidefinite, that is
    when c >= ||A||_2 / 2, which one shifted Cholesky decides
    (_uniform_dual_proves_psd).  The first costs O(d^2), the
    second one d x d product and one d x d Cholesky; the Cholesky is skipped
    when A's heaviest row x already shows ||A x|| >= (limit / d) ||x||, so
    that ||A||_2 >= limit / d and the uniform dual cannot be feasible.
    """
    A = check_symmetric(A)
    abs_a = np.abs(A)
    return _upper_bound_below(A, limit, abs_a, _l1_rounded_up(abs_a))


def _upper_bound_below(A: np.ndarray, limit: float, abs_a: np.ndarray,
                       l1: float) -> tuple[float, str] | None:
    """upper_bound_below of an A that check_symmetric has already returned,
    given abs_a = |A| and its l1 sum l1 = _l1_rounded_up(abs_a)."""
    d = A.shape[0]
    if l1 < limit:
        return l1, "l1"
    abs_row_sums = abs_a.sum(axis=1)
    # x = A's heaviest row: ||A x|| >= (limit / d) ||x|| shows ||A||_2 >= limit / d,
    # where no uniform dual below limit is feasible, so the Cholesky is not run.
    # The slack covers the rounding in A x, at most gamma_d ||A||_inf ||x||, and
    # in both norms
    heaviest = int(np.argmax(abs_row_sums))
    x = A[heaviest]
    slack = (2 * d + 8) * _UNIT
    if (float(np.linalg.norm(A @ x)) * (1.0 - slack) >= float(np.linalg.norm(x)) * (1.0 + slack)
            * (limit / d + slack * float(abs_row_sums[heaviest]))):
        return None
    # summing the 2d equal entries and rounding the sum upward add at most
    # about (4d + 5) u, so this c keeps the rounded-up sum(y) below limit
    c = limit / (2 * d) * (1.0 - (8 * d + 16) * _UNIT)
    bound = _sum_rounded_up(np.full(2 * d, c), 0.0)
    if bound < limit and _uniform_dual_proves_psd(A, c, abs_a, abs_row_sums):
        return bound, "uniform-dual"
    return None


def dual_upper_bound(A, u_factors, v_factors) -> float:
    """Weak-duality upper bound on max <M, A> over the Gram set, from any factors.

    With Y = [U; V], B = [[0, A/2], [A/2, 0]] and y_i = <(B Y)_i, Y_i>, the vector
    y + t 1 with t = max(0, -lambda_min(Diag(y) - B)) is dual feasible, so the
    bound is sum(y) + 2d t.  t comes from one eigvalsh of the 2d x 2d matrix,
    raised by 2d u ||Diag(y) - B||_inf to cover the eigensolver's backward
    error, and the sum is rounded upward, so the bound is rigorous.  It is
    gram_maximize's own certificate, computed here from any factors.  It
    equals the maximum, to rounding, when the factors are optimal and
    Diag(y) - B is positive semidefinite.
    """
    A = check_symmetric(A)
    U = np.asarray(u_factors, dtype=np.float64)
    V = np.asarray(v_factors, dtype=np.float64)
    return _eigvalsh_bound(_dual_matrix(A), _dual_vector(U, V, A @ U, A @ V))


def gram_maximize(A, rng: RngSeed | None = None) -> GramSolution:
    """Maximize <M, A> over Gram matrices by alternating row updates.

    With v fixed each u_i has the closed-form optimum normalize((A v)_i); rows
    with zero gradient are left unchanged.  A half sweep costs one product
    with A, whose result also gives the objective: after U = normalize(A V)
    the value is <U, A V>.  The rank is ceil(2 sqrt(d)) + 1.

    Start r draws its factors from rng.generator(r).  Each start takes the
    eigvalsh bound of dual_upper_bound after the first sweep whose gain
    falls to each of STAGE_TOLS, and ends at the first bound within GAP_TOL
    of its value (see _ascend); that bound counts whether or not the start's
    value is the best.  A start that no such check certifies runs until a
    sweep gains at most SWEEP_TOL, or for MAX_SWEEPS sweeps, and if it
    improves the best value its final factors are certified, y from them,
    the start's last A U and one more A V.  Restarting stops once the
    relative gap of the best value to the smallest bound is at most
    GAP_TOL, or after MAX_RESTARTS starts.  Ties break toward the lowest
    restart index.  The smallest bound is returned, certified_by
    "eigvalsh".

    An A whose largest entry lies outside [2^-256, 2^256] is solved as
    A 2^-e, with 2^e the power of two just above that entry, and the value,
    history and bound are multiplied back by 2^e, the bound rounded upward;
    without that the squared row norms overflow or lose their digits to
    gradual underflow.  Inside the band A is solved as given.
    """
    return _gram_maximize(check_symmetric(A), rng)


def _gram_maximize(A: np.ndarray, rng: RngSeed | None) -> GramSolution:
    """gram_maximize of an A that check_symmetric has already returned."""
    scale = _band_exponent(A)
    if scale:
        A = np.ldexp(A, -scale)
    if rng is None:
        rng = RngSeed(0)

    S = _dual_matrix(A)
    best = None
    upper = math.inf
    for r in range(MAX_RESTARTS):
        U, V = _random_start(rng.generator(r), A.shape[0], _rank(A.shape[0]))
        value, U, V, history, AU, bound = _ascend(A, U, V, S=S)
        if best is None or value > best[0]:
            best = (value, U, V, history)
            if bound is None:
                bound = _eigvalsh_bound(S, _dual_vector(U, V, AU, A @ V))
        if bound is not None:
            upper = min(upper, bound)
        if _relative_gap(best[0], upper) <= GAP_TOL:
            break
    value, U, V, history = best
    # the maximum is at least the attained value; on a tight instance the
    # rounded value can land an ulp above the bound
    upper = max(upper, value)
    if scale:
        value = math.ldexp(value, scale)
        history = [math.ldexp(h, scale) for h in history]
        scaled = math.ldexp(upper, scale)
        # the product rounds only in gradual underflow, where it must not fall
        upper = scaled if math.ldexp(scaled, -scale) >= upper else math.nextafter(scaled, math.inf)
    return GramSolution(u_factors=U, v_factors=V, value=value, upper_bound=upper,
                        restarts_used=r + 1, history=history)


def _e(r: int, i: int) -> np.ndarray:
    v = np.zeros(r)
    v[i] = 1.0
    return v


def _random_start(gen: np.random.Generator, d: int, rank: int):
    """Unit-row (d, rank) factors (U, V) from two standard normal draws of gen,
    U's first; a row drawn as zero becomes e_0."""
    fallback = np.tile(_e(rank, 0), (d, 1))
    U = _normalize_rows(gen.standard_normal((d, rank)), fallback)
    V = _normalize_rows(gen.standard_normal((d, rank)), fallback)
    return U, V


def _loop_solve(A: np.ndarray, limit: float, rng: RngSeed, l1: float) -> GramSolution:
    """The Gram solve of robust_estimate's loop, run only as far as the loop's
    decision needs, for an A that is symmetric and finite (it is not checked),
    given its l1 sum l1 = _l1_rounded_up(|A|).

    One start, drawn from rng.generator(0) at rank min(LOOP_RANK, _rank(d)),
    ascends until a full sweep gains at most LOOP_TOL.  Its value is
    feasible, so a value at or above limit shows that the maximum reaches
    limit: the loop must not stop, and these factors, which the scores need
    only to within a constant factor, are returned as they stand.  Their
    upper bound is l1 (at least the value), certified_by "l1", restarts_used
    1, and the history the ascent's.  Below limit the result is gram_maximize(A, rng), at the full
    rank, so a stop rests on a certified solve.  A is scaled into the
    solver's band as in gram_maximize.
    """
    d = A.shape[0]
    scale = _band_exponent(A)
    U, V = _random_start(rng.generator(0), d, min(LOOP_RANK, _rank(d)))
    value, U, V, history, _, _ = _ascend(np.ldexp(A, -scale) if scale else A, U, V, tol=LOOP_TOL)
    value = math.ldexp(value, scale)
    if not value >= limit:
        return _gram_maximize(A, rng)
    return GramSolution(u_factors=U, v_factors=V, value=value,
                        upper_bound=max(l1, value),
                        restarts_used=1, certified_by="l1",
                        history=[math.ldexp(h, scale) for h in history])


@dataclass(frozen=True)
class SandwichReport:
    subset_value: float
    gram_value: float
    gram_upper: float
    lower_margin: float
    upper_margin: float
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def sandwich_check(A, sol: GramSolution | None = None,
                   rng: RngSeed | None = None) -> SandwichReport:
    """Certify subset_max <= gram value + tol and gram upper bound <= 8 * subset_max + tol.

    The upper side checks the certified upper bound, so it holds for the true
    Gram maximum and not only for the value the solver reached.  The tolerance
    is SANDWICH_TOL times the Frobenius norm of A on both sides.  Without sol,
    A is solved by gram_maximize with rng.

    The solver stops at a certified relative gap of GAP_TOL, which does not
    promise the lower side's SANDWICH_TOL.  So when the lower side would fail,
    one more ascent starts from the oracle's masks, whose value is the subset
    maximum (see _mask_ascent), and gram_value is the better of the two
    feasible values.  A is validated once here.
    """
    A = check_symmetric(A)
    if A.shape[0] > MAX_ENUM_D:
        raise DimensionTooLarge("sandwich certification requires enumerable d")
    if sol is None:
        sol = _gram_maximize(A, rng)
    bf, s_mask, sp_mask = _subset_bilinear_max(A)
    # the norm squares the entries, so it is taken at a power-of-two scale
    # that keeps them from overflow and gradual underflow
    e = math.frexp(float(np.abs(A).max()))[1]
    tol = SANDWICH_TOL * math.ldexp(float(np.linalg.norm(np.ldexp(A, -e))), e)
    value = sol.value
    if value + tol - bf < 0.0:
        value = max(value, _mask_ascent(A, s_mask, sp_mask))
    lower_margin = value + tol - bf
    upper_margin = 8.0 * bf + tol - sol.upper_bound
    return SandwichReport(
        subset_value=bf,
        gram_value=value,
        gram_upper=sol.upper_bound,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        lower_ok=lower_margin >= 0.0,
        upper_ok=upper_margin >= 0.0,
    )


def _mask_ascent(A: np.ndarray, s_mask: np.ndarray, sp_mask: np.ndarray) -> float:
    """The value _ascend reaches from the Gram point of the masks S and S'.

    U has rows e0 on S and e1 off S, V rows sign e0 on S' and e2 off S', with
    sign that of the sum of A over S x S', so U V^T = sign 1_S 1_{S'}^T and
    the start is worth |<1_S 1_{S'}^T, A>|.  The solver's rank, at least 3,
    holds the three directions.  Each half sweep is an exact block update, so
    the value reached is at least the start's, up to rounding.  A is scaled
    into the solver's band as in gram_maximize.
    """
    d = A.shape[0]
    scale = _band_exponent(A)
    if scale:
        A = np.ldexp(A, -scale)
    rank = _rank(d)
    sign = math.copysign(1.0, float(A[np.ix_(s_mask, sp_mask)].sum()))
    U = np.zeros((d, rank))
    V = np.zeros((d, rank))
    U[s_mask, 0] = 1.0
    U[~s_mask, 1] = 1.0
    V[sp_mask, 0] = sign
    V[~sp_mask, 2] = 1.0
    return math.ldexp(_ascend(A, U, V)[0], scale)
