"""Constructive indistinguishability certificates and minimax hypothesis families.

Builds, for the bit-flip channel:
  * the channel information matrix Omega with entries
    integral of (Q(z|j)/Q(z|1) - 1)(Q(z|j')/Q(z|1) - 1) dQ(z|1), in closed form,
  * the balanced sum-zero direction Delta with the largest l1-to-l2 ratio,
  * the hard pair p = |Delta|/||Delta||_1, q = p - Delta whose k-fold privatized
    products are within total variation eps of each other,
  * the common mixture certifying that eps-contamination can exactly equalize
    the two privatized product laws,
  * the paired-perturbation (Assouad cube) family whose pairwise l1 distance is
    exactly 4 * gamma times the Hamming distance of the sign vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .channel import RapporChannel
from .errors import (
    AlphaOutOfRange,
    BadSigns,
    CertificateViolation,
    DimensionMismatch,
    DimensionTooLarge,
    EpsOutOfRange,
    InfeasibleScale,
    InvalidArgument,
    ProductSpaceTooLarge,
    TooSmallAlphabet,
)
from .prob import (
    FiniteDist,
    ProbVector,
    make_prob_vector,
    subset_indicators,
    tv_product_bound,
)

#: Exact output-space enumeration guard.
MAX_EXACT_D = 16
#: Constant in the quadratic-form radius C * eps^2 / k; e^-2 suffices for the
#: total-variation chain.
QUAD_FORM_CONSTANT = math.exp(-2.0)
#: Smallest quadratic-form budget C * eps^2 / k a hard pair is built for.  The
#: pair's separation Delta scales as the budget's square root, while q = p -
#: Delta is rounded at the unit mass of p.  Near a root of 1e-16 the stored
#: pair is no longer the constructed one and fails its own TV certificate (and
#: at eps^2 / k below the smallest double, Delta is 0); the floor's root,
#: 2^-44 (about 6e-14), keeps a wide margin from there.
MIN_QUAD_BUDGET = 2.0 ** -88
#: Eigenvalue cutoff multiplier defining the low eigenspace.
EIGENVALUE_CAP = 3.0 * math.e ** 2
#: Unit roundoff: n < 10^8 roundings to nearest err by less than (n + 1) * U relative.
U = 2.0 ** -53


def _conditional_outputs(ch: RapporChannel) -> np.ndarray:
    """(2^d, d) matrix of Q(z | x) over all outputs z and inputs x."""
    if ch.d > MAX_EXACT_D:
        raise DimensionTooLarge(f"exact enumeration capped at d={MAX_EXACT_D}")
    bits = subset_indicators(ch.d)
    ones = bits.sum(axis=1)
    # Hamming distance between z and e_x is |z| + 1 - 2 * z_x.
    ham = ones[:, None] + 1.0 - 2.0 * bits
    return (ch.lam ** ham) * ((1.0 - ch.lam) ** (ch.d - ham))


def channel_output_dist(ch: RapporChannel, p: ProbVector) -> np.ndarray:
    """Distribution of a privatized sample over all 2^d outputs, exactly."""
    cond = _conditional_outputs(ch)
    return cond @ p.weights


def channel_chi2_exact(ch: RapporChannel, p: ProbVector, q: ProbVector) -> float:
    """Chi-square between the privatized laws of p and q over all 2^d outputs."""
    cond = _conditional_outputs(ch)
    qq = cond @ q.weights
    diff = cond @ p.weights - qq
    return float(np.sum(diff * diff / qq))


def _chi2_upper(ch: RapporChannel, delta: np.ndarray) -> float:
    """Upper end c ||Delta||^2 of e^-alpha c ||Delta||^2 <= chi^2(Q_p || Q_p-Delta)
    <= c ||Delta||^2, c = ((1 - 2 lam) / lam)^2, for a sum-zero Delta (README,
    "Lower bounds"), rounded upward: 1 + 16 U covers its eight roundings."""
    ratio = (1.0 - 2.0 * ch.lam) / ch.lam
    return ratio * ratio * math.fsum(delta * delta) * (1.0 + 16 * U)


def _omega_coefficients(ch: RapporChannel) -> tuple[float, float]:
    """(a, b) with Omega = a I + b 11^T on coordinates 2..d: b = E_{z_1}[(E f_j)^2]
    and a = E[f_j^2] - b, for f_j = (mu/lam)^(2 (z_j - z_1)) - 1 under Q(.|1)."""
    lam = ch.lam
    mu = 1.0 - lam
    gap = (1.0 - 2.0 * lam) ** 2
    return gap * (lam ** 3 + mu ** 3) / (lam * mu) ** 2, gap / (lam * mu)


@dataclass(frozen=True)
class OmegaMatrix:
    a: float
    b: float
    alpha: float
    d: int

    def quad(self, x: np.ndarray) -> float:
        """x^T Omega x = a ||x_2..d||^2 + b (sum x_2..d)^2 in O(d), within (d + 2) U;
        fsum keeps the sum's relative precision where it cancels."""
        return self.a * float(x[1:] @ x[1:]) + self.b * math.fsum(x[1:]) ** 2

    def low_eigencount(self) -> int:
        """Number of eigenvalues 0, a (d - 2 times), a + (d - 1) b within 3 e^2 alpha^2."""
        cutoff = EIGENVALUE_CAP * self.alpha ** 2 + 1e-12
        top = self.a + (self.d - 1) * self.b
        return 1 + (self.d - 2) * int(self.a <= cutoff) + int(top <= cutoff)


def omega_matrix(ch: RapporChannel) -> OmegaMatrix:
    """Channel information matrix a I + b 11^T on coordinates 2..d, in closed form.

    Row and column 1 vanish identically since the reference ratio at x = 1 is
    constant.  The eigenvalues 0, a and a + (d - 1) b must be nonnegative, and
    the trace (d - 1)(a + b) at most d * e^2 * alpha^2 whenever alpha <= 1.
    """
    a, b = _omega_coefficients(ch)
    d = ch.d
    eig_min = min(0.0, a, a + (d - 1) * b)
    if eig_min < -1e-9:
        raise CertificateViolation(f"information matrix not PSD (min eig {eig_min})")
    if ch.alpha <= 1.0 and (d - 1) * (a + b) > d * (math.e * ch.alpha) ** 2 * (1.0 + 1e-9):
        raise CertificateViolation("trace bound violated")
    return OmegaMatrix(a=a, b=b, alpha=ch.alpha, d=d)


def low_eigenspace_delta(omega: OmegaMatrix, eps: float, k: int) -> np.ndarray:
    """Sum-zero direction in the low eigenspace with the largest l1-to-l2 ratio.

    Omega's eigenvalues are 0 (on e_1), a (on the sum-zero vectors of
    coordinates 2..d) and a + (d - 1) b (on the ones of 2..d).  While all are
    within the cap 3 e^2 alpha^2 (d <= 86 at alpha = 1), the best direction is
    balanced: floor(d/2) entries -1/floor(d/2), coordinate 1 among them
    (Omega's row 1 is zero and a >= b), and ceil(d/2) entries +1/ceil(d/2).
    Above the cap it is the balanced one on coordinates 2..d, with coordinate 1
    at zero; an a above it (no channel's: alpha <= 2) raises CertificateViolation.
    It is scaled so that its realized quadratic form x^T Omega x equals
    C * eps^2 / k (not to the worst-case cap, which would forfeit l1 mass) or
    its l2 norm hits 1/sqrt(d), less a few units of rounding, whichever binds first.
    """
    d = omega.d
    if d < 3:
        raise TooSmallAlphabet("d must be >= 3")
    first = d - omega.low_eigencount()  # 1 above the cap
    if first > 1:
        raise CertificateViolation("the eigenvalue a of Omega exceeds the cap 3 e^2 alpha^2")
    low = (d - first) // 2
    direction = np.zeros(d)
    direction[first:] = 1.0 / (d - first - low)
    direction[first:first + low] = -1.0 / low
    direction /= float(np.linalg.norm(direction))

    quad_per_unit = omega.quad(direction)
    budget = QUAD_FORM_CONSTANT * eps ** 2 / k
    # shrunk so that ||Delta||_1, 1 here in reals for even d, cannot round above 1
    l2_cap = (1.0 - (2 * d + 16) * U) / d
    target_sq = min(budget / quad_per_unit, l2_cap) if quad_per_unit > 0.0 else l2_cap
    return direction * math.sqrt(target_sq)


@dataclass(frozen=True)
class HardPair:
    """Pair of distributions indistinguishable after privatization and contamination."""

    p: ProbVector
    q: ProbVector
    delta: np.ndarray
    chi2_upper: float
    quad_form: float
    tv_bound_k: float
    eps: float
    k: int
    alpha: float

    def validate(self) -> None:
        """Check the certificate up to the rounding the construction can incur, on
        the pair's own scale: Delta's groups of equal entries are four roundings
        from values summing to zero, q = p - Delta divided by a sum within
        (2d + 6) U of 1, and quad_form and chi2_upper <= e^alpha quad_form (true
        in reals, slack near alpha / 2) carry below 2d + 16 and d + 64 roundings."""
        d = self.delta.size
        if abs(math.fsum(self.delta)) > 7 * U * math.fsum(np.abs(self.delta)):
            raise CertificateViolation("delta is not sum-zero")
        expected = self.p.weights - self.delta
        if np.any(np.abs(expected - self.q.weights) > (2 * d + 9) * U * np.abs(expected)):
            raise CertificateViolation("q != p - delta")
        cap = QUAD_FORM_CONSTANT * self.eps ** 2 / self.k
        if self.quad_form > cap * (1.0 + (2 * d + 16) * U):
            raise CertificateViolation("quadratic form exceeds C * eps^2 / k")
        if self.chi2_upper > math.exp(self.alpha) * self.quad_form * (1.0 + (d + 64) * U):
            raise CertificateViolation("chi-square exceeds e^alpha * quadratic form")
        if self.tv_bound_k > self.eps:
            raise CertificateViolation("k-fold TV bound exceeds eps")


def hard_pair(ch: RapporChannel, eps: float, k: int) -> HardPair:
    """Construct and certify a hard pair for the given channel, eps and k, at any d.

    Deterministic, with no enumeration: Omega, Delta and the chi-square are
    closed forms (omega_matrix, low_eigenspace_delta, _chi2_upper).  p places
    mass |Delta_j| / ||Delta||_1 on symbol j and q = p - Delta, valid since
    ||Delta||_1 <= 1.  The guarantees assume alpha <= 1; a budget
    C * eps^2 / k below MIN_QUAD_BUDGET raises EpsOutOfRange.
    """
    if not 0.0 < eps < 0.5:
        raise EpsOutOfRange("eps must lie in (0, 1/2)")
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    if QUAD_FORM_CONSTANT * eps ** 2 / k < MIN_QUAD_BUDGET:
        raise EpsOutOfRange(f"eps={eps} is too small for k={k}: the budget C * eps^2 / k "
                            "is below 2^-88, where rounding swamps Delta")
    if ch.alpha > 1.0:
        raise AlphaOutOfRange("hard pair construction requires alpha <= 1")
    omega = omega_matrix(ch)
    delta = low_eigenspace_delta(omega, eps, k)
    p = make_prob_vector(np.abs(delta) / float(np.abs(delta).sum()))
    q_raw = p.weights - delta
    if float(q_raw.min()) < -1e-12:
        raise InfeasibleScale("q has a negative coordinate")
    q = make_prob_vector(q_raw)
    chi2 = _chi2_upper(ch, delta)
    pair = HardPair(p=p, q=q, delta=delta, chi2_upper=chi2, quad_form=omega.quad(delta),
                    tv_bound_k=tv_product_bound(chi2, k), eps=eps, k=k, alpha=ch.alpha)
    pair.validate()
    return pair


@dataclass(frozen=True)
class CommonMixture:
    """Mixture A, components N_p and N_q, and the worst outcome residuals
    |(1-eps) Qp^k + eps N_p - A| and |(1-eps) Qq^k + eps N_q - A| of the stored masses."""

    mixture: FiniteDist
    n_p: FiniteDist
    n_q: FiniteDist
    residual_p: float
    residual_q: float


def common_mixture(pair: HardPair, ch: RapporChannel, k: int) -> CommonMixture:
    """Mixture A and components N_p, N_q with
    (1-eps) Qp^k + eps N_p = A = (1-eps) Qq^k + eps N_q, outcome by outcome.

    A is the normalized pointwise maximum of the two k-fold product laws;
    nonnegativity of N_p and N_q is exactly the indistinguishability property
    of the pair.  With D = Qq^k - Qp^k and TV = sum(D+),

        N_p = (D+ + (eps - (1-eps) TV) Qp^k) / (eps (1 + TV)),

    and N_q alike with D- and Qq^k.  This is (A - (1-eps) Qp^k) / eps in closed
    form; computed as written, that quotient loses the masses to cancellation
    when eps is small.  D is built from the one-sample difference of the laws,
    D_(j+1) = D_j x Qq + Qp^j x D_1, so it keeps its relative precision where
    the difference of the two rounded products would be rounding noise.  The residuals check both
    identities against the k-fold products built here.  Requires
    (2^d)^k <= 2^20 for exact product enumeration.
    """
    d = ch.d
    if (1 << d) ** k > 1 << 20:
        raise ProductSpaceTooLarge("product space exceeds 2^20 outcomes")
    cond = _conditional_outputs(ch)
    sp = cond @ pair.p.weights
    sq = cond @ pair.q.weights
    # the two weight vectors sum to one only up to rounding: centre the
    # difference so that its mass error does not reach the components
    diff_1 = cond @ (pair.q.weights - pair.p.weights)
    diff_1 -= diff_1.sum() * sp
    prod_p, prod_q, diff = sp, sq, diff_1
    for _ in range(k - 1):
        diff = np.kron(diff, sq) + np.kron(prod_p, diff_1)
        prod_p = np.kron(prod_p, sp)
        prod_q = np.kron(prod_q, sq)
    up, down = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    tv = float(up.sum())
    eps = pair.eps
    shrink = eps - (1.0 - eps) * tv
    scale = eps * (1.0 + tv)
    outcomes = tuple(range(prod_p.size))
    mixture = FiniteDist(outcomes, (prod_p + up) / (1.0 + tv))
    n_p = FiniteDist(outcomes, (up + shrink * prod_p) / scale)
    n_q = FiniteDist(outcomes, (down + shrink * prod_q) / scale)
    return CommonMixture(
        mixture=mixture, n_p=n_p, n_q=n_q,
        residual_p=float(np.abs((1.0 - eps) * prod_p + eps * n_p.masses - mixture.masses).max()),
        residual_q=float(np.abs((1.0 - eps) * prod_q + eps * n_q.masses - mixture.masses).max()),
    )


def _snap_gamma(gamma: float, bits: int = 16) -> float:
    """Round gamma to a 16-bit significand so paired offsets subtract exactly."""
    if not 0.0 < gamma < math.inf:
        raise InvalidArgument(f"gamma must be positive and finite, got {gamma}")
    exp = math.floor(math.log2(gamma))
    scale = 2.0 ** (exp - (bits - 1))
    return round(gamma / scale) * scale


@dataclass(frozen=True)
class AssouadFamily:
    """Paired-perturbation hypothesis cube around the uniform distribution.

    Member for sign vector s in {-1, +1}^(d//2): coordinate j <= d/2 gets
    1/d + s_j * gamma, its mirror d - j + 1 gets 1/d - s_j * gamma, and the
    middle coordinate (odd d) stays 1/d.  The l1 distance between two members
    is exactly 4 * gamma * Hamming(s, s').
    """

    d: int
    n: int
    alpha: float
    c_gamma: float
    gamma: float

    @property
    def half(self) -> int:
        return self.d // 2

    @property
    def size(self) -> int:
        return 1 << self.half

    def member(self, signs) -> ProbVector:
        s = np.asarray(signs, dtype=np.int64).ravel()
        if s.size != self.half or not np.all(np.abs(s) == 1):
            raise BadSigns(f"need a +-1 vector of length {self.half}")
        w = np.full(self.d, 1.0 / self.d)
        for j in range(self.half):
            w[j] = 1.0 / self.d + s[j] * self.gamma
            w[self.d - 1 - j] = 1.0 / self.d - s[j] * self.gamma
        # No renormalization: the paired +-gamma offsets must stay exact so the
        # l1 distance between members is exactly 4 * gamma * Hamming distance.
        return ProbVector(w)


def assouad_family(d: int, n: int, alpha: float, c_gamma: float) -> AssouadFamily:
    if d < 3:
        raise TooSmallAlphabet("d must be >= 3")
    if not 0.0 < c_gamma < 1.0:
        raise InvalidArgument(f"c_gamma must lie in (0, 1), got {c_gamma}")
    if not (0.0 < alpha < math.inf and n >= 1):
        raise InvalidArgument(f"need a finite alpha > 0 and n >= 1, got alpha={alpha}, n={n}")
    gamma = min(c_gamma / (alpha * math.sqrt(n)), c_gamma / d)
    return AssouadFamily(d=d, n=n, alpha=alpha, c_gamma=c_gamma,
                         gamma=_snap_gamma(gamma))


@dataclass(frozen=True)
class AssouadChi2Report:
    chi2_upper: float
    envelope_constant: float
    tv_bound_n: float


def assouad_chi2_check(family: AssouadFamily, ch: RapporChannel) -> AssouadChi2Report:
    """Chi-square bound of every Hamming-1 neighbour pair, at any d.

    Neighbours differ by exactly +-2 gamma on one coordinate and its mirror
    (_snap_gamma), so one _chi2_upper, of ||Delta||^2 = 8 gamma^2, covers every
    pair both ways.  Reports it, the envelope constant chi2_upper /
    (alpha^2 gamma^2) and the product total-variation bound at sample size n.
    """
    if ch.d != family.d:
        raise DimensionMismatch(f"channel has d={ch.d}, family has d={family.d}")
    chi2 = _chi2_upper(ch, np.array([2.0, -2.0]) * family.gamma)
    denom = (ch.alpha * family.gamma) ** 2
    return AssouadChi2Report(
        chi2_upper=chi2,
        envelope_constant=chi2 / denom if denom > 0 else math.inf,
        tv_bound_n=tv_product_bound(chi2, family.n),
    )


def assouad_l1(family: AssouadFamily, s1, s2) -> tuple[float, float]:
    """Materialized l1 distance between two members and the exact 4*gamma*rho value."""
    a = family.member(s1)
    b = family.member(s2)
    rho = int(np.sum(np.asarray(s1) != np.asarray(s2)))
    return float(np.abs(a.weights - b.weights).sum()), (4.0 * family.gamma) * rho
