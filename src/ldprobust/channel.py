"""Symmetric bit-flip privatization of symbols into d-bit vectors.

A symbol x in {1, ..., d} maps to Z in {0, 1}^d: coordinate j equals the
indicator 1{x = j} with probability 1 - lambda and its complement otherwise,
independently per coordinate, with lambda = 1 / (exp(alpha/2) + 1).  This
mechanism is alpha-locally differentially private: the worst-case single
output likelihood ratio over input pairs equals ((1-lambda)/lambda)^2 = e^alpha.

A batch of k privatized samples is summarized by its count of ones per
coordinate.  `sample_counts` draws those counts directly from their exact law
as (m, d) int64 arrays.  The bit-level samplers (`privatize_batch`,
`sample_privatized`) return uint8 arrays of shape (count, d) and serve as the
reference the count sampler is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    CountMismatch,
    DimensionMismatch,
    DimensionTooLarge,
    EmptySubset,
    InvalidArgument,
    NonPositiveAlpha,
    SymbolOutOfRange,
    TooSmallAlphabet,
)
from .prob import ProbVector, RngSeed, subset_mass

#: Hard cap on the alphabet size supported by this artifact.
MAX_D = 4096
#: Alpha above 1 is outside the regime the guarantees cover; allowed up to 2.
MAX_ALPHA = 2.0

# Fixed generation chunk (in scalar samples) so that chunking is a pure
# function of (k, d) and results never depend on memory pressure.
_CHUNK_SCALARS = 1 << 21


def lambda_of_alpha(alpha: float) -> float:
    """Flip probability 1 / (exp(alpha/2) + 1) for privacy budget alpha > 0."""
    if alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be positive, got {alpha}")
    return 1.0 / (math.exp(alpha / 2.0) + 1.0)


@dataclass(frozen=True)
class RapporChannel:
    """Privatization channel over alphabet size d with flip probability lambda."""

    d: int
    alpha: float
    lam: float

    def __post_init__(self):
        if self.d < 3:
            raise TooSmallAlphabet(f"d must be >= 3, got {self.d}")
        if self.d > MAX_D:
            raise DimensionTooLarge(f"d capped at {MAX_D}")
        if not 0.0 <= self.lam <= 0.5:
            raise AlphaOutOfRange(f"lambda must lie in [0, 1/2], got {self.lam}")

    @classmethod
    def create(cls, d: int, alpha: float) -> "RapporChannel":
        if alpha <= 0:
            raise NonPositiveAlpha(f"alpha must be positive, got {alpha}")
        if alpha > MAX_ALPHA:
            raise AlphaOutOfRange(f"alpha capped at {MAX_ALPHA}, got {alpha}")
        return cls(d=d, alpha=alpha, lam=lambda_of_alpha(alpha))

    @classmethod
    def from_lambda(cls, d: int, lam: float) -> "RapporChannel":
        """Test hook: build a channel directly from a flip probability.

        Allows the degenerate endpoints lam = 0 (noiseless, alpha = inf) and
        lam = 1/2 (fully randomized, alpha = 0) that `create` rejects.
        """
        if lam <= 0.0:
            alpha = math.inf
        elif lam >= 0.5:
            alpha = 0.0
        else:
            alpha = 2.0 * math.log((1.0 - lam) / lam)
        return cls(d=d, alpha=alpha, lam=lam)

    @property
    def exceeds_theory_range(self) -> bool:
        """True when alpha > 1, outside the range the error guarantees assume."""
        return self.alpha > 1.0


def _check_symbols(ch: RapporChannel, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64).ravel()
    if xs.size and (xs.min() < 1 or xs.max() > ch.d):
        raise SymbolOutOfRange(f"symbols must lie in [1, {ch.d}]")
    return xs


def privatize_batch(ch: RapporChannel, xs, gen: np.random.Generator) -> np.ndarray:
    """Privatize a sequence of symbols independently; returns a (len(xs), d) array."""
    xs = _check_symbols(ch, xs)
    if xs.size == 0:
        return np.zeros((0, ch.d), dtype=np.uint8)
    onehot = np.zeros((xs.size, ch.d), dtype=np.uint8)
    onehot[np.arange(xs.size), xs - 1] = 1
    flips = (gen.random((xs.size, ch.d)) < ch.lam).astype(np.uint8)
    return onehot ^ flips


def privatize(ch: RapporChannel, x: int, gen: np.random.Generator) -> np.ndarray:
    """Privatize a single symbol; returns a length-d bit vector."""
    return privatize_batch(ch, [x], gen)[0]


def sample_privatized(ch: RapporChannel, p: ProbVector, count: int,
                      rng: RngSeed) -> np.ndarray:
    """Draw `count` privatized samples of iid symbols from p, as a (count, d) array.

    Generation is chunked with per-chunk derived streams; the chunk layout is a
    fixed function of (k=1, d) so output depends only on the rng value.
    """
    if p.d != ch.d:
        raise DimensionMismatch(f"p has d={p.d}, channel has d={ch.d}")
    if count < 0:
        raise InvalidArgument("count must be nonnegative")
    out = np.empty((count, ch.d), dtype=np.uint8)
    chunk = max(1, _CHUNK_SCALARS // ch.d)
    pos = 0
    idx = 0
    while pos < count:
        m = min(chunk, count - pos)
        gen = rng.generator(idx)
        xs = gen.choice(ch.d, size=m, p=p.weights) + 1
        onehot = np.zeros((m, ch.d), dtype=np.uint8)
        onehot[np.arange(m), xs - 1] = 1
        flips = (gen.random((m, ch.d)) < ch.lam).astype(np.uint8)
        out[pos:pos + m] = onehot ^ flips
        pos += m
        idx += 1
    return out


def sample_counts(ch: RapporChannel, p: ProbVector, m: int, k: int,
                  gen: np.random.Generator) -> np.ndarray:
    """Counts of ones per coordinate of m batches of k privatized draws from p.

    Returns an (m, d) int64 array.  Each row draws its symbol counts
    c ~ Multinomial(k, p); given c the coordinates are independent, coordinate
    j keeping Bin(c_j, 1 - lam) of its c_j ones and flipping Bin(k - c_j, lam)
    of its zeros.  This is the exact law of the per-batch sums of k
    `sample_privatized` rows.
    """
    if p.d != ch.d:
        raise DimensionMismatch(f"p has d={p.d}, channel has d={ch.d}")
    if m < 0 or k < 0:
        raise CountMismatch(f"need m >= 0 and k >= 0, got m={m}, k={k}")
    # ProbVector admits entries down to -1e-12 and sums 1e-12 away from 1,
    # which multinomial rejects; clip and renormalize.
    w = np.clip(p.weights, 0.0, None)
    symbols = gen.multinomial(k, w / w.sum(), size=m)
    return gen.binomial(symbols, 1.0 - ch.lam) + gen.binomial(k - symbols, ch.lam)


def mean_response(ch: RapporChannel, p: ProbVector) -> np.ndarray:
    """Coordinate-wise expectation of a privatized sample: (1 - 2*lam) * p + lam."""
    if p.d != ch.d:
        raise DimensionMismatch(f"p has d={p.d}, channel has d={ch.d}")
    return (1.0 - 2.0 * ch.lam) * p.weights + ch.lam


def invert_mean(ch: RapporChannel, qhat) -> np.ndarray:
    """Exact inverse of mean_response: (qhat - lam) / (1 - 2*lam).

    The output is a plain vector and need not lie in the simplex.
    """
    q = np.asarray(qhat, dtype=np.float64).ravel()
    if q.size != ch.d:
        raise DimensionMismatch(f"qhat has length {q.size}, channel has d={ch.d}")
    if ch.lam >= 0.5:
        raise AlphaOutOfRange("mean map is not invertible at lambda = 1/2")
    return (q - ch.lam) / (1.0 - 2.0 * ch.lam)


def subset_sum_law_sample(ch: RapporChannel, p: ProbVector, mask: np.ndarray,
                          gen: np.random.Generator, count: int = 1) -> np.ndarray:
    """Sample sum_{j in S} Z(j) via its closed-form law instead of privatizing.

    The subset sum of a privatized sample equals, in distribution, the sum of
    |S| - 1 independent Bernoulli(lam) variables plus one independent
    Bernoulli(lam + (1 - 2*lam) * p(S)).  Serves as an independence-structure
    oracle against direct privatization.
    """
    m = np.asarray(mask, dtype=bool).ravel()
    if m.size != ch.d:
        raise DimensionMismatch("mask length != channel d")
    s = int(m.sum())
    if s == 0:
        raise EmptySubset("subset must be nonempty")
    ps = subset_mass(p.weights, m)
    special = ch.lam + (1.0 - 2.0 * ch.lam) * ps
    base = gen.binomial(s - 1, ch.lam, size=count) if s > 1 else np.zeros(count, dtype=np.int64)
    extra = gen.binomial(1, special, size=count)
    return (base + extra).astype(np.int64)


def ldp_ratio_check(ch: RapporChannel) -> float:
    """Worst-case single-output likelihood ratio over input pairs, ((1-lam)/lam)^2."""
    if ch.lam <= 0.0:
        return math.inf
    r = (1.0 - ch.lam) / ch.lam
    return r * r
