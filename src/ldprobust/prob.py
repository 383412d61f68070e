"""Probability vectors, finite distributions, distances and subset-mass utilities.

Subsets of the alphabet are represented as boolean numpy masks of length d.
All randomness flows through :class:`RngSeed`, which yields byte-identical
streams for identical (seed, stream_index) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgument,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    TooSmallAlphabet,
)

#: Tolerance accepted on construction before renormalizing.
CONSTRUCTION_TOL = 1e-9
#: Tolerance enforced on stored invariants.
INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class RngSeed:
    """Deterministic random stream identified by a 64-bit seed and a stream index.

    A function that draws from a single stream takes a numpy Generator, and a
    caller holding an RngSeed passes rng.generator().  A function that derives
    several streams, or records the seed, takes an RngSeed.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidArgument(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        if self.stream_index < 0:
            raise InvalidArgument(f"stream_index must be nonnegative, got {self.stream_index}")

    def generator(self, *extra: int) -> np.random.Generator:
        """Return a fresh generator; distinct `extra` tuples give independent streams."""
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_index, *extra))
        return np.random.default_rng(ss)

    def child(self, *extra: int) -> "RngSeed":
        """Derive a reproducible sub-seed by hashing `extra` into a new stream index."""
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_index, *extra))
        new_index = int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
        return RngSeed(self.seed, new_index)


def _as_float_array(values, name: str = "vector") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgument(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class ProbVector:
    """A probability vector over the alphabet {1, ..., d}, d >= 3."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights")
        if w.size < 3:
            raise TooSmallAlphabet(f"alphabet size {w.size} < 3")
        if np.any(w < -INVARIANT_TOL):
            raise NegativeMass("negative probability mass")
        s = float(w.sum())
        if not abs(s - 1.0) <= INVARIANT_TOL:  # also a NaN sum
            raise NotNormalized(f"weights sum to {s}, not 1")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return int(self.weights.size)


def make_prob_vector(weights) -> ProbVector:
    """Validate, clamp tiny negatives at 0 and renormalize a raw weight vector.

    Raises NegativeMass for entries below -1e-12, NotNormalized when the sum is
    more than 1e-9 away from 1 or NaN, TooSmallAlphabet for fewer than 3 entries.
    """
    w = _as_float_array(weights, "weights")
    if w.size < 3:
        raise TooSmallAlphabet(f"alphabet size {w.size} < 3")
    if np.any(w < -INVARIANT_TOL):
        raise NegativeMass(f"entry below -{INVARIANT_TOL}")
    s = float(w.sum())
    if not abs(s - 1.0) <= CONSTRUCTION_TOL:
        raise NotNormalized(f"weights sum to {s}")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return ProbVector(w)


@dataclass(frozen=True)
class FiniteDist:
    """A distribution over an arbitrary finite outcome set."""

    outcomes: tuple
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        m = _as_float_array(self.masses, "masses")
        if len(outcomes) != m.size:
            raise LengthMismatch("outcomes and masses differ in length")
        if len(set(outcomes)) != len(outcomes):
            raise InvalidArgument("outcomes must be distinct")
        if np.any(m < -INVARIANT_TOL):
            raise NegativeMass("negative outcome mass")
        s = float(m.sum())
        if not abs(s - 1.0) <= CONSTRUCTION_TOL:  # also a NaN sum
            raise NotNormalized(f"masses sum to {s}")
        m = np.clip(m, 0.0, None)
        m = m / m.sum()
        m.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "masses", m)


def l1_dist(p, q) -> float:
    """Sum of absolute coordinate differences between two equal-length vectors."""
    pa = np.asarray(p, dtype=np.float64).ravel() if not isinstance(p, ProbVector) else p.weights
    qa = np.asarray(q, dtype=np.float64).ravel() if not isinstance(q, ProbVector) else q.weights
    if pa.size != qa.size:
        raise LengthMismatch(f"lengths {pa.size} and {qa.size} differ")
    return float(np.abs(pa - qa).sum())


def subset_mask(d: int, members) -> np.ndarray:
    """Boolean membership mask of length d from 1-based member symbols."""
    mask = np.zeros(d, dtype=bool)
    for j in members:
        if not 1 <= j <= d:
            raise LengthMismatch(f"symbol {j} outside [1, {d}]")
        mask[j - 1] = True
    return mask


def subset_indicators(d: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(stop - start, d) float64 0/1 matrix whose row i indicates the subset with
    bit mask start + i (bit j is coordinate j); by default all 2^d subsets."""
    masks = np.arange(start, 1 << d if stop is None else stop, dtype=np.uint64)
    return ((masks[:, None] >> np.arange(d, dtype=np.uint64)[None, :]) & 1).astype(np.float64)


def subset_mass(v, mask: np.ndarray) -> float:
    """Sum of the coordinates of v selected by a boolean mask."""
    va = v.weights if isinstance(v, ProbVector) else np.asarray(v, dtype=np.float64).ravel()
    m = np.asarray(mask, dtype=bool).ravel()
    if va.size != m.size:
        raise LengthMismatch(f"vector length {va.size} != mask length {m.size}")
    return float(va[m].sum())


def tv_product_bound(chi2_single: float, k: int) -> float:
    """Upper bound sqrt((1 + chi2)^k - 1) on the TV of k-fold products, clamped at 1.

    Uses expm1/log1p so small divergences do not lose precision.
    """
    if chi2_single < 0:
        raise InvalidArgument("chi-square divergence must be nonnegative")
    if k < 1:
        raise InvalidArgument("k must be at least 1")
    if math.isinf(chi2_single):
        return 1.0
    raised = math.expm1(k * math.log1p(chi2_single))
    return min(1.0, math.sqrt(max(raised, 0.0)))
