"""Corrupted batch collections: clean generation, attacks and shuffling.

A collection holds n batch records of k privatized samples each, stored as the
(n, d) counts of ones per coordinate (a sufficient statistic) together with k.
Counts lie in [0, k] and are held at `count_dtype(k)`, the narrowest unsigned
width that holds k (uint8 up to k = 255), from the draw that creates them to
the estimator that reads them.  Clean and adversarial records are drawn
directly as counts at that width, each kind in one vectorized call
(`sample_counts`, `attack_counts`); no k x d bit array is built.
Truth labels (good / adversarial) travel with the collection for evaluation
only; estimators must never read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import RapporChannel, count_dtype, sample_counts
from .errors import (
    CountMismatch,
    DimensionMismatch,
    EmptyBatch,
    EpsOutOfRange,
    InvalidAttackParams,
)
from .prob import ProbVector, RngSeed

LABEL_ADVERSARIAL = 1


def as_counts(counts) -> np.ndarray:
    """The argument as an array, checked to be an (m, d) array of integer counts."""
    c = np.asarray(counts)
    if c.ndim != 2 or c.dtype.kind not in "biu":
        raise DimensionMismatch("counts must be an (m, d) integer array")
    return c


def checked_counts(counts, k: int) -> np.ndarray:
    """as_counts, with every count checked to lie in [0, k] (CountMismatch otherwise)."""
    c = as_counts(counts)
    if c.min(initial=0) < 0 or c.max(initial=0) > k:
        raise CountMismatch(f"counts must lie in [0, k] with k = {k}")
    return c


@dataclass
class BatchCollection:
    """n batch records of k privatized samples, as (n, d) counts of ones per coordinate.

    The counts are checked to lie in [0, k] and stored at count_dtype(k);
    counts passed at that width are stored without a copy.  Truth labels
    are optional and for simulation only.
    """

    counts: np.ndarray
    k: int
    truth: Optional[np.ndarray] = None

    def __post_init__(self):
        c = as_counts(self.counts)
        self.k = int(self.k)
        if self.k < 1:
            raise EmptyBatch("each batch must hold k >= 1 samples")
        c = checked_counts(c, self.k)
        self.counts = c.astype(count_dtype(self.k), copy=False)
        if self.truth is not None:
            t = np.asarray(self.truth, dtype=np.uint8).ravel()
            if t.size != c.shape[0]:
                raise CountMismatch("one truth label per batch required")
            self.truth = t

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def d(self) -> int:
        return int(self.counts.shape[1])


@dataclass(frozen=True)
class AttackSpec:
    """One adversarial batch strategy.

    kinds:
      all_ones / all_zeros        a constant batch
      swap_distribution           honest privatization of another distribution q
      targeted_subset             privatize uniform, then push masked coordinates
                                  to (1 + direction)/2 independently w.p. magnitude
    """

    kind: str
    q: Optional[ProbVector] = None
    mask: Optional[np.ndarray] = None
    direction: int = 1
    magnitude: float = 1.0

    def __post_init__(self):
        kinds = {"all_ones", "all_zeros", "swap_distribution", "targeted_subset"}
        if self.kind not in kinds:
            raise InvalidAttackParams(f"unknown attack kind {self.kind!r}")
        if self.kind == "swap_distribution" and self.q is None:
            raise InvalidAttackParams("swap_distribution requires q")
        if self.kind == "targeted_subset":
            if self.mask is None:
                raise InvalidAttackParams("targeted_subset requires a mask")
            if self.direction not in (-1, 1):
                raise InvalidAttackParams("direction must be +1 or -1")
            if not 0.0 <= self.magnitude <= 1.0:
                raise InvalidAttackParams("magnitude must lie in [0, 1]")


def make_clean_collection(ch: RapporChannel, p: ProbVector, n_prime: int, k: int,
                          rng: RngSeed) -> BatchCollection:
    """Generate n_prime iid batch records of k privatized draws from p, labeled good."""
    if n_prime < 1 or k < 1:
        raise CountMismatch("need n_prime >= 1 and k >= 1")
    if p.d != ch.d:
        raise DimensionMismatch("p and channel disagree on d")
    return BatchCollection(counts=sample_counts(ch, p, n_prime, k, rng.generator()), k=k,
                           truth=np.zeros(n_prime, dtype=np.uint8))


def attack_counts(attack: AttackSpec, ch: RapporChannel, m: int, k: int,
                  gen: np.random.Generator) -> np.ndarray:
    """Count rows of m adversarial batches of k samples, as an (m, d) array of count_dtype(k).

    Each row has the law of the per-coordinate sums of one batch the strategy
    would emit sample by sample.  For targeted_subset the masked coordinates of
    uniform counts gain Bin(k - ones, magnitude) ones upward or lose
    Bin(ones, magnitude) downward, since each sample's bit is forced
    independently.
    """
    if k < 1:
        raise InvalidAttackParams("k must be >= 1")
    if m < 0:
        raise InvalidAttackParams("m must be >= 0")
    if attack.kind == "all_ones":
        return np.full((m, ch.d), k, dtype=count_dtype(k))
    if attack.kind == "all_zeros":
        return np.zeros((m, ch.d), dtype=count_dtype(k))
    if attack.kind == "swap_distribution":
        return sample_counts(ch, attack.q, m, k, gen)
    # targeted_subset
    mask = np.asarray(attack.mask, dtype=bool).ravel()
    if mask.size != ch.d:
        raise InvalidAttackParams("mask length != d")
    uniform = ProbVector(np.full(ch.d, 1.0 / ch.d))
    counts = sample_counts(ch, uniform, m, k, gen)
    # k - ones stays in [0, k] and the binomials are int64, so no narrow
    # count wraps; the sums are in [0, k] again when written back
    ones = counts[:, mask]
    if attack.direction > 0:
        counts[:, mask] = ones + gen.binomial(k - ones, attack.magnitude)
    else:
        counts[:, mask] = ones - gen.binomial(ones, attack.magnitude)
    return counts


def contaminate(clean: BatchCollection, attack: AttackSpec, eps: float, n: int,
                ch: RapporChannel, rng: RngSeed) -> BatchCollection:
    """Append floor(n * eps) adversarial batch records and shuffle uniformly.

    The clean collection must hold exactly n - floor(n * eps) records; truth
    labels are preserved through the shuffle.  All adversarial rows come from
    one `attack_counts` draw on stream 1, the shuffle from stream 2.
    """
    if not 0.0 <= eps < 0.25:
        raise EpsOutOfRange(f"eps must lie in [0, 1/4), got {eps}")
    n_adv = int(math.floor(n * eps))
    n_prime = n - n_adv
    if clean.n != n_prime:
        raise CountMismatch(f"clean collection has {clean.n} records, expected {n_prime}")
    adv = attack_counts(attack, ch, n_adv, clean.k, rng.generator(1))
    counts = np.concatenate([clean.counts, adv], axis=0)
    truth = np.concatenate([
        np.zeros(n_prime, dtype=np.uint8),
        np.full(n_adv, LABEL_ADVERSARIAL, dtype=np.uint8),
    ])
    perm = rng.generator(2).permutation(n)
    return BatchCollection(counts=counts[perm], k=clean.k, truth=truth[perm])

