"""Shared brute-force oracles and statistical helpers for the test suite."""

import itertools

import numpy as np
from scipy import stats

from ldprobust import ProbVector, privatize_batch
from ldprobust.gram import check_symmetric
from ldprobust.prob import subset_indicators


def brute_force_sup_gap(p, v):
    """Exhaustive max_S |p(S) - v(S)| over all subsets."""
    p = np.asarray(p, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = p.size
    best = 0.0
    for bitsel in itertools.product([0, 1], repeat=d):
        mask = np.asarray(bitsel, dtype=bool)
        best = max(best, abs(p[mask].sum() - v[mask].sum()))
    return best


def brute_force_bilinear(A):
    """Exhaustive max_{S,S'} |<1_S 1_{S'}^T, A>| over all subset pairs."""
    A = np.asarray(A, dtype=np.float64)
    d = A.shape[0]
    best = 0.0
    subsets = list(itertools.product([0, 1], repeat=d))
    for s in subsets:
        sm = np.asarray(s, dtype=bool)
        row = A[sm].sum(axis=0)
        for t in subsets:
            tm = np.asarray(t, dtype=bool)
            best = max(best, abs(row[tm].sum()))
    return best


def bit_matrix_subset_bilinear_max(A):
    """Reference subset oracle: the products of 0/1 indicator blocks with A.

    Returns (value, s_mask, sp_mask) with the tie rules of
    gram.subset_bilinear_max: the lowest mask S wins, and S' is the positive
    support when its sum is at least the negative one.  W is a BLAS product,
    so its bits may depend on the BLAS kernel.
    """
    A = check_symmetric(A)
    d = A.shape[0]
    best_val = 0.0
    best_mask = 0
    best_sp = np.zeros(d, dtype=bool)
    chunk = 1 << 14
    for start in range(0, 1 << d, chunk):
        stop = min(start + chunk, 1 << d)
        W = subset_indicators(d, start, stop) @ A
        pos = np.where(W > 0.0, W, 0.0).sum(axis=1)
        neg = np.where(W < 0.0, -W, 0.0).sum(axis=1)
        vals = np.maximum(pos, neg)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_mask = start + i
            w = W[i]
            best_sp = w > 0.0 if pos[i] >= neg[i] else w < 0.0
    s_mask = ((best_mask >> np.arange(d)) & 1).astype(bool)
    return best_val, s_mask, best_sp


def brute_force_special_gap(qhat, lam):
    """Exhaustive max_S |qhat(S) - lam * |S||."""
    q = np.asarray(qhat, dtype=np.float64)
    d = q.size
    best = 0.0
    for bitsel in itertools.product([0, 1], repeat=d):
        mask = np.asarray(bitsel, dtype=bool)
        best = max(best, abs(q[mask].sum() - lam * mask.sum()))
    return best


def two_sample_chi2(values_a, values_b, min_expected: int = 10):
    """Pearson two-sample statistic on pooled integer samples.

    Bins with small combined counts are merged into their neighbor so the
    chi-square approximation holds.  Returns (statistic, dof).
    """
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    support = np.unique(np.concatenate([values_a, values_b]))
    ca = np.array([(values_a == s).sum() for s in support], dtype=np.float64)
    cb = np.array([(values_b == s).sum() for s in support], dtype=np.float64)
    # merge tail bins until every combined bin is large enough
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for x, y in zip(ca, cb):
        acc_a += x
        acc_b += y
        if acc_a + acc_b >= min_expected:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
    ca = np.asarray(bins_a)
    cb = np.asarray(bins_b)
    na, nb = ca.sum(), cb.sum()
    k1 = np.sqrt(nb / na)
    k2 = np.sqrt(na / nb)
    denom = ca + cb
    stat = float(np.sum((k1 * ca - k2 * cb) ** 2 / denom))
    dof = max(len(denom) - 1, 1)
    return stat, dof


def chi2_quantile(level: float, dof: int) -> float:
    return float(stats.chi2.ppf(level, dof))



def attack_bits(attack, ch, count, rng):
    """Bit-level reference attack: `count` adversarial samples as a (count, d) uint8 array.

    Every strategy emits independent samples, so k consecutive rows form one
    adversarial batch; `attack_counts` draws their per-coordinate sums
    directly.  `rng` is a numpy Generator.
    """
    if attack.kind == "all_ones":
        return np.ones((count, ch.d), dtype=np.uint8)
    if attack.kind == "all_zeros":
        return np.zeros((count, ch.d), dtype=np.uint8)
    if attack.kind == "swap_distribution":
        return privatize_batch(ch, rng.choice(ch.d, size=count, p=attack.q.weights) + 1, rng)
    # targeted_subset: privatize uniform, then force each masked bit to the
    # target value independently with probability magnitude
    mask = np.asarray(attack.mask, dtype=bool)
    uniform = ProbVector(np.full(ch.d, 1.0 / ch.d))
    bits = privatize_batch(ch, rng.choice(ch.d, size=count, p=uniform.weights) + 1, rng)
    hit = rng.random((count, int(mask.sum()))) < attack.magnitude
    sub = bits[:, mask]
    sub[hit] = 1 if attack.direction > 0 else 0
    bits[:, mask] = sub
    return bits


def batch_sums(bits, k):
    """(m, d) counts of ones of consecutive batches of k bit rows."""
    return bits.reshape(-1, k, bits.shape[1]).sum(axis=1, dtype=np.int64)


def count_law_stats(a, b, subset):
    """Two-sample chi-square of each coordinate of two count arrays and of one subset sum.

    Returns a list of (label, statistic, dof).
    """
    out = []
    for j in range(a.shape[1]):
        out.append((f"coord {j}", *two_sample_chi2(a[:, j], b[:, j])))
    out.append(("subset", *two_sample_chi2(a[:, subset].sum(axis=1),
                                            b[:, subset].sum(axis=1))))
    return out
