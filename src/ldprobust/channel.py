"""Symmetric bit-flip privatization of symbols into d-bit vectors.

A symbol x in {1, ..., d} maps to Z in {0, 1}^d: coordinate j equals the
indicator 1{x = j} with probability 1 - lambda and its complement otherwise,
independently per coordinate, with lambda = 1 / (exp(alpha/2) + 1).  This
mechanism is alpha-locally differentially private: the worst-case single
output likelihood ratio over input pairs equals ((1-lambda)/lambda)^2 = e^alpha.

A batch of k privatized samples is summarized by its count of ones per
coordinate, an integer in [0, k], held at `count_dtype(k)`: the narrowest
unsigned width that holds k (uint8 up to k = 255, uint16 up to 65 535),
int64 above.  `sample_counts` draws those counts directly from their law as
(m, d) arrays of that width: symbol counts first, then the ones of each
coordinate given its symbol count.  Two rules, pure functions of (m, k, d)
that never read cache state, choose the method.  Symbols: a guided
categorical inversion when 2k <= d; otherwise conditional binomials
c_j ~ Bin(k - c_<j, r_j), with r_j from suffix sums of p, inverted through
guide tables built for the call, where those tables pay; `multinomial`
below that.  Ones: inversion of a per-process table of CDFs up to k = 200
and wherever a larger table pays; two binomials per entry elsewhere.
Inversion takes one uniform per entry and resolves each CDF to 2^-53.  The
bit-level samplers (`privatize_batch`, `sample_privatized`) return uint8
arrays of shape (count, d) and serve as the reference the count sampler is
tested against.
"""

from __future__ import annotations

import functools
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

# `Generator.random` returns multiples of 2^-53; CDF thresholds live on that grid.
_UNIT_BITS = 53
# The ones table's guide splits [0, 1) into 2^_GUIDE_BITS equal cells per
# symbol count, and the categorical symbol draw's guide into as many.
_GUIDE_BITS = 10
# The per-call symbol tables' guide is coarser: it is rebuilt on every call.
_SYMBOL_GUIDE_BITS = 8
# Largest k drawn by table inversion: search keys (c << 53) + u must fit in
# 64 bits, and the table rows stay at most a few MB.
_TABLE_MAX_K = 1024
# The inversions work through rows in blocks of about this many entries,
# so that their temporaries stay in cache.  A block's uniforms continue the
# call's row-major draw, so the block size never changes the output.
_BLOCK_ENTRIES = 1 << 16
# Up to this k the ones table takes at most about 17 ms to build, once per
# process, so every call reads it; above it a call must pay for the build.
_TABLE_FREE_K = 200


def count_dtype(k: int) -> np.dtype:
    """The dtype of counts of ones in batches of k samples, by k alone.

    uint8 for k <= 255, uint16 for k <= 65 535 and int64 above: every count
    lies in [0, k], so the narrowest unsigned width holding k holds them all.
    """
    if k <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if k <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


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
        out[pos:pos + m] = privatize_batch(ch, gen.choice(ch.d, size=m, p=p.weights) + 1, gen)
        pos += m
        idx += 1
    return out


def sample_counts(ch: RapporChannel, p: ProbVector, m: int, k: int,
                  gen: np.random.Generator) -> np.ndarray:
    """Counts of ones per coordinate of m batches of k privatized draws from p.

    Returns an (m, d) array of dtype count_dtype(k); every path creates its
    counts at that width.  Each row draws its symbol counts
    c ~ Multinomial(k, p); given c the coordinates are independent, and
    coordinate j has the law L_{c_j} = Bin(c_j, 1 - lam) * Bin(k - c_j, lam)
    (kept ones plus flipped zeros).  This is the law of the per-batch sums of
    k `sample_privatized` rows.  Two rules, each a pure function of (m, k, d)
    that never reads cache state, pick how the draw is made; neither changes
    the law:

    - Symbols: when 2k <= d, each of the k samples of a row draws its symbol
      by inversion of one uniform in the CDF of p, through a guide of 2^10
      cells that leaves a search only where a cell holds a CDF value, and
      the rows are counted a block at a time by `bincount` (cost ~ m*k).
      Otherwise, when the call's tables pay for themselves,
      (k+1) * (2^8 + k) * (d + 32) <= 128*m with k <= 1024, by conditional
      binomials: c_j ~ Bin(k - c_<j, r_j) with
      r_j = w_j / (w_j + ... + w_{d-1}) from suffix sums (1 - W_<j would
      cancel), clipped to [0, 1], each column inverted through guide tables
      of the Bin(n, r_j) CDFs for n = 0..k that are built for the call and
      dropped after it, since p changes from call to call.  Below that, by
      `multinomial`.
    - Ones: when k <= 200, or k <= 1024 and
      (k+1) * (2^10 + (k+1)^2 // 16) <= 8*m*d, by inversion: the CDFs of
      L_0, ..., L_k are tabulated ((k+1)^3/3 elementwise updates) once per
      process for each (k, lam), and the last few tables are kept,
      read-only.  Up to k = 200 a build takes at most about 17 ms, so the
      rule charges it to no call; above that each call must pay for it.
      A guide table of 2^10 cells per symbol count answers most
      entries outright; the rest search the key (c << 53) + u in the flattened
      thresholds (c << 53) + ceil(CDF * 2^53).  Otherwise (large k, or too
      few entries to pay for the table) by two binomials per entry.

    Every table is built from elementwise products and sums only (no exp,
    log or BLAS), so it has the same bits on every IEEE machine.  Inversion
    takes one uniform per entry and resolves the CDF to 2^-53, as
    `Generator.random` does: each probability is off by less than 2^-53
    (plus the table's rounding, about 1e-15), so an outcome of probability
    below 2^-53 may never be drawn, and no symbol of zero mass ever is.
    The output is a fixed function of the generator state; which draws it
    consumes depends on the rules, so a change to them re-draws every seed.
    """
    if p.d != ch.d:
        raise DimensionMismatch(f"p has d={p.d}, channel has d={ch.d}")
    if m < 0 or k < 0:
        raise CountMismatch(f"need m >= 0 and k >= 0, got m={m}, k={k}")
    # ProbVector admits entries down to -1e-12 and sums 1e-12 away from 1,
    # which multinomial rejects; clip and renormalize.
    w = np.clip(p.weights, 0.0, None)
    w /= w.sum()
    dtype = count_dtype(k)
    if 2 * k <= ch.d:
        symbols = _categorical_counts(w, m, k, gen)
    elif _symbols_by_table(m, k, ch.d):
        symbols = _conditional_counts(w, m, k, gen)
    else:
        symbols = gen.multinomial(k, w, size=m).astype(dtype, copy=False)
    if _ones_by_table(m, k, ch.d):
        return _invert_ones(symbols, k, ch.lam, gen)
    ones = gen.binomial(symbols, 1.0 - ch.lam) + gen.binomial(k - symbols, ch.lam)
    return ones.astype(dtype, copy=False)


def _symbols_by_table(m: int, k: int, d: int) -> bool:
    """The symbol rule for 2k > d: conditional binomials when the tables pay.

    The call builds (d-1) * (k+1) rows of 2^8 + k entries and then saves a
    share of each entry's `multinomial` cost that shrinks as d grows (its
    later binomials have few trials).  The bound fits crossovers measured
    with one BLAS thread within a factor 0.8-1.8: m ~ 2300 at d = 5, k = 25;
    4000 at d = 5, k = 50; 15 000 at d = 5, k = 200; 2600 at d = 3, k = 25;
    9000 at d = 32, k = 50; 50 000 at d = 64, k = 200.  The 256 is the
    guide's size when the bound was fitted, frozen here as a literal: the
    rule decides which draws a call consumes, so retuning the guide must not
    re-draw any seed.
    """
    return k <= _TABLE_MAX_K and (k + 1) * (256 + k) * (d + 32) <= 128 * m


def _ones_by_table(m: int, k: int, d: int) -> bool:
    """The ones rule: the per-process table, free up to k = _TABLE_FREE_K.

    Above that the bound charges a build to the call.  Its 1024 is the ones
    guide's size when the bound was set, frozen as a literal for the same
    reason as the symbol rule's 256.
    """
    if k <= _TABLE_FREE_K:
        return m > 0
    return k <= _TABLE_MAX_K and (k + 1) * (1024 + (k + 1) ** 2 // 16) <= 8 * m * d


def _categorical_counts(w: np.ndarray, m: int, k: int,
                        gen: np.random.Generator) -> np.ndarray:
    """(m, d) counts, of dtype count_dtype(k), of m rows of k iid symbols from w.

    Sample i of row b takes uniform b*k + i of the call and draws the symbol
    #{j < d-1 : cdf_j <= u} from the CDF of the normalized weights w, as a
    `searchsorted` of u would.  A guide of 2^10 equal cells over [0, 1)
    holds that symbol for every cell no CDF value lies strictly inside;
    only the uniforms of the other cells search the CDF.  Rows go in blocks
    of about _BLOCK_ENTRIES uniforms or counts, whichever a row has more of;
    each block draws its uniforms as one (rows, k) array, so the output is
    the same for any block size, and one `bincount` per block writes its
    counts into the output.
    """
    d = w.size
    # every entry from the last symbol of positive mass on is exactly 1, so
    # no uniform lands on a symbol of zero mass
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    inner = cdf[:-1]
    cells = 1 << _GUIDE_BITS
    edges = np.arange(cells + 1) / cells
    # a cell's symbol is that of its first uniform, unless a CDF value lies
    # strictly inside the cell (before its right edge)
    guide = np.searchsorted(inner, edges[:-1], side="right")
    guide[np.searchsorted(inner, edges[1:], side="left") > guide] = -1
    counts = np.empty((m, d), dtype=count_dtype(k))
    step = max(1, _BLOCK_ENTRIES // max(k, d))
    for lo in range(0, m, step):
        block = counts[lo:lo + step]
        rows = block.shape[0]
        u = gen.random((rows, k))
        symbol = guide[(u * cells).astype(np.intp)]  # exact: the integer part is the cell
        todo = np.flatnonzero(symbol < 0)
        if todo.size:
            symbol.ravel()[todo] = np.searchsorted(inner, u.ravel()[todo], side="right")
        symbol += np.arange(0, rows * d, d)[:, None]
        block[...] = np.bincount(symbol.ravel(), minlength=rows * d).reshape(rows, d)
    return counts


def _symbol_thresholds(w: np.ndarray, k: int) -> np.ndarray:
    """(d-1, k+1, k) int64 thresholds ceil(CDF * 2^53) of Bin(n, r_j) at 0, ..., k-1.

    Row n of column j is the CDF of Bin(n, r_j), with r_j = w_j / (w_j + ...
    + w_{d-1}) from suffix sums, clipped to [0, 1] (0 where the suffix is
    empty of mass).  Entries at or past n are 2^53, so no uniform counts past
    n.  A symbol of zero mass has r_j = 0 and draws 0; the last symbol of
    positive mass has r_j = 1 exactly (its suffix sum adds only zeros) and
    takes every sample left.  Level n + 1 mixes level n with one
    Bernoulli(r_j), by elementwise products and sums only.  The CDFs are
    taken, scaled and rounded in place, so the build holds one float and one
    integer array of this size at its peak.
    """
    d = w.size
    suffix = np.cumsum(w[::-1])[:0:-1]
    r = np.divide(w[:-1], suffix, out=np.zeros(d - 1), where=suffix > 0.0)
    np.clip(r, 0.0, 1.0, out=r)
    hit = r[:, None]
    miss = 1.0 - hit
    pmf = np.zeros((d - 1, k + 1, k + 1))
    pmf[:, 0, 0] = 1.0
    for n in range(k):
        prev = pmf[:, n, :n + 1]
        nxt = pmf[:, n + 1]
        np.multiply(miss, prev, out=nxt[:, :n + 1])
        nxt[:, 1:n + 2] += hit * prev
    cdf = pmf[:, :, :k]
    np.cumsum(cdf, axis=2, out=cdf)
    cdf *= 1 << _UNIT_BITS
    np.ceil(cdf, out=cdf)
    np.minimum(cdf, 1 << _UNIT_BITS, out=cdf)
    thresholds = cdf.astype(np.int64)
    thresholds[:, np.arange(k + 1)[:, None] <= np.arange(k)] = 1 << _UNIT_BITS
    return thresholds


def _conditional_counts(w: np.ndarray, m: int, k: int,
                        gen: np.random.Generator) -> np.ndarray:
    """(m, d) counts, of dtype count_dtype(k), of m rows of k iid symbols from w,
    by conditional binomials.

    Column j draws c_j ~ Bin(n, r_j) with n = k - c_<j by guided inversion
    of one uniform per entry; the last column takes what is left.  Entry
    (i, j) takes uniform i * (d-1) + j of the call: rows go in blocks of
    about _BLOCK_ENTRIES uniforms, each drawn as one (rows, d-1) array, so
    the output is the same for any block size.  The tables are local to the
    call: at d = 64, k = 200, m = 10^5 this draw peaks at 98 MB (tracemalloc),
    its 51 MB output included, where `multinomial` allocates only the output.
    """
    d = w.size
    bits = _SYMBOL_GUIDE_BITS
    thresholds = _symbol_thresholds(w, k)
    guide = _guide_table(thresholds.reshape(-1, k), bits)
    # the search keys (n << 53) + t, written over the thresholds
    keys = thresholds.view(np.uint64)
    keys += np.arange(k + 1, dtype=np.uint64)[:, None] << np.uint64(_UNIT_BITS)
    keys = keys.reshape(d - 1, -1)
    counts = np.empty((m, d), dtype=count_dtype(k))
    step = max(1, _BLOCK_ENTRIES // (d - 1))
    for lo in range(0, m, step):
        block = counts[lo:lo + step]
        uniforms = gen.random((block.shape[0], d - 1))
        left = np.full(block.shape[0], k, dtype=np.int64)
        for j in range(d - 1):
            u = uniforms[:, j]
            cell = left + j * (k + 1)
            cell <<= bits
            cell += (u * (1 << bits)).astype(np.int64)  # exact: the integer part is the cell
            c = guide[cell]
            todo = np.flatnonzero(c < 0)
            if todo.size:
                n = left[todo]
                key = ((n.astype(np.uint64) << _UNIT_BITS)
                       + (u[todo] * (1 << _UNIT_BITS)).astype(np.uint64))
                c[todo] = np.searchsorted(keys[j], key, side="right") - n * k
            block[:, j] = c
            left -= c
        block[:, -1] = left
    return counts


def _ones_pmf(k: int, lam: float) -> np.ndarray:
    """(k+1, k+1) array whose row c is the pmf of Bin(c, 1 - lam) * Bin(k - c, lam).

    Row a of level n holds Bin(a, 1 - lam) * Bin(n - a, lam); level n + 1
    convolves row a - 1 with one Bernoulli(1 - lam) into row a and row 0 with
    one Bernoulli(lam).  Only elementwise products and sums are used (no
    BLAS), so the table has the same bits on every IEEE machine.
    """
    keep = 1.0 - lam
    pmf = np.ones((1, 1))
    for n in range(k):
        nxt = np.zeros((n + 2, n + 2))
        nxt[1:, :-1] = lam * pmf
        nxt[1:, 1:] += keep * pmf
        nxt[0, :-1] = keep * pmf[0]
        nxt[0, 1:] += lam * pmf[0]
        pmf = nxt
    return pmf


def _ones_thresholds(k: int, lam: float) -> np.ndarray:
    """(k+1, k) int64 thresholds ceil(CDF * 2^53) of L_0, ..., L_k at 0, ..., k-1.

    An integer uniform u in [0, 2^53) draws ones = #{i : t[c, i] <= u} from
    L_c, to a resolution of 2^-53.  Each row is nondecreasing and at most 2^53.
    """
    cdf = np.cumsum(_ones_pmf(k, lam)[:, :k], axis=1)
    return np.minimum(np.ceil(cdf * (1 << _UNIT_BITS)), 1 << _UNIT_BITS).astype(np.int64)


def _guide_table(thresholds: np.ndarray, bits: int = _GUIDE_BITS) -> np.ndarray:
    """Flattened (rows * 2^bits,) guide table of the (rows, k) thresholds.

    Cell j of row c covers the integer uniforms [j, j + 1) * 2^(53 - bits).
    It holds the common count of every u in the cell when no threshold of
    row c lies strictly inside it, and -1 otherwise.
    """
    rows, k = thresholds.shape
    cells = 1 << bits
    shift = _UNIT_BITS - bits
    base = np.arange(rows)[:, None] * (cells + 1)
    # outside the cell of t, t <= u for every u of cell j exactly when
    # j >= t >> shift; the cell of t is marked -1 unless t is its first u
    ones = np.bincount((base + (thresholds >> shift)).ravel(), minlength=rows * (cells + 1))
    ones = ones.reshape(rows, cells + 1).cumsum(axis=1)[:, :cells]
    row, col = np.nonzero((thresholds & ((1 << shift) - 1)) != 0)
    ones[row, thresholds[row, col] >> shift] = -1
    return ones.ravel()


@functools.lru_cache(maxsize=4)
def _inversion_tables(k: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The guide table and the flattened search keys (c << 53) + t[c, i] of L_0, ..., L_k.

    Built once per process for each (k, lam), up to the last few pairs, and
    read-only, since every caller shares them.
    """
    thresholds = _ones_thresholds(k, lam)
    guide = _guide_table(thresholds)
    flat = ((np.arange(k + 1, dtype=np.uint64)[:, None] << _UNIT_BITS)
            + thresholds.astype(np.uint64)).ravel()
    guide.flags.writeable = False
    flat.flags.writeable = False
    return guide, flat


def _invert_ones(symbols: np.ndarray, k: int, lam: float,
                 gen: np.random.Generator) -> np.ndarray:
    """Draw each entry's ones from L_{symbols} by guided inversion.

    Takes one uniform per entry, in row-major order, and overwrites
    `symbols`, of any integer dtype, with the ones.  Rows go in blocks of
    about _BLOCK_ENTRIES entries, each indexed through an int64 scratch of
    the block's guide cells; the uniforms are those of one draw of the
    whole shape, so the block size never changes the output.  The
    uniforms, the cells and the looked-up ones go into three buffers made
    once per call: fresh block-sized temporaries are freed and faulted in
    again on every block when the heap is small.
    """
    table, flat = _inversion_tables(k, lam)
    rows, d = symbols.shape
    step = max(1, _BLOCK_ENTRIES // d)
    size = (min(step, rows), d)
    u_buf, cell_buf, ones_buf = np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64)
    for lo in range(0, rows, step):
        block = symbols[lo:lo + step]
        b = block.shape[0]
        u = gen.random(out=u_buf[:b])
        u *= 1 << _GUIDE_BITS  # exact: the integer part is the cell
        ones = ones_buf[:b]
        np.copyto(ones, u, casting="unsafe")  # truncates to the integer part
        cell = np.left_shift(block, _GUIDE_BITS, out=cell_buf[:b], dtype=np.int64)
        cell += ones
        # cells are in range, and mode="clip" writes into out with no buffer
        np.take(table, cell, out=ones, mode="clip")
        todo = np.flatnonzero(ones < 0)
        if todo.size:
            c = cell.ravel()[todo] >> _GUIDE_BITS
            key = ((c.astype(np.uint64) << _UNIT_BITS)
                   + (u.ravel()[todo] * (1 << (_UNIT_BITS - _GUIDE_BITS))).astype(np.uint64))
            ones.ravel()[todo] = np.searchsorted(flat, key, side="right") - c * k
        block[...] = ones
    return symbols


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
