import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldprobust import (
    AttackSpec,
    ProbVector,
    RapporChannel,
    RngSeed,
    attack_counts,
    count_dtype,
    invert_mean,
    lambda_of_alpha,
    ldp_ratio_check,
    make_clean_collection,
    make_prob_vector,
    mean_response,
    privatize_batch,
    sample_counts,
    sample_privatized,
    subset_sum_law_sample,
)
from ldprobust.errors import (
    AlphaOutOfRange,
    CountMismatch,
    DimensionMismatch,
    EmptySubset,
    NonPositiveAlpha,
    SymbolOutOfRange,
)
from ldprobust import channel as channel_module
from ldprobust.lowerbound import hard_pair
from ldprobust.prob import subset_mask

from conftest import batch_sums, channel_at, chi2_quantile, count_law_stats, two_sample_chi2


class TestLambda:
    def test_limit_at_zero(self):
        assert abs(lambda_of_alpha(1e-12) - 0.5) < 1e-9

    def test_alpha_one(self):
        assert lambda_of_alpha(1.0) == pytest.approx(0.3775406687981454, abs=1e-15)

    def test_alpha_two(self):
        assert lambda_of_alpha(2.0) == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveAlpha):
            lambda_of_alpha(0.0)


class TestPrivatize:
    def test_noiseless(self):
        ch = channel_at(3, 0.0)
        z = privatize_batch(ch, [2], RngSeed(0).generator())
        assert z.tolist() == [[0, 1, 0]]

    def test_fully_randomized(self):
        ch = channel_at(4, 0.5)
        bits = privatize_batch(ch, np.full(10 ** 5, 1), RngSeed(5).generator())
        assert np.abs(bits.mean(axis=0) - 0.5).max() < 0.01

    def test_mean_uniform(self):
        ch = RapporChannel.create(4, 1.0)
        p = make_prob_vector([0.25] * 4)
        bits = sample_privatized(ch, p, 10 ** 6, RngSeed(17))
        expected = (1 - 2 * ch.lam) / 4 + ch.lam
        assert abs(expected - 0.4387) < 1e-4
        assert np.abs(bits.mean(axis=0) - expected).max() < 0.002

    def test_symbol_out_of_range(self):
        ch = RapporChannel.create(3, 1.0)
        with pytest.raises(SymbolOutOfRange):
            privatize_batch(ch, [4], RngSeed(0).generator())

    def test_empty_batch(self):
        ch = RapporChannel.create(3, 1.0)
        assert privatize_batch(ch, [], RngSeed(0).generator()).shape == (0, 3)

    def test_point_mass_coordinate_mean(self):
        ch = RapporChannel.create(3, 1.0)
        p = make_prob_vector([1.0, 0.0, 0.0])
        bits = sample_privatized(ch, p, 50_000, RngSeed(3))
        assert abs(bits[:, 0].mean() - (1 - ch.lam)) < 0.01


class TestMeanResponse:
    def test_point_mass(self):
        ch = channel_at(4, 0.25)
        p = make_prob_vector([1, 0, 0, 0])
        q = mean_response(ch, p)
        assert np.allclose(q, [0.75, 0.25, 0.25, 0.25])

    def test_uniform_symmetry(self):
        ch = RapporChannel.create(5, 0.7)
        q = mean_response(ch, make_prob_vector([0.2] * 5))
        assert np.allclose(q, q[0])

    def test_total_mass(self):
        ch = RapporChannel.create(4, 1.3)
        p = make_prob_vector([0.4, 0.3, 0.2, 0.1])
        q = mean_response(ch, p)
        assert abs(q.sum() - ((1 - 2 * ch.lam) + ch.lam * 4)) < 1e-12

    def test_range(self):
        ch = RapporChannel.create(6, 0.4)
        q = mean_response(ch, make_prob_vector([1, 0, 0, 0, 0, 0]))
        assert q.min() >= ch.lam - 1e-15
        assert q.max() <= 1 - ch.lam + 1e-15


class TestInvertMean:
    def test_round_trip(self):
        ch = RapporChannel.create(6, 0.8)
        p = make_prob_vector([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
        back = invert_mean(ch, mean_response(ch, p))
        assert np.abs(back - p.weights).max() < 1e-14

    def test_lambda_vector_maps_to_zero(self):
        ch = RapporChannel.create(4, 1.0)
        assert np.abs(invert_mean(ch, np.full(4, ch.lam))).max() < 1e-15

    def test_shifted_basis(self):
        ch = RapporChannel.create(4, 1.0)
        q = np.full(4, ch.lam)
        q[0] += 1 - 2 * ch.lam
        assert np.allclose(invert_mean(ch, q), [1, 0, 0, 0], atol=1e-14)

    def test_round_trip_many(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            d = int(gen.integers(3, 33))
            ch = RapporChannel.create(d, float(gen.uniform(0.1, 2.0)))
            p = make_prob_vector(gen.dirichlet(np.ones(d)))
            back = invert_mean(ch, mean_response(ch, p))
            assert np.abs(back - p.weights).max() < 1e-14

    def test_dimension_mismatch(self):
        ch = RapporChannel.create(4, 1.0)
        with pytest.raises(DimensionMismatch):
            invert_mean(ch, np.zeros(5))

    def test_not_invertible_at_half(self):
        with pytest.raises(AlphaOutOfRange):
            invert_mean(channel_at(4, 0.5), np.full(4, 0.5))


class TestChannelOfAnotherDimension:
    @pytest.mark.parametrize("call", [
        lambda ch, p: sample_privatized(ch, p, 3, RngSeed(0)),
        lambda ch, p: sample_counts(ch, p, 2, 3, RngSeed(0).generator()),
        lambda ch, p: mean_response(ch, p),
        lambda ch, p: subset_sum_law_sample(ch, p, np.ones(p.d, dtype=bool),
                                            RngSeed(0).generator()),
        lambda ch, p: make_clean_collection(ch, p, 2, 3, RngSeed(0)),
    ], ids=["privatized", "counts", "mean-response", "sum-law", "clean-collection"])
    def test_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch):
            call(RapporChannel.create(4, 1.0), make_prob_vector([0.2] * 5))

    def test_lambda_above_half(self):
        with pytest.raises(AlphaOutOfRange):
            channel_at(4, 0.6)

    @pytest.mark.parametrize("alpha", [5e-16, 1e-300, 5e-324])
    def test_alpha_whose_lambda_rounds_to_half(self, alpha):
        # the mean map is not invertible at lambda = 1/2, so create refuses it
        assert lambda_of_alpha(alpha) == 0.5
        with pytest.raises(AlphaOutOfRange, match=f"alpha={alpha!r}"):
            RapporChannel.create(5, alpha)
        assert RapporChannel.create(5, 1e-15).lam < 0.5


class TestSumLaw:
    def test_single_coordinate_point_mass(self):
        ch = RapporChannel.create(3, 1.0)
        p = make_prob_vector([1.0, 0.0, 0.0])
        draws = subset_sum_law_sample(ch, p, subset_mask(3, [1]), RngSeed(2).generator(),
                                      count=50_000)
        assert abs(draws.mean() - (1 - ch.lam)) < 0.01

    def test_half_lambda_binomial(self):
        ch = channel_at(5, 0.5)
        p = make_prob_vector([0.2] * 5)
        mask = subset_mask(5, [1, 2, 3])
        draws = subset_sum_law_sample(ch, p, mask, RngSeed(4).generator(), count=50_000)
        assert abs(draws.mean() - 1.5) < 0.02

    def test_empty_subset(self):
        ch = RapporChannel.create(3, 1.0)
        with pytest.raises(EmptySubset):
            subset_sum_law_sample(ch, make_prob_vector([1, 0, 0]),
                                  np.zeros(3, dtype=bool), RngSeed(0).generator())

    @pytest.mark.parametrize("d,subset", [(3, [1, 2]), (5, [2, 4, 5]), (6, [1, 3, 5, 6])])
    def test_matches_direct_privatization(self, d, subset):
        ch = RapporChannel.create(d, 1.0)
        p = make_prob_vector(np.random.default_rng(d).dirichlet(np.ones(d)))
        mask = subset_mask(d, subset)
        n = 10 ** 5
        direct = sample_privatized(ch, p, n, RngSeed(100 + d))[:, mask].sum(axis=1)
        law = subset_sum_law_sample(ch, p, mask, RngSeed(200 + d).generator(), count=n)
        stat, dof = two_sample_chi2(direct, law)
        assert stat < chi2_quantile(0.999, dof)


class TestPrivacyRatio:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_equals_exp_alpha(self, alpha):
        ch = RapporChannel.create(5, alpha)
        assert abs(ldp_ratio_check(ch) - math.exp(alpha)) < 1e-10

    def test_limit_at_zero(self):
        ch = channel_at(5, 0.5)
        assert ldp_ratio_check(ch) == 1.0


class TestUnbiasedness:
    def test_empirical_mean_matches_response(self):
        ch = RapporChannel.create(5, 1.0)
        p = make_prob_vector([0.35, 0.25, 0.2, 0.12, 0.08])
        n = 10 ** 6
        bits = sample_privatized(ch, p, n, RngSeed(31))
        dev = np.abs(bits.mean(axis=0) - mean_response(ch, p)).max()
        assert dev <= 5 * math.sqrt(0.25 / n)


def _binomial_pmf(n, q):
    return np.array([math.comb(n, j) * q ** j * (1.0 - q) ** (n - j) for j in range(n + 1)])


# (d, k, m) of one call on each path of the two rules: symbols categorical,
# by conditional binomials or by `multinomial`; ones from the table or by
# two binomials per entry
_PATHS = {
    "categorical-table": (8, 4, 500),
    "categorical-binomial": (402, 201, 2),
    "conditional-table": (5, 50, 8000),
    "conditional-binomial": (3, 250, 45_000),
    "multinomial-table": (5, 50, 1000),
    "multinomial-binomial": (5, 300, 50),
}


#: sha256 of `TestSampleCounts.test_counts_pinned`'s draws, by numpy release
_COUNT_DIGESTS = {
    "2.4": "1959d2a31c1dc100f076ea39ce9d7639418f75ae02290717bd237c74a7137e54",
}


def _path_helpers(path):
    """The spied helpers a path calls (multinomial and binomials are not spied)."""
    symbols, ones = path.split("-")
    return ({"categorical": {"_categorical_counts"}, "conditional": {"_conditional_counts"},
             "multinomial": set()}[symbols] | ({"_invert_ones"} if ones == "table" else set()))


def _record_paths(monkeypatch):
    """Spy on the sampler's helpers; returns the set their names are added to."""
    used = set()

    def spy(name, inner):
        def call(*args):
            used.add(name)
            return inner(*args)
        return call

    for name in ("_categorical_counts", "_conditional_counts", "_invert_ones"):
        monkeypatch.setattr(channel_module, name, spy(name, getattr(channel_module, name)))
    return used


def _path_prob_vector(family, ch, k):
    if family == "dirichlet":
        return make_prob_vector(np.random.default_rng(ch.d).dirichlet(np.ones(ch.d)))
    if family == "zero-tail":
        w = np.zeros(ch.d)
        w[:2] = 0.5
        return make_prob_vector(w)
    return hard_pair(ch, 0.05, k).q


class TestSamplerParts:
    """The inversion tables and the symbol draws behind sample_counts."""

    @pytest.mark.parametrize("k", [1, 7, 20, 50])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3775, 0.5])
    def test_rows_are_binomial_convolutions(self, k, lam):
        pmf = channel_module._ones_pmf(k, lam)
        assert pmf.shape == (k + 1, k + 1)
        assert pmf.min() >= 0.0
        # a float sum of k + 1 terms that sum to 1 exactly
        assert np.abs(pmf.sum(axis=1) - 1.0).max() <= (k + 1) * 2.0 ** -52
        for c in range(k + 1):
            ref = np.convolve(_binomial_pmf(c, 1.0 - lam), _binomial_pmf(k - c, lam))
            assert np.abs(pmf[c] - ref).max() <= 1e-15, c

    @pytest.mark.parametrize("k", [0, 1, 7, 20, 50, 200])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3775, 0.5])
    def test_inversion_counts_thresholds_at_or_below_u(self, k, lam):
        # ones = #{i : t[c, i] <= u} for an integer uniform u in [0, 2^53), at
        # random u and at every threshold and the integer below it
        thresholds = channel_module._ones_thresholds(k, lam)
        assert thresholds.shape == (k + 1, k)
        assert np.all(np.diff(thresholds, axis=1) >= 0)
        assert thresholds.min(initial=0) >= 0 and thresholds.max(initial=0) <= 2 ** 53
        gen = np.random.default_rng(k)
        rows = np.repeat(np.arange(k + 1), k)
        edges = thresholds.ravel()
        symbols = np.concatenate([rows, rows, gen.integers(0, k + 1, size=4000)])
        u = np.concatenate([edges, edges - 1, gen.integers(0, 2 ** 53, size=4000)])
        inside = (u >= 0) & (u < 2 ** 53)
        symbols, u = symbols[inside].reshape(-1, 1), u[inside].reshape(-1, 1)
        ones = channel_module._invert_ones(symbols.copy(), k, lam, _FixedUniforms(u / 2.0 ** 53))
        ref = (thresholds[symbols[:, 0]] <= u).sum(axis=1)
        assert np.array_equal(ones[:, 0], ref)

    @pytest.mark.parametrize("d, k, blocks", [(128, 20, 3), (5, 50, 4), (64, 200, 3)])
    def test_ones_draw_over_blocks_counts_thresholds(self, d, k, blocks):
        # several full blocks and a short last one, each filling the call's
        # buffers, give the ones of one row-major draw of integer uniforms
        lam = lambda_of_alpha(1.0)
        step = channel_module._BLOCK_ENTRIES // d
        m = blocks * step + step // 3
        symbols = RngSeed(34, d).generator().integers(0, k + 1, size=(m, d)).astype(count_dtype(k))
        ones = channel_module._invert_ones(symbols.copy(), k, lam, RngSeed(35, d).generator())
        u = (RngSeed(35, d).generator().random((m, d)) * 2.0 ** 53).astype(np.int64)
        thresholds = channel_module._ones_thresholds(k, lam)
        ref = np.empty((m, d), dtype=np.int64)
        for c in range(k + 1):
            at = symbols == c
            ref[at] = np.searchsorted(thresholds[c], u[at], side="right")
        assert ones.dtype == count_dtype(k) and np.array_equal(ones, ref)

    def test_warm_table_cache_gives_cold_output(self, monkeypatch):
        # the rules read (m, k, d) only: on every path, a cold cache, a warm
        # one and one that has evicted this k give the same bits
        tables = channel_module._inversion_tables
        used = _record_paths(monkeypatch)
        for path, (d, k, m) in _PATHS.items():
            ch = RapporChannel.create(d, 1.0)
            for family in ("dirichlet", "zero-tail", "hard-pair"):
                p = _path_prob_vector(family, ch, k)
                used.clear()
                tables.cache_clear()
                cold = sample_counts(ch, p, m, k, RngSeed(5).generator())
                assert used == _path_helpers(path)
                # warm every table the paths use, this one last, then evict
                # it: the cache keeps the last four (k, lam) pairs
                for name, (_, k2, _) in _PATHS.items():
                    if name.endswith("-table"):
                        tables(k2, ch.lam)
                tables(k, ch.lam)
                hits = tables.cache_info().hits
                warm = sample_counts(ch, p, m, k, RngSeed(5).generator())
                table = "_invert_ones" in used
                assert tables.cache_info().hits == hits + table
                for k2 in range(k + 1, k + 5):
                    tables(k2, ch.lam)
                misses = tables.cache_info().misses
                evicted = sample_counts(ch, p, m, k, RngSeed(5).generator())
                assert tables.cache_info().misses == misses + table
                assert np.array_equal(cold, warm), (path, family)
                assert np.array_equal(cold, evicted), (path, family)

    @pytest.mark.parametrize("family", ["zero-tail", "hard-pair"])
    @pytest.mark.parametrize("path", sorted(_PATHS))
    def test_noiseless_counts_avoid_zero_mass(self, path, family):
        # at lam = 0 the counts are the symbol counts: k per row, none on a
        # coordinate of zero mass
        d, k, m = _PATHS[path]
        p = _path_prob_vector(family, RapporChannel.create(d, 1.0), k)
        counts = sample_counts(channel_at(d, 0.0), p, m, k,
                               RngSeed(6).generator())
        assert np.all(counts.sum(axis=1) == k)
        assert np.all(counts[:, p.weights == 0.0] == 0)

    def test_cached_tables_are_read_only(self):
        for table in channel_module._inversion_tables(20, 0.3775):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_largest_uniform_draws_no_symbol_of_zero_mass(self):
        # these weights, normalized, have a float sum just below 1
        w = np.array([0.1, 0.1, 0.6, 0.0])
        w /= w.sum()
        assert np.cumsum(w)[-1] < 1.0
        counts = channel_module._categorical_counts(
            w, 1, 2, _FixedUniforms(np.array([0.0, 1.0 - 2.0 ** -53])))
        assert counts.tolist() == [[1, 0, 1, 0]]
        # conditional binomials: the third symbol takes every sample left
        # (r = 1 exactly) and the fourth gets none, at either extreme uniform
        for u, first in ((0.0, [0, 0, 2, 0]), (1.0 - 2.0 ** -53, [2, 0, 0, 0])):
            counts = channel_module._conditional_counts(w, 1, 2, _FixedUniforms(np.full(3, u)))
            assert counts.tolist() == [first]

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_symbol_thresholds_are_binomial_cdfs(self, k):
        w = np.array([0.3, 0.0, 0.45, 1e-9, 0.25 - 1e-9, 0.0, 0.0])
        thresholds = channel_module._symbol_thresholds(w, k)
        assert thresholds.shape == (w.size - 1, k + 1, k)
        assert np.all(np.diff(thresholds, axis=2) >= 0)
        unit = 2 ** 53
        for j in range(w.size - 1):
            r = min(w[j] / w[j:].sum(), 1.0) if w[j:].sum() > 0 else 0.0
            for n in range(k + 1):
                cdf = np.cumsum(_binomial_pmf(n, r))[:n]
                row = thresholds[j, n]
                assert np.all(row[n:] == unit)
                assert np.abs(row[:n] - cdf * unit).max(initial=0) <= 1e-14 * unit, (j, n)
        # zero mass draws nothing; the last symbol of positive mass, whose
        # suffix sum adds only zeros, draws every sample left
        assert np.all(thresholds[[1, 5]] == unit)
        below = np.arange(k + 1)[:, None] > np.arange(k)
        assert np.all(thresholds[4][below] == 0)

    @pytest.mark.parametrize("k", [3, 50])
    def test_conditional_counts_are_multinomial(self, k):
        # every coordinate and every prefix sum against `multinomial`
        w = np.array([0.3, 0.0, 0.45, 1e-3, 0.2, 0.049, 0.0])
        m = 20_000
        direct = channel_module._conditional_counts(w, m, k, RngSeed(21, k).generator())
        assert direct.dtype == count_dtype(k) and np.all(direct.sum(axis=1) == k)
        assert np.all(direct[:, w == 0.0] == 0)
        ref = RngSeed(22, k).generator().multinomial(k, w, size=m)
        stats = [two_sample_chi2(direct[:, j], ref[:, j]) for j in np.flatnonzero(w)]
        stats += [two_sample_chi2(direct[:, :j].sum(axis=1), ref[:, :j].sum(axis=1))
                  for j in range(2, w.size - 1)]
        level = 1 - 1e-3 / len(stats)
        for stat, dof in stats:
            assert stat < chi2_quantile(level, dof), (stat, dof)

    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 16])
    def test_output_does_not_depend_on_block_size(self, block, monkeypatch):
        # each block's uniforms continue the call's row-major draw, so any
        # block size gives the bits of one block holding every row, and the
        # categorical draw gives those of one search per uniform
        lam = lambda_of_alpha(1.0)
        for d, k, m in ((5, 50, 3001), (64, 40, 500), (8, 4, 777), (128, 20, 700)):
            w = np.random.default_rng(d).dirichlet(np.ones(d))
            symbols = RngSeed(30, d).generator().multinomial(k, w, size=m)
            monkeypatch.setattr(channel_module, "_BLOCK_ENTRIES", 1 << 40)
            whole = (channel_module._conditional_counts(w, m, k, RngSeed(31, d).generator()),
                     channel_module._invert_ones(symbols.copy(), k, lam, RngSeed(32, d).generator()),
                     _searched_counts(w, m, k, RngSeed(33, d).generator()))
            monkeypatch.setattr(channel_module, "_BLOCK_ENTRIES", block)
            blocked = (channel_module._conditional_counts(w, m, k, RngSeed(31, d).generator()),
                       channel_module._invert_ones(symbols.copy(), k, lam, RngSeed(32, d).generator()),
                       channel_module._categorical_counts(w, m, k, RngSeed(33, d).generator()))
            for a, b in zip(whole, blocked):
                assert np.array_equal(a, b), (d, k, m)
            # the narrow symbols are overwritten by the same ones
            narrow = channel_module._invert_ones(symbols.astype(count_dtype(k)), k, lam,
                                                 RngSeed(32, d).generator())
            assert narrow.dtype == count_dtype(k) and np.array_equal(narrow, whole[1])

    @pytest.mark.parametrize("w", [
        [0.3, 0.0, 0.45, 0.0, 0.25, 0.0, 0.0],
        [0.25, 0.25, 0.5],
        [0.0, 0.25, 0.0, 0.25, 0.5, 0.0],
        np.array([1, 3, 5, 1015]) / 1024,
        np.array([1, 2, 1, 3, 2041]) / 2048,
        np.full(1024, 1 / 1024),
        np.full(2048, 1 / 2048),
        np.random.default_rng(2048).dirichlet(np.ones(2048)),
        np.random.default_rng(128).dirichlet(np.full(128, 0.1)),
    ], ids=["zero-mass", "dyadic", "dyadic-zero-mass", "cell-edges", "half-cells",
            "uniform-1024", "uniform-2048", "dirichlet-2048", "sparse-128"])
    def test_guided_categorical_matches_search(self, w):
        # weights whose CDF lands on cell edges or between them, more
        # symbols than cells, and every uniform on the 2^-53 grid that
        # `Generator.random` draws from at a CDF value or a cell edge
        # (floor and ceil of its multiple of 2^-53) or the point on each side
        w = np.asarray(w, dtype=np.float64)
        for m, k in ((0, 5), (4, 0), (1, 1), (300, 20), (37, 200)):
            got = channel_module._categorical_counts(w, m, k, RngSeed(40).generator(m, k))
            assert got.dtype == count_dtype(k) and got.shape == (m, w.size)
            assert np.array_equal(got, _searched_counts(w, m, k, RngSeed(40).generator(m, k)))
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        edges = np.arange(1025) / 1024
        grid = np.concatenate([cdf, edges]) * 2.0 ** 53
        grid = np.concatenate([np.floor(grid), np.ceil(grid)])
        grid = np.concatenate([grid - 1.0, grid, grid + 1.0])
        u = np.unique(grid[(grid >= 0.0) & (grid < 2.0 ** 53)]) / 2.0 ** 53
        assert np.array_equal(np.floor(u * 2.0 ** 53), u * 2.0 ** 53)
        got = channel_module._categorical_counts(w, 1, u.size, _FixedUniforms(u))
        assert np.array_equal(got, _searched_counts(w, 1, u.size, _FixedUniforms(u)))


def _searched_counts(w, m, k, gen):
    """The categorical symbol draw by one search of each uniform in the CDF,
    kept as the reference the guided draw is tested against."""
    d = w.size
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    draws = np.searchsorted(cdf[:-1], gen.random((m, k)), side="right")
    draws += np.arange(0, m * d, d)[:, None]
    return np.bincount(draws.ravel(), minlength=m * d).reshape(m, d)


class _FixedUniforms:
    """Stands in for a Generator whose `random` calls return the given uniforms
    in order, as the calls of a Generator continue one stream, each call in
    a fresh array or in `out`."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64).ravel()
        self.used = 0

    def random(self, shape=None, out=None):
        shape = out.shape if out is not None else shape
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        draw = self.u[self.used:self.used + size].reshape(shape)
        self.used += size
        if out is None:
            return draw.copy()
        out[...] = draw
        return out


def _prob_vectors(data, d):
    """A ProbVector with zeros, tiny negatives and sums 1e-13 away from 1.

    ProbVector admits entries down to -1e-12 and sums within 1e-12 of 1.
    """
    raw = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=d, max_size=d)))
    if raw.sum() == 0.0:
        raw[data.draw(st.integers(0, d - 1))] = 1.0
    w = raw / raw.sum()
    j = data.draw(st.integers(0, d - 1))
    w[j] += data.draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    zeros = np.flatnonzero(w == 0.0)
    if zeros.size and data.draw(st.booleans()):
        w[data.draw(st.sampled_from(zeros.tolist()))] = -5e-13
    return ProbVector(w)


def _assert_same_count_law(direct, ref, d):
    stats = count_law_stats(direct, ref, np.arange(d) < (d + 1) // 2)
    # Bonferroni: every statistic below its 1 - 0.001/len level
    level = 1 - 1e-3 / len(stats)
    for label, stat, dof in stats:
        assert stat < chi2_quantile(level, dof), (label, stat, dof)


class TestSampleCounts:
    """The direct count sampler against per-batch sums of the bit-level sampler."""

    @pytest.mark.parametrize("d", [3, 5, 16])
    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_matches_summed_privatized_batches(self, d, k):
        ch = RapporChannel.create(d, 1.0)
        p = make_prob_vector(np.random.default_rng(d).dirichlet(np.ones(d)))
        m = 20_000
        direct = sample_counts(ch, p, m, k, RngSeed(600 + d, k).generator())
        ref = batch_sums(sample_privatized(ch, p, m * k, RngSeed(700 + d, k)), k)
        _assert_same_count_law(direct, ref, d)

    @pytest.mark.parametrize("d, k, m, path", [
        (128, 20, 20_000, "categorical-table"),
        (40, 20, 50, "categorical-binomial"),
        (40, 20, 50, "categorical-table"),
        (3, 200, 20_000, "multinomial-table"),
        (5, 50, 20_000, "conditional-table"),
        (3, 250, 45_000, "conditional-binomial"),
        (5, 50, 1000, "multinomial-table"),
        (5, 300, 50, "multinomial-binomial"),
    ], ids=["categorical-table", "categorical-binomial", "categorical-table-small-m",
            "multinomial-table", "conditional-table", "conditional-binomial",
            "multinomial-table-small-m", "multinomial-binomial"])
    def test_each_path_matches_summed_privatized_batches(self, d, k, m, path, monkeypatch):
        # at least 20 000 rows from calls of m rows each; every case runs the
        # helpers its path names, and no other
        used = _record_paths(monkeypatch)
        if path == "categorical-binomial":
            # the rules reach this path only for k > 200 and d >= 402, too large
            # for the bit-level reference; with no table free of charge the
            # cost bound sends (40, 20, 50) to the binomial ones draw instead
            monkeypatch.setattr(channel_module, "_TABLE_FREE_K", 0)
        ch = RapporChannel.create(d, 1.0)
        p = make_prob_vector(np.random.default_rng(d).dirichlet(np.ones(d)))
        gen = RngSeed(800 + d, k).generator()
        direct = np.concatenate([sample_counts(ch, p, m, k, gen)
                                 for _ in range(max(1, 20_000 // m))])
        assert used == _path_helpers(path)
        ref = batch_sums(sample_privatized(ch, p, direct.shape[0] * k, RngSeed(900 + d, k)), k)
        _assert_same_count_law(direct, ref, d)

    def test_shape_dtype_and_determinism(self):
        ch = RapporChannel.create(4, 1.0)
        p = make_prob_vector([0.4, 0.3, 0.2, 0.1])
        for k, dtype in ((9, np.uint8), (255, np.uint8), (256, np.uint16)):
            a = sample_counts(ch, p, 6, k, RngSeed(3).generator())
            assert a.shape == (6, 4) and a.dtype == dtype
            assert a.min() >= 0 and a.max() <= k
            assert np.array_equal(a, sample_counts(ch, p, 6, k, RngSeed(3).generator()))
            empty = sample_counts(ch, p, 0, k, RngSeed(3).generator())
            assert empty.shape == (0, 4) and empty.dtype == dtype

    def test_counts_pinned(self):
        # the sampler's bits on every path, weight family and two alphas, and
        # on the targeted attack at the ladder's two shapes; the sampler runs
        # no BLAS, so only numpy's release can move them
        release = ".".join(np.__version__.split(".")[:2])
        if release not in _COUNT_DIGESTS:
            pytest.skip(f"no count digest is pinned for numpy {release}")
        digest = hashlib.sha256()

        def add(counts):
            digest.update(f"{counts.dtype.str}{counts.shape}".encode())
            digest.update(counts.tobytes())

        for seed, (path, (d, k, m)) in enumerate(sorted(_PATHS.items())):
            for family in ("dirichlet", "zero-tail", "hard-pair"):
                for alpha in (0.5, 1.0):
                    ch = RapporChannel.create(d, alpha)
                    p = _path_prob_vector(family, ch, k)
                    add(sample_counts(ch, p, m, k, RngSeed(50 + seed).generator()))
        for d, k, m in ((128, 20, 200), (5, 50, 960)):
            ch = RapporChannel.create(d, 1.0)
            spec = AttackSpec(kind="targeted_subset", mask=np.arange(d) < d // 2,
                              direction=1, magnitude=0.5)
            add(attack_counts(spec, ch, m, k, RngSeed(60, d).generator()))
        assert digest.hexdigest() == _COUNT_DIGESTS[release]

    def test_noiseless_counts_are_symbol_counts(self):
        ch = channel_at(3, 0.0)
        counts = sample_counts(ch, make_prob_vector([0.5, 0.5, 0.0]), 100, 8,
                               RngSeed(4).generator())
        assert np.all(counts[:, :2].sum(axis=1) == 8)
        assert np.all(counts[:, 2] == 0)

    def test_dimension_mismatch(self):
        ch = RapporChannel.create(4, 1.0)
        with pytest.raises(DimensionMismatch):
            sample_counts(ch, make_prob_vector([0.5, 0.3, 0.2]), 3, 2, RngSeed(0).generator())

    @pytest.mark.parametrize("m, k", [(-1, 5), (5, -1)])
    def test_negative_sizes(self, m, k):
        ch = RapporChannel.create(4, 1.0)
        with pytest.raises(CountMismatch):
            sample_counts(ch, make_prob_vector([0.25] * 4), m, k, RngSeed(0).generator())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_prob_vector_gives_valid_counts(self, data):
        d = data.draw(st.integers(3, 12))
        p = _prob_vectors(data, d)
        k = data.draw(st.integers(1, 60))
        lam = data.draw(st.sampled_from([0.0, 0.1, 0.3775, 0.5]))
        ch = channel_at(d, lam)
        gen = RngSeed(data.draw(st.integers(0, 2 ** 32))).generator()
        counts = sample_counts(ch, p, 5, k, gen)
        assert counts.shape == (5, d) and counts.dtype == count_dtype(k)
        assert counts.min() >= 0 and counts.max() <= k

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_noiseless_counts_on_every_path(self, data):
        # at lam = 0 every row holds k ones, none on a coordinate of zero mass;
        # m and k span both sides of both rules, and zero
        d = data.draw(st.integers(3, 12))
        p = _prob_vectors(data, d)
        m = data.draw(st.sampled_from([0, 1, 5, 3000]))
        k = data.draw(st.integers(0, 60))
        ch = channel_at(d, 0.0)
        gen = RngSeed(data.draw(st.integers(0, 2 ** 32))).generator()
        counts = sample_counts(ch, p, m, k, gen)
        assert counts.shape == (m, d) and counts.dtype == count_dtype(k)
        assert np.all(counts.sum(axis=1) == k)
        assert np.all(counts[:, p.weights <= 0.0] == 0)
