import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldprobust import (
    AttackSpec,
    EstimatorConfig,
    RapporChannel,
    RngSeed,
    batch_deletion,
    count_dtype,
    contaminate,
    gram_maximize,
    hard_pair,
    l1_dist,
    make_clean_collection,
    make_prob_vector,
    mean_response,
    model_cov,
    naive_estimate,
    robust_estimate,
    score_collection,
    special_subset,
    subset_bilinear_max,
)
from ldprobust import estimator as estimator_module
from ldprobust import gram as gram_module
from ldprobust.adversary import BatchCollection
from ldprobust.errors import (
    AllZeroScores,
    CountMismatch,
    DimensionMismatch,
    EmptyBatch,
    EmptySelection,
    EpsOutOfRange,
    Exhausted,
    InexactStatistics,
    InputError,
    InvalidArgument,
    TooFewBatches,
)
from ldprobust.estimator import (
    DESK_TAU_THRESHOLD,
    ExactSums,
    _block_step,
    _delete_until_halved,
    _race_order,
    _row_blocks,
    _score_scratch,
    _sdp_scores,
    _top_pool,
    build_cov_bundle,
    canonical_order,
    rate_unit,
)
from ldprobust.gram import CERTIFICATE_PATHS, GAP_TOL, GramSolution
from ldprobust.harness import TrialCell, build_collection, resolve_attack, sample_p
from ldprobust.prob import subset_indicators

from conftest import brute_force_special_gap, brute_force_sup_gap

#: The proofs that can stop the filter before a Gram solve.
PROOFS = ("l1", "uniform-dual")


@pytest.fixture
def ch():
    return RapporChannel.create(5, 1.0)


@pytest.fixture
def p():
    return make_prob_vector([0.3, 0.25, 0.2, 0.15, 0.1])


def attacked_collection(ch, p, n=2000, k=50, eps=0.05, seed=0, kind="all_ones"):
    rng = RngSeed(seed)
    n_adv = int(math.floor(n * eps))
    clean = make_clean_collection(ch, p, n - n_adv, k, rng.child(1))
    return contaminate(clean, AttackSpec(kind=kind), eps, n, ch, rng.child(2)), rng


def naive_mean(counts, k):
    """The naive estimate's mean of the count rows, at d = 3."""
    return naive_estimate(BatchCollection(counts=counts, k=k), RapporChannel.create(3, 1.0)).qhat


class TestMeans:
    def test_all_ones_batch(self):
        assert np.array_equal(naive_mean(np.full((1, 3), 4), 4), np.ones(3))

    def test_all_zeros_batch(self):
        assert np.array_equal(naive_mean(np.zeros((1, 3), dtype=np.int64), 4), np.zeros(3))

    def test_direct_average(self):
        # one batch of samples [1, 0, 0] and [0, 0, 1]
        assert np.array_equal(naive_mean(np.array([[1, 0, 1]]), 2), [0.5, 0.0, 0.5])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            BatchCollection(counts=np.zeros((1, 3), dtype=np.int64), k=0)
        with pytest.raises(EmptySelection):
            naive_mean(np.zeros((0, 3), dtype=np.int64), 4)

    def test_one_batch(self):
        c = np.array([[1, 4, 0]])
        assert np.array_equal(naive_mean(c, 5), c[0] / 5)

    def test_two_batches(self):
        c = np.array([[0, 5], [5, 0]])
        assert np.array_equal(ExactSums.of(c, 5).mean(), [0.5, 0.5])


class TestEmpiricalCov:
    def test_identical_batches_zero(self):
        counts = np.tile([3, 7], (6, 1))
        assert np.all(ExactSums.of(counts, 10).cov() == 0.0)

    def test_two_batch_outer_product(self):
        # batch means 0.4 +- delta with delta = [0.1, -0.05, 0] at k = 20
        counts = np.array([[10, 7, 8], [6, 9, 8]])
        delta = np.array([0.1, -0.05, 0.0])
        assert np.allclose(ExactSums.of(counts, 20).cov(), np.outer(delta, delta), atol=1e-15)

    def test_chat_matches_mean_of_outer_products(self):
        gen = np.random.default_rng(0)
        k = 30
        counts = gen.integers(0, k + 1, size=(50, 4))
        chat = ExactSums.of(counts, k).cov()
        means = counts / k
        centered = means - means.mean(axis=0)
        ref = np.einsum("bi,bj->bij", centered, centered).mean(axis=0)
        assert np.abs(chat - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(chat, chat.T)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(50)
            assert np.array_equal(ExactSums.of(counts[perm], k).cov(), chat)

    def test_too_few(self):
        with pytest.raises(TooFewBatches):
            ExactSums.of(np.array([[1, 1]]), 2)

    def test_rejects_float_means(self, ch):
        means = np.full((4, ch.d), 0.4)
        with pytest.raises(DimensionMismatch):
            ExactSums.of(means, 20)
        with pytest.raises(DimensionMismatch):
            score_collection(means, EstimatorConfig(eps=0.05), ch, RngSeed(0), k=20)

    def test_exactness_guard(self):
        # n k^2 = 2^53: the float64 GEMM for S2 could round
        with pytest.raises(InexactStatistics):
            ExactSums.of(np.zeros((2, 3), dtype=np.int64), 2 ** 26)
        ExactSums.of(np.zeros((2, 3), dtype=np.int64), 2 ** 26 - 1)
        # n k = 3e9: the int64 numerator could overflow; a zero-stride view
        # stands in for three billion rows
        rows = np.broadcast_to(np.zeros((1, 3), dtype=np.int64), (3 * 10 ** 9, 3))
        with pytest.raises(InexactStatistics):
            ExactSums.of(rows, 1)

    def test_counts_outside_zero_to_k_rejected(self, ch):
        # the exactness bounds assume counts in [0, k]: unchecked, S2 wraps to
        # INT64_MIN here, and the float32 S2 of 255s at k = 20 could round
        with pytest.raises(CountMismatch):
            ExactSums.of([[2 ** 40 + 1, 0], [0, 0], [3, 1]], 1)
        with pytest.raises(CountMismatch):
            ExactSums.of([[-5, 2], [1, 1]], 3)
        wide = np.full((40, ch.d), 20, dtype=np.uint8)
        wide[7, 2] = 255
        with pytest.raises(CountMismatch):
            ExactSums.of(wide, 20)
        with pytest.raises(CountMismatch):
            score_collection(wide, EstimatorConfig(eps=0.05), ch, RngSeed(0), k=20)

    def test_monte_carlo_matches_model(self, ch, p):
        coll = make_clean_collection(ch, p, 10 ** 5, 20, RngSeed(5))
        chat = ExactSums.of(coll.counts, coll.k).cov()
        cm = model_cov(mean_response(ch, p), 20, ch.lam)
        assert np.abs(chat - cm).max() <= 1e-2


class TestModelCov:
    def test_lambda_vector(self, ch):
        k = 7
        cm = model_cov(np.full(ch.d, ch.lam), k, ch.lam)
        assert np.allclose(cm, ch.lam * (1 - ch.lam) * np.eye(ch.d) / k)

    def test_diagonal_formula(self, ch, p):
        k = 10
        q = mean_response(ch, p)
        cm = model_cov(q, k, ch.lam)
        for j in range(ch.d):
            delta = ch.lam - q[j]
            expected = (-delta ** 2 + ch.lam * (1 - ch.lam)
                        - (1 - 2 * ch.lam) * delta) / k
            assert cm[j, j] == pytest.approx(expected, abs=1e-15)

    def test_symmetric(self, ch, p):
        cm = model_cov(mean_response(ch, p), 3, ch.lam)
        assert np.abs(cm - cm.T).max() == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0, 1.7, -0.3])
    def test_bits_of_the_dense_formula(self, lam):
        # zeros of lam - q make zero products whose sign the dense I and Diag
        # terms set; the bytes count the sign of every zero
        gen = np.random.default_rng(5)
        for d, k in [(1, 1), (2, 3), (5, 20), (17, 7)]:
            q = gen.random(d)
            q[:d // 2] = lam
            delta = lam - q
            dense = (-np.outer(delta, delta) + lam * (1.0 - lam) * np.eye(d)
                     - (1.0 - 2.0 * lam) * np.diag(delta)) / k
            assert model_cov(q, k, lam).tobytes() == dense.tobytes()

    def test_rejects_k_below_one(self, ch, p):
        with pytest.raises(InvalidArgument) as exc:
            model_cov(mean_response(ch, p), 0, ch.lam)
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)


class TestSpecialSubset:
    def test_lambda_vector_ties_to_full_set(self, ch):
        mask, gap = special_subset(np.full(ch.d, ch.lam), ch.lam)
        assert gap == 0.0
        assert mask.all()

    def test_all_ones_mean(self):
        lam = 0.25
        mask, gap = special_subset(np.ones(4), lam)
        assert mask.all()
        assert gap == pytest.approx(4 - 0.25 * 4, abs=1e-15)

    def test_matches_brute_force(self):
        gen = np.random.default_rng(2)
        for d in (3, 5, 8, 12):
            for _ in range(10):
                qhat = gen.random(d) * 1.5
                lam = float(gen.uniform(0.1, 0.45))
                _, gap = special_subset(qhat, lam)
                assert gap == pytest.approx(brute_force_special_gap(qhat, lam), abs=1e-12)


class TestScoreCollection:
    def test_identical_batches_at_lambda(self, ch):
        # every batch holds round(20 * lam) = 8 ones per coordinate
        counts = np.tile(np.full(ch.d, round(20 * ch.lam)), (10, 1))
        cfg = EstimatorConfig(eps=0.05)
        rep = score_collection(counts, cfg, ch, RngSeed(0), k=20)
        assert rep.mode == "sdp"
        assert math.isfinite(rep.tau)
        assert np.all(rep.scores == 0.0)

    def test_special_mode_flags_attacked_batch(self):
        # gap >= 11 requires d * (1 - lam) beyond 11; three all-ones batches
        # out of four at d = 24 push the collection mean far above lambda * |S|
        d = 24
        ch = RapporChannel.from_lambda(d, 0.38)
        gen = np.random.default_rng(3)
        p = make_prob_vector(gen.dirichlet(np.ones(d)))
        q = mean_response(ch, p)
        clean_batch = (gen.random((1, 30, d)) < q).sum(axis=1)
        ones = np.full((3, d), 30)
        coll = BatchCollection(counts=np.concatenate([clean_batch, ones]), k=30)
        qbar = ExactSums.of(coll.counts, coll.k).mean()
        gap = brute_force_special_gap_fast(qbar, ch.lam)
        assert gap >= 11.0
        rep = score_collection(coll, EstimatorConfig(eps=0.05), ch, RngSeed(1))
        assert rep.mode == "special"
        assert math.isinf(rep.tau)
        assert rep.scores[1:].min() > rep.scores[0]

    def test_counts_need_k(self, ch):
        with pytest.raises(InvalidArgument) as exc:
            score_collection(np.full((4, ch.d), 3), EstimatorConfig(eps=0.05), ch, RngSeed(0))
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)

    def test_one_row_is_too_few(self, ch):
        with pytest.raises(TooFewBatches):
            score_collection(np.full((1, ch.d), 3), EstimatorConfig(eps=0.05), ch, RngSeed(0),
                             k=5)

    @pytest.mark.parametrize("eps", [-0.01, 0.25])
    def test_config_eps_outside_range(self, eps):
        with pytest.raises(EpsOutOfRange):
            EstimatorConfig(eps=eps)

    def test_requires_positive_eps_for_sdp(self, ch, p):
        coll = make_clean_collection(ch, p, 10, 5, RngSeed(2))
        with pytest.raises(EpsOutOfRange):
            score_collection(coll, EstimatorConfig(eps=0.0), ch, RngSeed(0))

    def test_clean_tau_below_paper_threshold(self, ch, p):
        hits = 0
        for s in range(50):
            coll = make_clean_collection(ch, p, 2002, 50, RngSeed(300 + s))
            rep = score_collection(coll, EstimatorConfig(eps=0.05), ch, RngSeed(s))
            if math.sqrt(rep.tau) <= 200.0:
                hits += 1
        assert hits >= 48

    def test_scores_nonnegative(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=200, seed=4)
        rep = score_collection(coll, EstimatorConfig(eps=0.05), ch, rng.child(5))
        assert rep.scores.min() >= 0.0

    def test_tau_upper_is_certified_bound_over_rate_unit(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=200, seed=4)
        rep = score_collection(coll, EstimatorConfig(eps=0.05), ch, rng.child(5))
        assert rep.mode == "sdp"
        unit = rate_unit(0.05, ch.d, coll.k)
        assert rep.tau_upper == rep.gram.upper_bound / unit
        assert rep.tau == rep.gram.value / unit
        assert rep.tau <= rep.tau_upper <= rep.tau / (1.0 - 1e-4)


def brute_force_special_gap_fast(qhat, lam):
    shift = qhat - lam
    return max(shift[shift > 0].sum(initial=0.0), -shift[shift < 0].sum(initial=0.0))


class TestRowBlocks:
    """Row passes convert their rows in blocks; the blocking changes no result."""

    @pytest.fixture(params=[None, 7, 200])
    def block_scalars(self, request, monkeypatch):
        # None keeps the default; 7 gives one row per block at d >= 4
        if request.param is not None:
            monkeypatch.setattr(estimator_module, "_BLOCK_SCALARS", request.param)
        return request.param

    def test_covariance_is_exact_in_any_blocking(self, block_scalars):
        gen = np.random.default_rng(11)
        k = 20
        counts = gen.integers(0, k + 1, size=(300, 8))
        f = counts.astype(np.float64)
        s1 = counts.sum(axis=0)
        ref = (300 * (f.T @ f).astype(np.int64) - np.outer(s1, s1)) / float((300 * k) ** 2)
        for c in (counts, np.asfortranarray(counts), counts.astype(np.uint8)):
            assert np.array_equal(ExactSums.of(c, k).cov(), ref)

    def test_special_scores_in_any_blocking(self, block_scalars):
        d = 24
        ch = RapporChannel.from_lambda(d, 0.38)
        gen = np.random.default_rng(3)
        clean = gen.integers(0, 31, size=(10, d))
        counts = np.concatenate([clean, np.full((60, d), 30)])
        rep = score_collection(counts, EstimatorConfig(eps=0.05), ch, RngSeed(1), k=30)
        assert rep.mode == "special"
        shift = counts[:, rep.s_star].sum(axis=1) / 30 - ch.lam * float(rep.s_star.sum())
        assert np.array_equal(rep.scores, np.abs(shift))

    def test_sdp_scores_in_any_blocking(self, ch, p, block_scalars):
        attacked, rng = attacked_collection(ch, p, n=400, seed=6)
        clean = make_clean_collection(ch, p, 400, 50, rng.child(1))
        # a clean collection whose Gram input is indefinite: V is far from
        # +-U, so a mix-up of the two factors shows in its scores
        indefinite = make_clean_collection(ch, p, 400, 50, rng.child(2))
        cfg = EstimatorConfig(eps=0.05)
        for coll in (attacked, clean, indefinite):
            for counts in (coll.counts, coll.counts.astype(np.uint8)):
                rep = score_collection(counts, cfg, ch, rng.child(5), k=coll.k)
                assert rep.mode == "sdp"
                # reference: the quadratic forms with the d x d matrix M* = U V^T
                # over all rows at once, where the scores use the rank-r factors;
                # the exact covariance gives the same Gram input, hence the same
                # tau and M*
                centered = coll.counts / coll.k - ExactSums.of(coll.counts, coll.k).mean()
                ref = np.abs(((centered @ rep.gram.matrix()) * centered).sum(axis=1))
                # a row near the mean cancels its quadratic form far below its
                # terms sum |c_i| |M_ij| |c_j| (a score of 1e-6 from terms of
                # 0.06), and both sides round relative to those terms: allow
                # 8d units of 2^-53 of them, or rtol 1e-12 where that is larger
                terms = ((np.abs(centered) @ np.abs(rep.gram.matrix()))
                         * np.abs(centered)).sum(axis=1)
                bound = np.maximum(1e-12 * ref, 8 * ch.d * 2.0 ** -53 * terms)
                assert np.all(np.abs(rep.scores - ref) <= bound)
        u, v = rep.gram.u_factors, rep.gram.v_factors
        assert min(np.abs(u - v).max(), np.abs(u + v).max()) > 0.5

    def test_estimate_in_any_blocking_and_dtype(self, ch, p, monkeypatch):
        coll, rng = attacked_collection(ch, p, n=600, seed=8)
        assert coll.counts.dtype == np.uint8
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        ref = robust_estimate(coll, cfg, ch, rng.child(3))
        assert len(ref.trace) >= 2
        # the survivors' mean, not that of the reused gather buffer
        assert np.array_equal(ref.qhat, ExactSums.of(coll.counts[ref.surviving], coll.k).mean())
        for block_scalars in (7, 200, 1 << 16):
            monkeypatch.setattr(estimator_module, "_BLOCK_SCALARS", block_scalars)
            runs = _at_every_width(coll, cfg, ch, rng.child(3))
            assert [t.deleted for t in runs.trace] == [t.deleted for t in ref.trace]
            assert np.allclose(runs.phat, ref.phat, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype,k", [(np.uint8, 20), (np.uint16, 300), (np.int64, 20)])
    @pytest.mark.parametrize("rows", ["2", "step", "step+1", "step+2", "3step+1"])
    def test_sdp_scores_in_scratch_are_the_subtraction_formula(self, dtype, k, rows):
        # the pass centres and projects each block in scratch; its bits are
        # those of one float64 subtraction and one product per block
        d = 128
        step = _block_step(d)
        m = {"2": 2, "step": step, "step+1": step + 1, "step+2": step + 2,
             "3step+1": 3 * step + 1}[rows]
        gen = np.random.default_rng(m)
        counts = gen.integers(0, k + 1, size=(m, d)).astype(dtype)
        sums = ExactSums.of(counts, k)
        sol = random_factors(d, gen)
        r = sol.rank
        factors = np.hstack([sol.u_factors, sol.v_factors])
        mean = sums.s1 / float(sums.n)
        ref = np.empty(m)
        for start, block in _row_blocks(counts):
            proj = np.subtract(block, mean, dtype=np.float64) @ factors
            quad = np.einsum("ij,ij->i", proj[:, :r], proj[:, r:])
            ref[start:start + quad.size] = np.abs(quad) / (k * k)
        # scratch made for the call, and an estimate's scratch made for more rows
        larger = np.zeros((3 * step + 1, d), dtype=dtype)
        for scratch in (None, _score_scratch(larger, r)):
            assert np.array_equal(_sdp_scores(counts, sums, sol, k, scratch=scratch), ref)

    @pytest.mark.parametrize("m,k", [(4227, 63), (4228, 63), (16385, 63), (3000, 300)],
                             ids=["float32-below-2^24", "float64-at-2^24",
                                  "float64-above-2^25", "float64-uint16"])
    def test_second_moment_of_all_k_counts_is_exact(self, m, k):
        # d = 4 blocks 16384 rows, so each case is one block of m rows and
        # every entry of S2 is m k^2: 4227 * 63^2 lies just below 2^24 and
        # 4228 * 63^2 above it; 16385 * 63^2 has odd partial sums above 2^25,
        # which float32 could not hold
        counts = np.full((m, 4), k, dtype=count_dtype(k))
        wide = counts.astype(np.int64)
        assert np.array_equal(estimator_module._exact_sums(counts, k)[1], wide.T @ wide)
        assert np.array_equal(ExactSums.of(counts, k).s2, wide.T @ wide)

    def test_second_moment_in_float32_is_exact_on_mixed_counts(self):
        # blocks of 513 rows at d = 128, k = 20 (the top rung) sum in float32
        gen = np.random.default_rng(4)
        counts = gen.integers(0, 21, size=(4000, 128)).astype(np.uint8)
        counts[:600] = 20
        wide = counts.astype(np.int64)
        assert np.array_equal(estimator_module._exact_sums(counts, 20)[1], wide.T @ wide)

    @pytest.mark.parametrize("dtype,k", [(np.uint8, 255), (np.uint16, 255), (np.uint16, 300),
                                         (np.int64, 255), (np.int64, 300)])
    @pytest.mark.parametrize("rows", ["1", "2", "step+1", "step+2", "2step+1", "3step"])
    def test_column_sums_by_float_product_are_the_integer_sums(self, dtype, k, rows):
        # d = 1 blocks 65536 rows: with a lone last row joined, 65537 * 255
        # lies just below 2^24, so S1 alone sums in float32 at k = 255 and in
        # float64 at k = 300, and S2 in float64 at both
        step = _block_step(1)
        m = {"1": 1, "2": 2, "step+1": step + 1, "step+2": step + 2,
             "2step+1": 2 * step + 1, "3step": 3 * step}[rows]
        gen = np.random.default_rng(m + k)
        counts = gen.integers(0, k + 1, size=(m, 1)).astype(dtype)
        # a full block of the largest odd count reaches the largest partial
        # sums, odd ones, which float32 holds only below 2^24
        counts[:step + 1] = k - 1 + k % 2
        exact = counts.sum(axis=0, dtype=np.int64)
        for second in (False, True):
            assert np.array_equal(estimator_module._exact_sums(counts, k, second)[0], exact)
        assert np.array_equal(estimator_module._collection_mean(counts, k), exact / float(m * k))
        if m >= 3:
            gone = np.sort(gen.choice(m, size=m // 3, replace=False))
            sums = ExactSums.of(counts, k).without(counts[gone])
            assert np.array_equal(sums.s1, np.delete(counts, gone, axis=0).sum(axis=0, dtype=np.int64))

    def test_column_sums_stay_integer_where_a_block_could_reach_2_53(self):
        # 513 rows a block at d = 128: rows * k >= 2^53 is summed in int64
        d = 128
        rows = _block_step(d) + 1
        k = 2 ** 53 // rows + 1
        gen = np.random.default_rng(6)
        counts = gen.integers(k - 1000, k + 1, size=(3 * rows, d), dtype=np.int64)
        s1, s2 = estimator_module._exact_sums(counts, k, second=False)
        assert s2 is None
        assert np.array_equal(s1, counts.sum(axis=0, dtype=np.int64))

    def test_sdp_scores_allocate_no_block(self):
        # with the estimate's scratch a pass allocates its scores (30 KB), the
        # (d, 2r) factors (48 KB) and einsum's buffers, and no block-sized
        # temporary (512 KB centred, 196 KB projected at d = 128)
        d, k = 128, 20
        gen = np.random.default_rng(2)
        counts = gen.integers(0, k + 1, size=(3800, d)).astype(np.uint8)
        sums = ExactSums.of(counts, k)
        sol = random_factors(d, gen)
        scratch = _score_scratch(counts, sol.rank)
        _sdp_scores(counts, sums, sol, k, scratch=scratch)
        tracemalloc.start()
        try:
            _sdp_scores(counts, sums, sol, k, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_second_moment_allocates_one_block_of_float32(self):
        # one (513, 128) float32 scratch (263 KB) for the call, S2 and one
        # block's d x d product and its int64 copy (64 + 128 KB); a float64
        # copy of each block would add 525 KB
        d, k = 128, 20
        counts = np.random.default_rng(3).integers(0, k + 1, size=(3800, d)).astype(np.uint8)
        estimator_module._exact_sums(counts, k)
        tracemalloc.start()
        try:
            estimator_module._exact_sums(counts, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 1024, peak

    @pytest.mark.parametrize("k", [255, 256])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_targeted_estimate_at_the_width_edges(self, k, direction):
        # k = 255 is the largest batch held in uint8 and k = 256 the smallest
        # in uint16; no count wraps around on the way to the estimate
        d = 5
        ch = RapporChannel.create(d, 1.0)
        p = make_prob_vector([0.3, 0.25, 0.2, 0.15, 0.1])
        mask = np.array([True, False, True, False, False])
        attack = AttackSpec(kind="targeted_subset", mask=mask, direction=direction,
                            magnitude=0.8)
        rng = RngSeed(9, k)
        n, eps = 600, 0.1
        clean = make_clean_collection(ch, p, n - int(n * eps), k, rng.child(1))
        coll = contaminate(clean, attack, eps, n, ch, rng.child(2))
        assert coll.counts.dtype == (np.uint8 if k == 255 else np.uint16)
        assert coll.counts.min() >= 0 and coll.counts.max() <= k
        bad = coll.truth == 1
        pushed = coll.counts[bad][:, mask]
        assert (pushed.mean() > 0.8 * k) if direction > 0 else (pushed.mean() < 0.2 * k)
        cfg = EstimatorConfig(eps=eps, tau_threshold=DESK_TAU_THRESHOLD)
        res = _at_every_width(coll, cfg, ch, rng.child(3))
        assert res.iterations >= 2
        assert l1_dist(res.phat, p.weights) < l1_dist(naive_estimate(coll, ch).phat, p.weights)


def random_factors(d, gen):
    """A hand-built Gram solution: unit-row rank-r factors drawn from gen."""
    r = gram_module._rank(d)
    u, v = gen.standard_normal((2, d, r))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return GramSolution(u_factors=u, v_factors=v, value=0.0, upper_bound=0.0, restarts_used=1)


def _at_every_width(coll, cfg, ch, rng):
    """robust_estimate of uint8, uint16, int32 and int64 copies of the collection's rows.

    Asserts that the canonical order, the exact sums, the scores and the
    estimate's text are bitwise equal at every width, and returns the estimate.
    BatchCollection stores counts at count_dtype(k), so each copy is put in
    place after construction: the estimator must read any integer width.
    """
    widths = [np.uint8, np.uint16, np.int32, np.int64]
    if coll.k > 255:
        widths.remove(np.uint8)
    first = None
    for dtype in widths:
        c = BatchCollection(counts=coll.counts, k=coll.k, truth=coll.truth)
        c.counts = coll.counts.astype(dtype)
        sums = ExactSums.of(c.counts, c.k)
        rep = score_collection(c.counts, cfg, ch, rng.child(5), k=c.k)
        res = robust_estimate(c, cfg, ch, rng)
        seen = (canonical_order(c.counts, c.k), sums.s1, sums.s2, rep.scores, res.to_text())
        if first is None:
            first, out = seen, res
            continue
        for a, b in zip(first, seen):
            assert np.array_equal(a, b), dtype
    return out


def trial_collection(n, k, d, attack, eps, seed):
    """A harness trial's collection and channel, without running the estimator."""
    cell = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=eps, attack=attack)
    ch = RapporChannel.create(d, 1.0)
    rng = RngSeed(seed)
    if attack == "hard_pair_swap":
        pair = hard_pair(ch, eps=eps, k=k)
        target = pair.p
        attack_spec = AttackSpec(kind="swap_distribution", q=pair.q)
    else:
        target = sample_p(cell.p_family, d, rng.child(1))
        attack_spec = resolve_attack(cell, target, ch)
    return build_collection(cell, target, attack_spec, ch, rng.child(2)), ch


def reference_ascent(A, gen, tol):
    """One start at rank min(4, ceil(2 sqrt(d)) + 1) drawn from gen, ascended
    until a full sweep gains at most tol: (value, U, V, history).

    The rows are normalized with a fresh norm and quotient every half sweep,
    as in test_gram's _reference_gram_maximize; the loop's Gram inputs lie in
    the solver's band and have no zero row of A V, which this reference
    does not handle.
    """
    assert gram_module._band_exponent(A) == 0
    d = A.shape[0]
    rank = min(4, math.ceil(2.0 * math.sqrt(d)) + 1)

    def normalize(G):
        return G / np.sqrt(np.einsum("ij,ij->i", G, G))[:, None]

    U = normalize(gen.standard_normal((d, rank)))
    V = normalize(gen.standard_normal((d, rank)))
    AV = A @ V
    value = float(np.vdot(U, AV))
    history = [value]
    for _ in range(gram_module.MAX_SWEEPS):
        U = normalize(AV)
        history.append(float(np.vdot(U, AV)))
        AU = A @ U
        V = normalize(AU)
        new_value = float(np.vdot(V, AU))
        history.append(new_value)
        converged = new_value - value <= tol * max(1.0, abs(new_value))
        value = new_value
        if converged:
            break
        AV = A @ V
    return value, U, V, history


def reference_loop_solve(A, limit, rng):
    """The filter's in-loop Gram solve as a plain loop: restart 0's draws at
    rank min(4, ceil(2 sqrt(d)) + 1) ascend until a full sweep gains at most
    LOOP_TOL, kept at value >= limit with the l1 sum as their bound; below
    limit the solve is gram_maximize, at its full rank.  Returns (value,
    upper bound, certified_by, U, V).
    """
    value, U, V, _ = reference_ascent(A, rng.generator(0), gram_module.LOOP_TOL)
    if value >= limit:
        upper = max(gram_module._sum_rounded_up(np.abs(A).ravel(), 0.0), value)
        return value, upper, "l1", U, V
    sol = gram_maximize(A, rng=rng)
    return sol.value, sol.upper_bound, sol.certified_by, sol.u_factors, sol.v_factors


def reference_estimate(coll, cfg, ch, rng):
    """The filtering loop with no stop proofs and no downdated sums, kept as
    the reference.

    Every iteration recomputes mean and covariance from the survivors' rows
    (ExactSums.of), solves the Gram program by
    reference_loop_solve, scores every survivor, and stops when a full solve
    gives sqrt(value / rate_unit) below the threshold; an ascent kept at
    value >= limit never stops.  Returns the trace as (mode, tau, survivors,
    pool size, gram value, gram upper bound, certified_by, deleted) tuples,
    one (mode, qhat, chat, Gram input) tuple per iteration, chat and the Gram
    input None in special mode, and the result.
    """
    counts, k = coll.counts, coll.k
    canonical = canonical_order(counts, k)
    surviving = np.ones(coll.n, dtype=bool)
    pool_size = math.floor(cfg.eps * coll.n)
    unit = rate_unit(cfg.eps, ch.d, k)
    limit = cfg.tau_threshold * cfg.tau_threshold * unit
    trace, stats = [], []
    for iteration in range(coll.n):
        sel = canonical[surviving[canonical]]
        chosen = counts[sel]
        sums = ExactSums.of(chosen, k)
        qhat = sums.mean()
        s_star, gap = special_subset(qhat, ch.lam)
        if gap >= estimator_module.SPECIAL_GAP:
            stats.append(("special", qhat, None, None))
            tau, gram = math.inf, (None, None, None)
            scores = np.abs(chosen[:, s_star].sum(axis=1) / k - ch.lam * float(s_star.sum()))
        else:
            chat = sums.cov()
            stats.append(("sdp", qhat, chat, chat - model_cov(qhat, k, ch.lam)))
            value, upper, path, U, V = reference_loop_solve(stats[-1][3], limit,
                                                            rng.child(4, iteration))
            tau, gram = value / unit, (value, upper, path)
            centered = chosen - chosen.sum(axis=0, dtype=np.int64) / float(sel.size)
            proj = centered @ np.hstack([U, V])
            r = U.shape[1]
            scores = np.abs(np.einsum("ij,ij->i", proj[:, :r], proj[:, r:])) / (k * k)
        mode = stats[-1][0]
        if gram[2] != "l1" and math.isfinite(tau) and math.sqrt(max(tau, 0.0)) < cfg.tau_threshold:
            trace.append((mode, tau, sel.size, 0, *gram, ()))
            return trace, stats, estimator_module._finalize(qhat, np.sort(sel), [], ch)
        pool = np.sort(np.argsort(-scores, kind="stable")[:pool_size])
        clocks = rng.generator(3, iteration).exponential(size=pool.size)
        deleted = sel[pool[_delete_until_halved(scores[pool], _race_order(scores[pool], clocks))]]
        surviving[deleted] = False
        trace.append((mode, tau, sel.size, pool.size, *gram, tuple(deleted.tolist())))
    raise AssertionError("reference loop did not stop")


def record_scoring_passes(monkeypatch):
    """Wrap the loop's two scoring passes; returns the list of (mode, scores)
    they append to, one entry per pass."""
    passes = []
    for name, mode in (("_special_scores", "special"), ("_sdp_scores", "sdp")):
        def recording(*args, _score=getattr(estimator_module, name), _mode=mode, **kwargs):
            passes.append((_mode, _score(*args, **kwargs)))
            return passes[-1][1]

        monkeypatch.setattr(estimator_module, name, recording)
    return passes


def count_solves(monkeypatch):
    """Wrap the loop's Gram solve; returns the list of its inputs."""
    inputs = []
    solve = estimator_module._loop_solve

    def recording(A, *args):
        inputs.append(A.copy())
        return solve(A, *args)

    monkeypatch.setattr(estimator_module, "_loop_solve", recording)
    return inputs


class TestDowndatedStatistics:
    """S1 and S2 are computed once and downdated exactly after each deletion."""

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_without_equals_recompute(self, dtype):
        gen = np.random.default_rng(21)
        k = 30
        counts = gen.integers(0, k + 1, size=(500, 9)).astype(dtype)
        keep = np.ones(500, dtype=bool)
        sums = ExactSums.of(counts, k)
        for size in (1, 40, 120, 7):
            gone = gen.choice(np.flatnonzero(keep), size=size, replace=False)
            keep[gone] = False
            sums = sums.without(counts[gone])
            ref = ExactSums.of(counts[keep], k)
            assert sums.n == ref.n == keep.sum()
            assert np.array_equal(sums.s1, ref.s1) and np.array_equal(sums.s2, ref.s2)

    @pytest.mark.parametrize("n, k, d, attack, eps, tau_threshold, special_gap", [
        (1000, 20, 128, "targeted_subset", 0.05, DESK_TAU_THRESHOLD, None),
        (2000, 50, 5, "all_ones", 0.1, DESK_TAU_THRESHOLD, 0.35),
        (2000, 50, 5, "swap_mix", 0.1, 0.3, None),
    ], ids=["d128-targeted_subset", "d5-all_ones", "d5-swap_mix"])
    def test_loop_matches_recompute_from_survivors(self, monkeypatch, n, k, d, attack, eps,
                                                   tau_threshold, special_gap):
        if special_gap is not None:
            monkeypatch.setattr(estimator_module, "SPECIAL_GAP", special_gap)
        coll, ch = trial_collection(n, k, d, attack, eps, seed=0)
        cfg = EstimatorConfig(eps=eps, tau_threshold=tau_threshold)
        rng = RngSeed(3)
        ref_trace, ref_stats, _ = reference_estimate(coll, cfg, ch, rng)
        ref_deletions = [deleted for *_, deleted in ref_trace]
        assert len(ref_stats) >= 2 and any(mode == "sdp" for mode, *_ in ref_stats[:-1])

        bundles, gram_inputs = [], []
        build, solve = estimator_module.build_cov_bundle, estimator_module._loop_solve

        def recording_build(*args, **kwargs):
            bundles.append(build(*args, **kwargs))
            return bundles[-1]

        def recording_solve(A, *args):
            gram_inputs.append(A.copy())
            return solve(A, *args)

        monkeypatch.setattr(estimator_module, "build_cov_bundle", recording_build)
        monkeypatch.setattr(estimator_module, "_loop_solve", recording_solve)
        res = robust_estimate(coll, cfg, ch, rng)

        assert [rec.deleted for rec in res.trace] == ref_deletions
        assert [rec.mode for rec in res.trace] == [mode for mode, *_ in ref_stats]
        sdp = [st for st in ref_stats if st[0] == "sdp"]
        # every sdp iteration builds its statistics; all but a proved stop solve
        solved = [rec.gram_value is not None for rec in res.trace if rec.mode == "sdp"]
        assert len(bundles) == len(sdp) == len(solved)
        assert len(gram_inputs) == sum(solved) >= len(solved) - 1
        inputs = iter(gram_inputs)
        for (_, qhat, chat, gram_input), bundle, was_solved in zip(sdp, bundles, solved):
            assert np.array_equal(bundle.qhat_col, qhat)
            assert np.array_equal(bundle.chat, chat)
            assert np.array_equal(bundle.dmat, gram_input)
            if was_solved:
                assert np.array_equal(next(inputs), gram_input)
        assert np.array_equal(res.qhat, ref_stats[-1][1])

    def test_loop_deletes_through_batch_deletion(self, monkeypatch):
        # deletes in two special-mode and two sdp-mode iterations
        monkeypatch.setattr(estimator_module, "SPECIAL_GAP", 0.35)
        coll, ch = trial_collection(2000, 50, 5, "all_ones", 0.1, seed=0)
        cfg = EstimatorConfig(eps=0.1, tau_threshold=DESK_TAU_THRESHOLD)
        passes = record_scoring_passes(monkeypatch)
        calls = []
        delete = estimator_module.batch_deletion

        def recording_delete(indices, pool_scores, gen):
            out = delete(indices, pool_scores, gen)
            calls.append((np.array(indices), np.array(pool_scores), out))
            return out

        monkeypatch.setattr(estimator_module, "batch_deletion", recording_delete)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))

        # one scoring pass per deleting iteration, and none on the stop
        deleting = [rec for rec in res.trace if rec.deleted]
        assert deleting == res.trace[:-1]
        assert [mode for mode, _ in passes] == [rec.mode for rec in deleting]
        assert {rec.mode for rec in deleting} == {"special", "sdp"}
        assert len(calls) == len(deleting)
        for (pool, pool_scores, out), (_, scores), rec in zip(calls, passes, deleting):
            # the pool holds the top scores of this iteration, with their scores
            assert pool.size == rec.pool_size
            assert np.array_equal(pool_scores, scores[pool])
            assert pool_scores.min() >= np.delete(scores, pool).max()
            assert len(out) == len(rec.deleted)


class TestBatchDeletion:
    def test_equal_scores_halving(self):
        deleted = batch_deletion(np.arange(4), np.ones(4), RngSeed(0).generator())
        assert deleted.size == 2

    def test_zero_weight_batches_unpickable(self):
        deleted = batch_deletion([0, 1, 2], [0.0, 0.0, 10.0], RngSeed(1).generator())
        assert deleted.tolist() == [2]

    def test_all_zero_scores(self):
        with pytest.raises(AllZeroScores):
            batch_deletion([0, 1], [0.0, 0.0], RngSeed(0).generator())

    def test_empty_pool(self):
        with pytest.raises(AllZeroScores):
            batch_deletion([], [], RngSeed(0).generator())

    @pytest.mark.parametrize("indices, scores", [([0, 1, 2], [1.0, 2.0]),
                                                 ([0, 1], [1.0, -0.5])],
                             ids=["length-mismatch", "negative-score"])
    def test_rejects_malformed_pool(self, indices, scores):
        with pytest.raises(InvalidArgument) as exc:
            batch_deletion(indices, scores, RngSeed(0).generator())
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)

    def test_probability_tree(self):
        # scores [3, 1]: delete {0} with p = 3/4, else {1, 0} with p = 1/4
        solo = both = 0
        runs = 10 ** 5
        gen = RngSeed(2).generator()
        for _ in range(runs):
            deleted = batch_deletion([0, 1], [3.0, 1.0], gen)
            if deleted.tolist() == [0]:
                solo += 1
            elif deleted.tolist() == [1, 0]:
                both += 1
            else:
                pytest.fail(f"unexpected outcome {deleted}")
        assert abs(solo / runs - 0.75) < 0.01
        assert abs(both / runs - 0.25) < 0.01


def _delete_until_halved_loop(scores, order):
    """Sequential reference in exact rational arithmetic: delete in order while
    the remaining mass exceeds half the total."""
    total = sum(Fraction(float(s)) for s in scores)
    remaining = total
    deleted = []
    for idx in order:
        if 2 * remaining <= total:
            break
        deleted.append(int(idx))
        remaining -= Fraction(float(scores[idx]))
    return np.asarray(deleted, dtype=np.int64)


class TestDeleteUntilHalved:
    def _pools(self, gen, integer):
        for _ in range(1000):
            size = int(gen.integers(1, 60))
            if integer:
                scores = gen.integers(0, 6, size=size).astype(np.float64)
            else:
                # a few random values, scale spread over 6 decades, plus zeros:
                # many exact ties
                values = gen.random(int(gen.integers(1, 5))) * 10.0 ** gen.uniform(-3, 3)
                scores = gen.choice(np.append(values, 0.0), size=size)
            if scores.sum() <= 0.0:
                continue
            yield scores, _race_order(scores, gen.exponential(size=size))

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
    def test_matches_sequential_loop(self, integer):
        gen = np.random.default_rng(31 if integer else 32)
        pools = 0
        for scores, order in self._pools(gen, integer):
            fast = _delete_until_halved(scores, order)
            assert fast.dtype == np.int64
            assert np.array_equal(fast, _delete_until_halved_loop(scores, order))
            pools += 1
        assert pools > 900

    def test_all_zero_pool_rejected(self):
        with pytest.raises(AllZeroScores):
            _delete_until_halved(np.zeros(3), np.arange(3))

    @pytest.mark.parametrize("size", [2, 4, 24, 30, 1000, 4096])
    @pytest.mark.parametrize("value", [0.10480538, 1.0 / 3.0, 2.0 ** -40, 7.3e12, 5e-324])
    def test_equal_scores_delete_exactly_half(self, size, value):
        # a float cumsum of equal scores reaches half the float total one
        # deletion early or late depending on how the common score rounds;
        # the integer grid deletes size / 2 rows for the score and for the
        # score 1 ulp above or below, whatever the order
        gen = np.random.default_rng(size)
        for score in (value, np.nextafter(value, np.inf), np.nextafter(value, 0.0)):
            if score <= 0.0:
                continue
            scores = np.full(size, score)
            for _ in range(5):
                order = gen.permutation(size)
                deleted = _delete_until_halved(scores, order)
                assert np.array_equal(deleted, order[:size // 2]), (score, deleted.size)

    def test_equal_scores_among_zeros(self):
        # zero scores sort last and never count towards either half
        scores = np.zeros(40)
        scores[::3] = 0.1
        order = _race_order(scores, np.random.default_rng(3).exponential(size=40))
        assert _delete_until_halved(scores, order).size == 7


class TestCanonicalOrder:
    @pytest.mark.parametrize("k, shape", [
        (20, (4000, 128)),      # random rows, one-byte entries
        (1, (3000, 5)),         # tie-heavy: at most 32 distinct rows
        (3, (2000, 3)),
        (300, (2500, 7)),       # k >= 256: two-byte entries
        (70_000, (1500, 6)),    # k >= 2^16: eight-byte entries
        (255, (500, 4)),
        (256, (500, 4)),
    ])
    def test_equals_lexsort(self, k, shape):
        gen = np.random.default_rng(k)
        counts = gen.integers(0, k + 1, size=shape)
        # force exact duplicate rows and shared prefixes
        counts[::7] = counts[0]
        counts[1::5, :-1] = counts[1, :-1]
        counts[2::11, 0] = k
        order = canonical_order(counts, k)
        assert np.array_equal(order, np.lexsort(counts.T[::-1]))
        # rows stored at their narrowest width, viewed as keys without a copy
        assert np.array_equal(canonical_order(counts.astype(count_dtype(k)), k), order)

    # (k+1)^3 * n < 2^63 holds only for the first pair, whose largest key
    # times n lies within 2^46 of 2^63; the last pair would overflow int64
    @pytest.mark.parametrize("k, n", [(2 ** 19 - 2, 64), (2 ** 19 - 1, 64), (2 ** 19 - 2, 65)],
                             ids=["integer-keys", "byte-keys", "byte-keys-by-n"])
    def test_equals_lexsort_at_the_integer_key_bound(self, k, n):
        gen = np.random.default_rng(n)
        counts = gen.integers(0, k + 1, size=(n, 3))
        counts[::3] = k
        counts[1::4] = 0
        counts[2::5, 0] = k
        assert np.array_equal(canonical_order(counts, k), np.lexsort(counts.T[::-1]))

    @pytest.mark.parametrize("d", [3, 64], ids=["integer-keys", "byte-keys"])
    @pytest.mark.parametrize("bad", [6, -1])
    def test_count_outside_zero_to_k_rejected(self, d, bad):
        counts = np.full((4, d), 2)
        counts[2, 1] = bad
        with pytest.raises(CountMismatch):
            canonical_order(counts, 5)

    def test_sorted_rows_and_stable_ties(self):
        counts = np.array([[2, 0, 1], [0, 5, 5], [2, 0, 1], [0, 5, 4], [1, 0, 0]])
        assert canonical_order(counts, 5).tolist() == [3, 1, 4, 0, 2]


def _top_pool_reference(scores, size):
    return np.sort(np.argsort(-scores, kind="stable")[:size])


class TestTopPool:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_stable_argsort_on_tie_heavy_scores(self, data):
        # two or three distinct values, one of them 0.0, so most scores tie
        values = [0.0] + data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
            min_size=1, max_size=2))
        picks = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=300))
        scores = np.asarray(values)[picks]
        m = scores.size
        size = data.draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
        pool = _top_pool(scores, size)
        assert pool.dtype == np.int64
        assert np.array_equal(pool, _top_pool_reference(scores, size))

    @pytest.mark.parametrize("value", [0.0, 2.5])
    @pytest.mark.parametrize("size", [1, 17, 40])
    def test_all_equal_scores_take_the_lowest_positions(self, value, size):
        scores = np.full(40, value)
        assert _top_pool(scores, size).tolist() == list(range(size))


class TestRobustEstimate:
    def test_eps_zero_equals_naive(self, ch, p):
        coll = make_clean_collection(ch, p, 50, 10, RngSeed(6))
        rob = robust_estimate(coll, EstimatorConfig(eps=0.0), ch, RngSeed(7))
        nai = naive_estimate(coll, ch)
        assert np.array_equal(rob.phat, nai.phat)
        assert rob.trace == []

    @pytest.mark.parametrize("eps", [0.019, 1e-200])
    def test_empty_pool_equals_naive(self, ch, p, eps):
        # floor(eps * 50) = 0: no row can be adversarial
        coll = make_clean_collection(ch, p, 50, 10, RngSeed(6))
        rob = robust_estimate(coll, EstimatorConfig(eps=eps), ch, RngSeed(7))
        assert np.array_equal(rob.phat, naive_estimate(coll, ch).phat)
        assert rob.trace == []

    def test_clean_data_survives_intact(self, ch, p):
        # at the termination threshold of the analysis nothing is deleted
        hits = 0
        for s in range(10):
            coll = make_clean_collection(ch, p, 2000, 50, RngSeed(400 + s))
            cfg = EstimatorConfig(eps=0.05, tau_threshold=200.0)
            res = robust_estimate(coll, cfg, ch, RngSeed(s))
            if res.surviving.size == 2000 and res.iterations == 1:
                hits += 1
        assert hits >= 9

    def test_all_ones_attack_filtered(self, ch, p):
        wins = 0
        for s in range(20):
            coll, rng = attacked_collection(ch, p, seed=500 + s)
            cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
            rob = robust_estimate(coll, cfg, ch, rng.child(3))
            nai = naive_estimate(coll, ch)
            if l1_dist(rob.phat_normalized, p.weights) <= 0.5 * l1_dist(nai.phat, p.weights):
                wins += 1
        assert wins >= 18

    def test_normalization_invariants(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=400, seed=8)
        res = robust_estimate(coll, EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD),
                              ch, rng.child(3))
        assert abs(np.abs(res.phat_normalized).sum() - 1.0) <= 1e-12
        err_norm = l1_dist(res.phat_normalized, p.weights)
        err_raw = l1_dist(res.phat, p.weights)
        assert err_norm <= 2 * err_raw + 1e-12

    def test_permutation_invariance(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=300, seed=9)
        perm = np.random.default_rng(10).permutation(coll.n)
        shuffled = BatchCollection(counts=coll.counts[perm].copy(), k=coll.k,
                                   truth=coll.truth[perm].copy())
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        res_a = robust_estimate(coll, cfg, ch, rng.child(3))
        res_b = robust_estimate(shuffled, cfg, ch, rng.child(3))
        assert res_a.iterations >= 2
        assert np.array_equal(res_a.phat, res_b.phat)
        assert np.array_equal(res_a.qhat, res_b.qhat)
        assert [(r.mode, r.tau) for r in res_a.trace] == [(r.mode, r.tau) for r in res_b.trace]
        for rec_a, rec_b in zip(res_a.trace, res_b.trace):
            rows_a = sorted(coll.counts[list(rec_a.deleted)].tolist())
            rows_b = sorted(shuffled.counts[list(rec_b.deleted)].tolist())
            assert rows_a == rows_b

    def test_naive_permutation_invariance(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=2000, seed=9)
        cfg = EstimatorConfig(eps=0.0)
        base = naive_estimate(coll, ch)
        assert np.array_equal(robust_estimate(coll, cfg, ch, rng.child(3)).phat, base.phat)
        for s in range(20):
            perm = np.random.default_rng(s).permutation(coll.n)
            shuffled = BatchCollection(counts=coll.counts[perm], k=coll.k)
            assert np.array_equal(naive_estimate(shuffled, ch).phat, base.phat)
            assert np.array_equal(robust_estimate(shuffled, cfg, ch, rng.child(3)).phat,
                                  base.phat)

    def test_exhausted(self, ch, p):
        coll = make_clean_collection(ch, p, 1, 5, RngSeed(11))
        with pytest.raises(Exhausted):
            robust_estimate(coll, EstimatorConfig(eps=0.1), ch, RngSeed(12))

    def test_unreachable_threshold_ends_in_fewer_than_n_iterations(self, ch, p, monkeypatch):
        # sqrt(tau) never drops below a tiny threshold, so only deletions end
        # the loop; each iteration deletes at least one row
        coll, rng = attacked_collection(ch, p, n=200, eps=0.1, seed=25)
        cfg = EstimatorConfig(eps=0.1, tau_threshold=1e-12)
        passes = record_scoring_passes(monkeypatch)
        with pytest.raises(Exhausted) as exc:
            robust_estimate(coll, cfg, ch, rng.child(3))
        assert isinstance(exc.value, InputError)
        # every iteration scores once and deletes at least one row
        assert 2 <= len(passes) < coll.n

    def test_trace_records_iterations(self, ch, p, monkeypatch):
        coll, rng = attacked_collection(ch, p, n=400, seed=13)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        gram_inputs = iter(count_solves(monkeypatch))
        res = robust_estimate(coll, cfg, ch, rng.child(3))
        assert res.iterations >= 2
        assert res.trace[-1].deleted == ()
        assert math.sqrt(res.final_tau) < DESK_TAU_THRESHOLD
        survivors = coll.n
        unit = rate_unit(0.05, ch.d, coll.k)
        limit = DESK_TAU_THRESHOLD * DESK_TAU_THRESHOLD * unit
        ascents = 0
        for rec in res.trace:
            assert rec.survivors == survivors
            survivors -= len(rec.deleted)
            if rec.mode == "special":
                assert rec.gram_value is None and rec.gram_upper is None
            elif rec.gram_value is None:
                # a stop proved before any solve: tau is the proved bound over the unit
                assert rec is res.trace[-1] and rec.certified_by in PROOFS
                assert rec.tau == rec.gram_upper / unit
            elif rec.certified_by == "l1":
                # an ascent kept because its value reaches the limit: it does
                # not stop, and its bound is the rounded-up l1 sum of its input
                abs_sum = gram_module._sum_rounded_up(np.abs(next(gram_inputs)).ravel(), 0.0)
                assert rec.deleted and rec.tau == rec.gram_value / unit
                assert rec.gram_value >= limit
                assert rec.gram_upper >= rec.gram_value
                assert rec.gram_upper == max(abs_sum, rec.gram_value)
                ascents += 1
            else:
                # a full solve, certified to GAP_TOL
                next(gram_inputs)
                assert rec.certified_by in CERTIFICATE_PATHS
                assert rec.tau == rec.gram_value / unit
                assert rec.gram_upper >= rec.gram_value
                assert rec.gram_upper - rec.gram_value <= GAP_TOL * abs(rec.gram_upper)
        assert ascents >= 1
        assert [rec.pool_size for rec in res.trace] == \
            [math.floor(0.05 * coll.n)] * (res.iterations - 1) + [0]
        assert survivors == res.surviving.size
        text = res.to_text()
        assert "trace[0]" in text and "final_tau" in text
        last = res.trace[-1]
        assert (f"gram_value:{last.gram_value!r} gram_upper:{last.gram_upper!r} "
                f"survivors:{last.survivors} pool:0 deleted:[]") in text

    def test_error_after_filter_bound(self, ch, p):
        # final subset error obeys (30 + 2 sqrt(tau)) eps sqrt(d ln(e/eps)/k)
        # with an 8x envelope on the loose constants
        coll, rng = attacked_collection(ch, p, seed=14)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        res = robust_estimate(coll, cfg, ch, rng.child(3))
        gap = brute_force_sup_gap(res.qhat, mean_response(ch, p))
        eps, d, k = 0.05, ch.d, coll.k
        bound = (30 + 2 * math.sqrt(res.final_tau)) * eps * math.sqrt(
            d * math.log(math.e / eps) / k)
        assert gap <= 8 * bound

    def test_deletion_bias_toward_adversarial(self, ch, p):
        fracs = []
        for s in range(10):
            coll, rng = attacked_collection(ch, p, seed=600 + s)
            cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
            res = robust_estimate(coll, cfg, ch, rng.child(3))
            deleted = res.deleted_indices()
            assert deleted.size > 0
            fracs.append((coll.truth[deleted] == 1).mean())
        assert np.mean(fracs) >= 0.6


def record_tuple(rec):
    return (rec.mode, rec.tau, rec.survivors, rec.pool_size, rec.gram_value, rec.gram_upper,
            rec.certified_by, rec.deleted)


class TestCertifiedStop:
    """The stop is decided by a proof before any solve where one gets below the
    threshold, and rows are scored only on iterations that delete."""

    @pytest.mark.parametrize("attack", ["all_ones", "swap_mix", "targeted_subset",
                                        "hard_pair_swap"])
    @pytest.mark.parametrize("n, k, d", [(2000, 50, 5), (2000, 20, 64), (1000, 20, 128)],
                             ids=["d5", "d64", "d128"])
    def test_matches_reference_loop(self, n, k, d, attack):
        coll, ch = trial_collection(n, k, d, attack, 0.05, seed=0)
        cfg = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=0.05, attack=attack).estimator_config()
        ref_trace, ref_stats, ref = reference_estimate(coll, cfg, ch, RngSeed(3))
        ref_dmat = ref_stats[-1][3]
        res = robust_estimate(coll, cfg, ch, RngSeed(3))

        assert np.array_equal(res.surviving, ref.surviving)
        assert np.array_equal(res.qhat, ref.qhat)
        assert np.array_equal(res.phat, ref.phat)
        # every iteration but the stop is recorded bitwise as the reference records it
        assert [record_tuple(rec) for rec in res.trace[:-1]] == ref_trace[:-1]
        unit = rate_unit(cfg.eps, d, k)
        limit = cfg.tau_threshold ** 2 * unit
        ascents = self.check_ascents(res.trace, ref_stats, limit, RngSeed(3))
        # the two attacks that delete keep an ascent on every deleting iteration
        if attack in ("all_ones", "targeted_subset"):
            assert ascents == res.iterations - 1
        last = res.trace[-1]
        if last.gram_value is not None:
            assert record_tuple(last) == ref_trace[-1]
            return
        mode, _, survivors, _, ref_value, _, _, _ = ref_trace[-1]
        assert (last.mode, last.survivors, last.pool_size, last.deleted) == \
            (mode, survivors, 0, ())
        assert ref_value <= last.gram_upper < limit
        assert last.tau == last.gram_upper / unit
        abs_sum = gram_module._sum_rounded_up(np.abs(ref_dmat).ravel(), 0.0)
        if last.certified_by == "l1":
            assert last.gram_upper == abs_sum
        else:
            # the l1 bound failed, and the bound is at least d ||A||_2
            assert last.certified_by == "uniform-dual" and abs_sum >= limit
            spectral = d * float(np.abs(np.linalg.eigvalsh(ref_dmat)).max())
            assert spectral <= last.gram_upper * (1 + 1e-12)

    @staticmethod
    def check_ascents(trace, stats, limit, rng):
        """Each ascent record's Gram input, solved again: the full solve agrees
        that the loop goes on, the same start ascended to SWEEP_TOL continues
        the ascent, and with no limit reachable the in-loop solve is the full
        solve.  Returns the number of ascents."""
        ascents = [(i, stats[i][3]) for i, rec in enumerate(trace) if rec.certified_by == "l1"
                   and rec.gram_value is not None]
        for i, A in ascents:
            l1 = gram_module._l1_rounded_up(np.abs(A))
            sol = gram_module._loop_solve(A, limit, rng.child(4, i), l1)
            full = gram_maximize(A, rng=rng.child(4, i))
            assert sol.value == trace[i].gram_value and sol.certified_by == "l1"
            assert full.value >= limit
            longer = reference_ascent(A, rng.child(4, i).generator(0), gram_module.SWEEP_TOL)[3]
            assert longer[:len(sol.history)] == sol.history
            never = gram_module._loop_solve(A, math.inf, rng.child(4, i), l1)
            assert np.array_equal(never.u_factors, full.u_factors)
            assert np.array_equal(never.v_factors, full.v_factors)
            assert (never.value, never.upper_bound, never.restarts_used, never.certified_by,
                    never.history) == (full.value, full.upper_bound, full.restarts_used,
                                       full.certified_by, full.history)
        return len(ascents)

    def test_panel_stops_by_both_proofs(self):
        proofs = set()
        for n, k, d, attack in [(2000, 50, 5, "swap_mix"), (1000, 20, 128, "targeted_subset")]:
            coll, ch = trial_collection(n, k, d, attack, 0.05, seed=0)
            cfg = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=0.05, attack=attack).estimator_config()
            proofs.add(robust_estimate(coll, cfg, ch, RngSeed(3)).trace[-1].certified_by)
        assert proofs == set(PROOFS)

    @pytest.mark.parametrize("n, k, d, attack", [(2000, 50, 5, "swap_mix"),
                                                 (2000, 50, 5, "all_ones"),
                                                 (1000, 20, 128, "targeted_subset")])
    def test_proved_stop_solves_nothing(self, monkeypatch, n, k, d, attack):
        coll, ch = trial_collection(n, k, d, attack, 0.05, seed=0)
        cfg = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=0.05, attack=attack).estimator_config()
        solves = count_solves(monkeypatch)
        passes = record_scoring_passes(monkeypatch)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))
        assert res.trace[-1].certified_by in PROOFS
        # one solve and one scoring pass per deleting iteration, none on the stop
        assert len(solves) == len(passes) == res.iterations - 1

    @pytest.mark.parametrize("n, k, d, attack", [(2000, 50, 5, "swap_mix"),
                                                 (2000, 50, 5, "all_ones"),
                                                 (1000, 20, 128, "targeted_subset")])
    def test_one_l1_sum_per_sdp_iteration(self, monkeypatch, n, k, d, attack):
        # the stop proofs and a kept ascent's bound share the iteration's one l1 sum
        coll, ch = trial_collection(n, k, d, attack, 0.05, seed=0)
        cfg = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=0.05, attack=attack).estimator_config()
        l1_sum, calls = gram_module._l1_rounded_up, []

        def counting(abs_a):
            calls.append(abs_a.shape)
            return l1_sum(abs_a)

        monkeypatch.setattr(estimator_module, "_l1_rounded_up", counting)
        monkeypatch.setattr(gram_module, "_l1_rounded_up", counting)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))
        sdp = [rec for rec in res.trace if rec.mode == "sdp"]
        # all_ones and targeted_subset keep an ascent on every deleting iteration
        kept = sum(rec.certified_by == "l1" and bool(rec.deleted) for rec in sdp)
        assert kept == (0 if attack == "swap_mix" else len(sdp) - 1)
        assert calls == [(d, d)] * len(sdp)

    def test_solver_stop_scores_nothing(self, monkeypatch):
        # with no proof passing, the stop rests on the solver's value, as before
        coll, ch = trial_collection(2000, 50, 5, "all_ones", 0.05, seed=0)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        proved = robust_estimate(coll, cfg, ch, RngSeed(3))
        monkeypatch.setattr(estimator_module, "_upper_bound_below", lambda A, limit, abs_a, l1: None)
        solves = count_solves(monkeypatch)
        passes = record_scoring_passes(monkeypatch)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))
        assert res.iterations == proved.iterations >= 2
        assert len(solves) == res.iterations and len(passes) == res.iterations - 1
        assert res.trace[-1].certified_by in CERTIFICATE_PATHS
        assert res.trace[-1].gram_value <= proved.trace[-1].gram_upper
        assert [rec.deleted for rec in res.trace] == [rec.deleted for rec in proved.trace]
        assert np.array_equal(res.phat, proved.phat)

    def test_kept_ascent_never_stops(self, monkeypatch):
        # an ascent kept at value >= limit shows the maximum reaches the
        # limit, so even a rule that would stop on any finite tau leaves the
        # stop to a full solve
        coll, ch = trial_collection(2000, 50, 5, "all_ones", 0.05, seed=0)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        monkeypatch.setattr(estimator_module, "_upper_bound_below", lambda A, limit, abs_a, l1: None)
        monkeypatch.setattr(estimator_module, "_stops", lambda tau, cfg: math.isfinite(tau))
        solve, solutions = estimator_module._loop_solve, []
        monkeypatch.setattr(estimator_module, "_loop_solve",
                            lambda *args: solutions.append(solve(*args)) or solutions[-1])
        res = robust_estimate(coll, cfg, ch, RngSeed(3))
        assert res.iterations >= 2
        assert all(rec.certified_by == "l1" and rec.deleted for rec in res.trace[:-1])
        assert res.trace[-1].certified_by in CERTIFICATE_PATHS
        # the kept ascents are at rank 4 and the stop rests on a solve at the
        # full rank ceil(2 sqrt(5)) + 1 = 6
        assert [sol.rank for sol in solutions] == [4] * (res.iterations - 1) + [6]

    def test_fallback_that_goes_on_scores_through_the_shared_scratch(self, monkeypatch):
        # at a threshold no ascent reaches every solve is the full one; the
        # first is made not to stop, so its iteration scores at the full rank
        # ceil(2 sqrt(128)) + 1 = 24 through the scratch the loop holds
        coll, ch = trial_collection(1000, 20, 128, "targeted_subset", 0.05, seed=0)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=1e6)
        monkeypatch.setattr(estimator_module, "_upper_bound_below", lambda A, limit, abs_a, l1: None)
        stops, decided = estimator_module._stops, []
        monkeypatch.setattr(estimator_module, "_stops",
                            lambda tau, cfg: decided.append(tau) or (len(decided) > 1
                                                                      and stops(tau, cfg)))
        score, scored = estimator_module._sdp_scores, []

        def recording(counts, sums, sol, k, scratch=None):
            scores = score(counts, sums, sol, k, scratch=scratch)
            alone = score(counts, sums, sol, k)
            scored.append((sol.rank, scratch[1].shape[1], scores.tobytes() == alone.tobytes()))
            return scores

        monkeypatch.setattr(estimator_module, "_sdp_scores", recording)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))
        assert [rec.certified_by in CERTIFICATE_PATHS for rec in res.trace] == [True, True]
        assert res.trace[0].deleted and not res.trace[1].deleted
        assert scored == [(24, 48, True)]

    @pytest.mark.parametrize("threshold", [1e200, math.inf])
    def test_huge_threshold_stops_at_once(self, ch, p, threshold):
        coll, rng = attacked_collection(ch, p, n=400, seed=13)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=threshold)
        res = robust_estimate(coll, cfg, ch, rng.child(3))
        assert res.iterations == 1 and res.trace[0].certified_by == "l1"

    def test_out_of_rows_is_an_input_error_naming_n_d_eps(self):
        coll, ch = trial_collection(200, 50, 100, "all_ones", 0.05, seed=0)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        with pytest.raises(Exhausted, match=r"n=200 .*d=100, eps=0\.05") as exc:
            robust_estimate(coll, cfg, ch, RngSeed(3))
        assert isinstance(exc.value, InputError)

    def test_all_zero_pool_is_an_input_error(self, ch):
        # identical rows score zero while tau stays above a tiny threshold
        coll = BatchCollection(counts=np.full((40, ch.d), 7), k=20)
        with pytest.raises(Exhausted, match="every score in the deletion pool is zero") as exc:
            robust_estimate(coll, EstimatorConfig(eps=0.1, tau_threshold=1e-12), ch, RngSeed(0))
        assert isinstance(exc.value, InputError)
        assert isinstance(exc.value.__cause__, AllZeroScores)



class TestNaive:
    def test_noiseless_point_mass(self):
        ch = RapporChannel.from_lambda(3, 0.0)
        p = make_prob_vector([1.0, 0.0, 0.0])
        coll = make_clean_collection(ch, p, 1, 5, RngSeed(15))
        res = naive_estimate(coll, ch)
        assert np.allclose(res.phat, [1, 0, 0], atol=1e-15)

    def test_all_ones_shift_closed_form(self, ch, p):
        n, k, eps = 2000, 50, 0.05
        coll, _ = attacked_collection(ch, p, n=n, k=k, eps=eps, seed=16)
        res = naive_estimate(coll, ch)
        clean_means = coll.counts[coll.truth == 0] / coll.k
        qc = clean_means.mean(axis=0)
        f = coll.adversarial_count() / n
        predicted = (qc - ch.lam) / (1 - 2 * ch.lam) + f * (1 - qc) / (1 - 2 * ch.lam)
        assert np.abs(res.phat - predicted).max() < 1e-12


def nice_margins(clean, p_true, eps, ch, rng):
    """Margins (bound minus worst value) of the paper's concentration ("nice")
    conditions on a clean collection, at subset_indicators' 2^d subsets; a
    condition holds when its margin is nonnegative.

    Condition 1a: every sub-collection keeping at least a (1 - 2 eps)
    fraction has subset-mass means within 6 eps sqrt(d ln(e/eps)/k) of the
    true response mean.  The worst sub-collection per subset trims sorted
    batch sums from either end.

    Condition 1b: the empirical minus the model covariance of such
    sub-collections stays within 250 d eps ln(e/eps)/k over every subset
    pair (the subset oracle), on the full collection and 8 random trims.
    The worst trim of a covariance is a subset search with no closed form,
    so the trims are sampled.

    Condition 2: every sub-collection of at most eps n rows sums the product
    of centred subset masses of each subset pair below 33 eps d n ln(e/eps)/k.
    Row by row max(c_i c_j, 0) <= (c_i^2 + c_j^2) / 2, so the worst sum for
    the pair (i, j) is at most the mean of those for (i, i) and (j, j): the
    diagonal pairs give the exact worst over all pairs.
    """
    d, k, n = clean.d, clean.k, clean.n
    log_term = math.log(math.e / eps)
    bits_t = subset_indicators(d).T
    subset_sums = (clean.counts / k) @ bits_t
    q_sums = (mean_response(ch, p_true)[None, :] @ bits_t)[0]

    m_min = max(math.ceil((1.0 - 2.0 * eps) * n), 1)
    csum = np.cumsum(np.sort(subset_sums, axis=0), axis=0)
    bottom = csum[m_min - 1] / m_min
    top = (csum[-1] - (csum[-m_min - 1] if m_min < n else 0.0)) / m_min
    mean_worst = float(np.maximum(np.abs(bottom - q_sums), np.abs(top - q_sums)).max())

    gen = rng.generator(11)
    trims = [np.sort(gen.choice(n, size=m_min, replace=False)) for _ in range(8)]
    cov_worst = max(
        subset_bilinear_max(build_cov_bundle(ExactSums.of(clean.counts[sel], k), ch.lam).dmat)[0]
        for sel in [np.arange(n), *trims])

    m_small = max(math.floor(eps * n), 1)
    centered = subset_sums - q_sums[None, :]
    squares = np.sort(centered * centered, axis=0)[::-1]
    small_worst = float(squares[:m_small].sum(axis=0).max())
    return (6.0 * eps * math.sqrt(d * log_term / k) - mean_worst,
            250.0 * d * eps * log_term / k - cov_worst,
            33.0 * eps * d * n * log_term / k - small_worst)


class TestNiceProperties:
    def test_large_k_passes(self, ch, p):
        coll = make_clean_collection(ch, p, 120, 2000, RngSeed(17))
        assert min(nice_margins(coll, p, 0.1, ch, RngSeed(18))) >= 0.0

    def test_guarantee_scale_pass_rate(self, ch, p):
        eps = 0.1
        n = int(3 * ch.d / (eps ** 2 * math.log(math.e / eps)))
        hits = 0
        for s in range(20):
            coll = make_clean_collection(ch, p, n, 50, RngSeed(700 + s))
            hits += min(nice_margins(coll, p, eps, ch, RngSeed(s))) >= 0.0
        assert hits >= 18

    def test_shifted_batches_fail(self, ch, p):
        coll = make_clean_collection(ch, p, 200, 50, RngSeed(19))
        counts = coll.counts.copy()
        counts[:60] = coll.k  # 30% all-ones but labeled good: iid assumption broken
        bad = BatchCollection(counts=counts, k=coll.k, truth=np.zeros(200, dtype=np.uint8))
        mean_margin, _, _ = nice_margins(bad, p, 0.1, ch, RngSeed(20))
        assert mean_margin < 0.0

    def test_variance_gap_controls_subset_error(self, ch, p):
        # subset error <= 30 eps sqrt(d ln(e/eps)/k) + 2 sqrt(eps * max var gap),
        # with 10% measurement slack, whenever the nice properties hold
        eps, k = 0.1, 50
        coll = make_clean_collection(ch, p, 500, k, RngSeed(21))
        assert min(nice_margins(coll, p, eps, ch, RngSeed(22))) >= 0.0
        bundle = build_cov_bundle(ExactSums.of(coll.counts, k), ch.lam)
        gap_mat = 0.5 * (bundle.dmat + bundle.dmat.T)
        bits = subset_indicators(ch.d)
        var_gaps = np.abs(np.einsum("si,ij,sj->s", bits, gap_mat, bits))
        err = brute_force_sup_gap(bundle.qhat_col, mean_response(ch, p))
        bound = (30 * eps * math.sqrt(ch.d * math.log(math.e / eps) / k)
                 + 2 * math.sqrt(eps * var_gaps.max()))
        assert err <= 1.1 * bound


def lipschitz_margins(q, q_shift, k, lam):
    """(largest gap, worst violation) of the model covariance's Lipschitz bound
        |Cov_{S,S'}(q) - Cov_{S,S'}(q')| <= (15/k) max(|e(S)|, |e(S')|, |e(S n S')|)
    with e = q' - q, over every subset pair; the bound holds when the
    violation is at most 1e-12.  The intersection term is needed: with
    mixed-sign shifts e(S n S') can exceed both |e(S)| and |e(S')|, and the
    two-term bound has counterexamples.
    """
    bits = subset_indicators(q.size)
    abs_shift = np.abs(((q_shift - q)[None, :] @ bits.T)[0])
    masks = np.arange(bits.shape[0])
    cap = np.maximum(np.maximum.outer(abs_shift, abs_shift),
                     abs_shift[masks[:, None] & masks[None, :]])
    vals = np.abs(bits @ ((model_cov(q, k, lam) - model_cov(q_shift, k, lam)) @ bits.T))
    return float(vals.max()), float((vals - (15.0 / k) * cap).max())


class TestCovarianceLipschitz:
    def test_zero_shift(self, ch):
        q = mean_response(ch, make_prob_vector([0.2] * 5))
        gap, violation = lipschitz_margins(q, q, 10, ch.lam)
        assert gap == 0.0
        assert violation <= 1e-12

    def test_coordinate_bump(self):
        ch = RapporChannel.create(4, 1.0)
        q = mean_response(ch, make_prob_vector([0.4, 0.3, 0.2, 0.1]))
        q2 = q.copy()
        q2[0] += 0.01
        k = 25
        gap, violation = lipschitz_margins(q, q2, k, ch.lam)
        assert violation <= 1e-12
        assert gap <= 0.15 / k

    def test_random_shifts_never_violate(self):
        ch = RapporChannel.create(6, 0.8)
        gen = np.random.default_rng(23)
        q = mean_response(ch, make_prob_vector(gen.dirichlet(np.ones(6))))
        for _ in range(100):
            shift = gen.normal(0, 0.02, size=6)
            assert lipschitz_margins(q, q + shift, 40, ch.lam)[1] <= 1e-12
