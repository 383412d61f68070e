import math

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
    check_nice_properties,
    collection_mean,
    contaminate,
    covariance_lipschitz_check,
    empirical_cov,
    l1_dist,
    make_clean_collection,
    make_prob_vector,
    mean_response,
    model_cov,
    naive_estimate,
    robust_estimate,
    score_collection,
    special_subset,
)
from ldprobust import estimator as estimator_module
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
    LengthMismatch,
    TooFewBatches,
)
from ldprobust.estimator import (
    DESK_TAU_THRESHOLD,
    ExactSums,
    _delete_until_halved,
    _race_order,
    _top_pool,
    build_cov_bundle,
    canonical_order,
)
from ldprobust.harness import TrialCell, build_collection, resolve_attack, sample_p

from conftest import brute_force_special_gap


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


class TestMeans:
    def test_all_ones_batch(self):
        assert np.array_equal(collection_mean(np.full((1, 3), 4), 4), np.ones(3))

    def test_all_zeros_batch(self):
        assert np.array_equal(collection_mean(np.zeros((1, 3), dtype=np.int64), 4),
                              np.zeros(3))

    def test_direct_average(self):
        # one batch of samples [1, 0, 0] and [0, 0, 1]
        assert np.array_equal(collection_mean(np.array([[1, 0, 1]]), 2), [0.5, 0.0, 0.5])

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            BatchCollection(counts=np.zeros((1, 3), dtype=np.int64), k=0)
        with pytest.raises(EmptySelection):
            collection_mean(np.zeros((0, 3), dtype=np.int64), 4)

    def test_collection_mean_single(self):
        c = np.array([[1, 4]])
        assert np.array_equal(collection_mean(c, 5), c[0] / 5)

    def test_collection_mean_two(self):
        c = np.array([[0, 5], [5, 0]])
        assert np.array_equal(collection_mean(c, 5), [0.5, 0.5])


class TestEmpiricalCov:
    def test_identical_batches_zero(self):
        counts = np.tile([3, 7], (6, 1))
        assert np.all(empirical_cov(counts, 10) == 0.0)

    def test_two_batch_outer_product(self):
        # batch means 0.4 +- delta with delta = [0.1, -0.05, 0] at k = 20
        counts = np.array([[10, 7, 8], [6, 9, 8]])
        delta = np.array([0.1, -0.05, 0.0])
        assert np.allclose(empirical_cov(counts, 20), np.outer(delta, delta), atol=1e-15)

    def test_chat_matches_mean_of_outer_products(self):
        gen = np.random.default_rng(0)
        k = 30
        counts = gen.integers(0, k + 1, size=(50, 4))
        chat = empirical_cov(counts, k)
        means = counts / k
        centered = means - means.mean(axis=0)
        ref = np.einsum("bi,bj->bij", centered, centered).mean(axis=0)
        assert np.abs(chat - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(chat, chat.T)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(50)
            assert np.array_equal(empirical_cov(counts[perm], k), chat)

    def test_too_few(self):
        with pytest.raises(TooFewBatches):
            empirical_cov(np.array([[1, 1]]), 2)

    def test_rejects_float_means(self, ch):
        means = np.full((4, ch.d), 0.4)
        with pytest.raises(DimensionMismatch):
            empirical_cov(means, 20)
        with pytest.raises(DimensionMismatch):
            collection_mean(means, 20)
        with pytest.raises(DimensionMismatch):
            score_collection(means, EstimatorConfig(eps=0.05), ch, RngSeed(0), k=20)

    def test_exactness_guard(self):
        # n k^2 = 2^53: the float64 GEMM for S2 could round
        with pytest.raises(InexactStatistics):
            empirical_cov(np.zeros((2, 3), dtype=np.int64), 2 ** 26)
        empirical_cov(np.zeros((2, 3), dtype=np.int64), 2 ** 26 - 1)
        # n k = 3e9: the int64 numerator could overflow; a zero-stride view
        # stands in for three billion rows
        rows = np.broadcast_to(np.zeros((1, 3), dtype=np.int64), (3 * 10 ** 9, 3))
        with pytest.raises(InexactStatistics):
            empirical_cov(rows, 1)

    def test_monte_carlo_matches_model(self, ch, p):
        coll = make_clean_collection(ch, p, 10 ** 5, 20, RngSeed(5))
        chat = empirical_cov(coll.counts, coll.k)
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
        qbar = collection_mean(coll.counts, coll.k)
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
        from ldprobust.estimator import rate_unit
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
        assert np.array_equal(empirical_cov(counts, k), ref)
        assert np.array_equal(empirical_cov(np.asfortranarray(counts), k), ref)
        assert np.array_equal(empirical_cov(counts.astype(np.uint8), k), ref)

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
        cfg = EstimatorConfig(eps=0.05)
        for coll in (attacked, clean):
            for counts in (coll.counts, coll.counts.astype(np.uint8)):
                rep = score_collection(counts, cfg, ch, rng.child(5), k=coll.k)
                assert rep.mode == "sdp"
                # reference: the quadratic forms with the d x d matrix M* = U V^T
                # over all rows at once, where the scores use the rank-r factors;
                # the exact covariance gives the same Gram input, hence the same
                # tau and M*
                centered = coll.counts / coll.k - collection_mean(coll.counts, coll.k)
                ref = np.abs(((centered @ rep.gram.matrix()) * centered).sum(axis=1))
                assert np.allclose(rep.scores, ref, rtol=1e-12, atol=0.0)
        # the clean collection's Gram input is indefinite: V is far from +-U, so
        # a mix-up of the two factors shows in its scores
        u, v = rep.gram.u_factors, rep.gram.v_factors
        assert min(np.abs(u - v).max(), np.abs(u + v).max()) > 0.5

    def test_estimate_in_any_blocking_and_dtype(self, ch, p, monkeypatch):
        coll, rng = attacked_collection(ch, p, n=600, seed=8)
        narrow = BatchCollection(counts=coll.counts.astype(np.uint8), k=coll.k, truth=coll.truth)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        ref = robust_estimate(coll, cfg, ch, rng.child(3))
        assert len(ref.trace) >= 2
        # the survivors' mean, not that of the reused gather buffer
        assert np.array_equal(ref.qhat, collection_mean(coll.counts[ref.surviving], coll.k))
        for block_scalars in (7, 200):
            monkeypatch.setattr(estimator_module, "_BLOCK_SCALARS", block_scalars)
            for c in (coll, narrow):
                res = robust_estimate(c, cfg, ch, rng.child(3))
                assert [t.deleted for t in res.trace] == [t.deleted for t in ref.trace]
                assert np.allclose(res.phat, ref.phat, rtol=1e-12, atol=0.0)


def trial_collection(n, k, d, attack, eps, seed):
    """A harness trial's collection and channel, without running the estimator."""
    cell = TrialCell(n=n, k=k, d=d, alpha=1.0, eps=eps, attack=attack)
    ch = RapporChannel.create(d, 1.0)
    rng = RngSeed(seed)
    target = sample_p(cell.p_family, d, rng.child(1))
    attack_spec = resolve_attack(cell, target, ch)
    return build_collection(cell, target, attack_spec, ch, rng.child(2)), ch


def recompute_loop(coll, cfg, ch, rng):
    """The filtering loop with mean and covariance recomputed from the survivors.

    Mirrors robust_estimate, but every iteration reads the survivors' rows
    through collection_mean and empirical_cov.  Returns one (mode, qhat, chat,
    Gram input) tuple per iteration, chat and the Gram input None in special
    mode, and the deleted rows of each iteration.
    """
    counts, k = coll.counts, coll.k
    canonical = canonical_order(counts, k)
    surviving = np.ones(coll.n, dtype=bool)
    pool_size = math.floor(cfg.eps * coll.n)
    stats, deletions = [], []
    for iteration in range(coll.n + 1):
        sel = canonical[surviving[canonical]]
        chosen = counts[sel]
        report = score_collection(chosen, cfg, ch, rng.child(4, iteration), k=k)
        qhat = collection_mean(chosen, k)
        if report.mode == "sdp":
            chat = empirical_cov(chosen, k)
            stats.append(("sdp", qhat, chat, chat - model_cov(qhat, k, ch.lam)))
        else:
            stats.append(("special", qhat, None, None))
        if math.isfinite(report.tau) and math.sqrt(max(report.tau, 0.0)) < cfg.tau_threshold:
            deletions.append(())
            return stats, deletions
        pool = np.sort(np.argsort(-report.scores, kind="stable")[:pool_size])
        scores = report.scores[pool]
        clocks = rng.generator(3, iteration).exponential(size=pool.size)
        deleted = sel[pool[_delete_until_halved(scores, _race_order(scores, clocks))]]
        surviving[deleted] = False
        deletions.append(tuple(int(j) for j in deleted))
    raise AssertionError("reference loop did not stop")


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
            assert np.array_equal(sums.mean(), collection_mean(counts[keep], k))
            assert np.array_equal(sums.cov(), empirical_cov(counts[keep], k))

    def test_sums_must_match_rows(self, ch):
        counts = np.random.default_rng(2).integers(0, 21, size=(50, ch.d))
        sums = ExactSums.of(counts[:49], 20)
        with pytest.raises(LengthMismatch):
            score_collection(counts, EstimatorConfig(eps=0.05), ch, RngSeed(0), k=20, sums=sums)

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
        ref_stats, ref_deletions = recompute_loop(coll, cfg, ch, rng)
        assert len(ref_stats) >= 2 and any(mode == "sdp" for mode, *_ in ref_stats[:-1])

        bundles, gram_inputs = [], []
        build, solve = estimator_module.build_cov_bundle, estimator_module.gram_maximize

        def recording_build(*args, **kwargs):
            bundles.append(build(*args, **kwargs))
            return bundles[-1]

        def recording_solve(A, **kwargs):
            gram_inputs.append(A.copy())
            return solve(A, **kwargs)

        monkeypatch.setattr(estimator_module, "build_cov_bundle", recording_build)
        monkeypatch.setattr(estimator_module, "gram_maximize", recording_solve)
        res = robust_estimate(coll, cfg, ch, rng)

        assert [rec.deleted for rec in res.trace] == ref_deletions
        assert [rec.mode for rec in res.trace] == [mode for mode, *_ in ref_stats]
        sdp = [st for st in ref_stats if st[0] == "sdp"]
        assert len(bundles) == len(gram_inputs) == len(sdp)
        for (_, qhat, chat, gram_input), bundle, A in zip(sdp, bundles, gram_inputs):
            assert np.array_equal(bundle.qhat_col, qhat)
            assert np.array_equal(bundle.chat, chat)
            assert np.array_equal(A, gram_input)
        assert np.array_equal(res.qhat, ref_stats[-1][1])

    def test_loop_deletes_through_batch_deletion(self, monkeypatch):
        # deletes in two special-mode and two sdp-mode iterations
        monkeypatch.setattr(estimator_module, "SPECIAL_GAP", 0.35)
        coll, ch = trial_collection(2000, 50, 5, "all_ones", 0.1, seed=0)
        cfg = EstimatorConfig(eps=0.1, tau_threshold=DESK_TAU_THRESHOLD)
        reports, calls = [], []
        score, delete = estimator_module.score_collection, estimator_module.batch_deletion

        def recording_score(*args, **kwargs):
            reports.append(score(*args, **kwargs))
            return reports[-1]

        def recording_delete(indices, pool_scores, gen):
            out = delete(indices, pool_scores, gen)
            calls.append((np.array(indices), np.array(pool_scores), out))
            return out

        monkeypatch.setattr(estimator_module, "score_collection", recording_score)
        monkeypatch.setattr(estimator_module, "batch_deletion", recording_delete)
        res = robust_estimate(coll, cfg, ch, RngSeed(3))

        deleting = [(rec, rep) for rec, rep in zip(res.trace, reports) if rec.deleted]
        assert {rep.mode for _, rep in deleting} == {"special", "sdp"}
        assert len(calls) == len(deleting)
        for (pool, pool_scores, out), (rec, rep) in zip(calls, deleting):
            # the pool holds the top scores of this iteration, with their scores
            assert pool.size == rec.pool_size
            assert np.array_equal(pool_scores, rep.scores[pool])
            assert pool_scores.min() >= np.delete(rep.scores, pool).max()
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
    """Sequential reference: delete in order while the remaining mass exceeds half."""
    total = float(scores.sum())
    remaining = total
    deleted = []
    for idx in order:
        if remaining <= total / 2.0:
            break
        deleted.append(int(idx))
        remaining -= float(scores[idx])
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


class TestCanonicalOrder:
    @pytest.mark.parametrize("k, shape", [
        (20, (4000, 128)),      # random rows, one-byte entries
        (1, (3000, 5)),         # tie-heavy: at most 32 distinct rows
        (3, (2000, 3)),
        (300, (2500, 7)),       # k >= 256: two-byte entries
        (70_000, (1500, 6)),    # k >= 2^16: four-byte entries
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
        score = estimator_module.score_collection
        reports = []

        def recording_score(*args, **kwargs):
            reports.append(score(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(estimator_module, "score_collection", recording_score)
        with pytest.raises((Exhausted, AllZeroScores)):
            robust_estimate(coll, cfg, ch, rng.child(3))
        assert 2 <= len(reports) < coll.n

    def test_trace_records_iterations(self, ch, p):
        coll, rng = attacked_collection(ch, p, n=400, seed=13)
        cfg = EstimatorConfig(eps=0.05, tau_threshold=DESK_TAU_THRESHOLD)
        res = robust_estimate(coll, cfg, ch, rng.child(3))
        assert res.iterations >= 2
        assert res.trace[-1].deleted == ()
        assert math.sqrt(res.final_tau) < DESK_TAU_THRESHOLD
        survivors = coll.n
        for rec in res.trace:
            assert rec.survivors == survivors
            survivors -= len(rec.deleted)
            if rec.mode == "sdp":
                assert rec.gram_upper >= rec.gram_value
                assert rec.gram_upper - rec.gram_value <= 1e-4 * abs(rec.gram_upper)
            else:
                assert rec.gram_value is None and rec.gram_upper is None
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
        q = mean_response(ch, p)
        from ldprobust import sup_subset_gap
        gap, _ = sup_subset_gap(res.qhat, q)
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


class TestNiceProperties:
    def test_large_k_passes(self, ch, p):
        coll = make_clean_collection(ch, p, 120, 2000, RngSeed(17))
        rep = check_nice_properties(coll, p, 0.1, ch, RngSeed(18))
        assert rep.condition1 and rep.condition2

    def test_guarantee_scale_pass_rate(self, ch, p):
        eps = 0.1
        n = int(3 * ch.d / (eps ** 2 * math.log(math.e / eps)))
        hits = 0
        for s in range(20):
            coll = make_clean_collection(ch, p, n, 50, RngSeed(700 + s))
            rep = check_nice_properties(coll, p, eps, ch, RngSeed(s))
            hits += rep.all_ok
        assert hits >= 18

    def test_shifted_batches_fail(self, ch, p):
        coll = make_clean_collection(ch, p, 200, 50, RngSeed(19))
        counts = coll.counts.copy()
        counts[:60] = coll.k  # 30% all-ones but labeled good: iid assumption broken
        bad = BatchCollection(counts=counts, k=coll.k, truth=np.zeros(200, dtype=np.uint8))
        rep = check_nice_properties(bad, p, 0.1, ch, RngSeed(20))
        assert not rep.mean_ok

    def test_channel_of_another_dimension(self, ch, p):
        coll = make_clean_collection(ch, p, 50, 10, RngSeed(23))
        with pytest.raises(DimensionMismatch):
            check_nice_properties(coll, make_prob_vector([0.25] * 4), 0.1,
                                  RapporChannel.create(4, 1.0))

    def test_variance_gap_controls_subset_error(self, ch, p):
        # subset error <= 30 eps sqrt(d ln(e/eps)/k) + 2 sqrt(eps * max var gap),
        # with 10% measurement slack, whenever the nice properties hold
        from ldprobust import sup_subset_gap
        eps, k = 0.1, 50
        coll = make_clean_collection(ch, p, 500, k, RngSeed(21))
        rep = check_nice_properties(coll, p, eps, ch, RngSeed(22))
        assert rep.all_ok
        bundle = build_cov_bundle(ExactSums.of(coll.counts, k), ch.lam)
        gap_mat = 0.5 * (bundle.dmat + bundle.dmat.T)
        bits = _bit_matrix(ch.d)
        var_gaps = np.abs(np.einsum("si,ij,sj->s", bits, gap_mat, bits))
        q = mean_response(ch, p)
        err, _ = sup_subset_gap(bundle.qhat_col, q)
        bound = (30 * eps * math.sqrt(ch.d * math.log(math.e / eps) / k)
                 + 2 * math.sqrt(eps * var_gaps.max()))
        assert err <= 1.1 * bound


def _bit_matrix(d):
    masks = np.arange(1 << d, dtype=np.uint64)
    return ((masks[:, None] >> np.arange(d, dtype=np.uint64)[None, :]) & 1).astype(float)


class TestCovarianceLipschitz:
    def test_zero_shift(self, ch):
        q = mean_response(ch, make_prob_vector([0.2] * 5))
        rep = covariance_lipschitz_check(q, q, 10, ch.lam)
        assert rep.max_gap == 0.0
        assert rep.ok

    def test_coordinate_bump(self):
        ch = RapporChannel.create(4, 1.0)
        q = mean_response(ch, make_prob_vector([0.4, 0.3, 0.2, 0.1]))
        q2 = q.copy()
        q2[0] += 0.01
        k = 25
        rep = covariance_lipschitz_check(q, q2, k, ch.lam)
        assert rep.ok
        assert rep.max_gap <= 0.15 / k

    def test_random_shifts_never_violate(self):
        ch = RapporChannel.create(6, 0.8)
        gen = np.random.default_rng(23)
        q = mean_response(ch, make_prob_vector(gen.dirichlet(np.ones(6))))
        for _ in range(100):
            shift = gen.normal(0, 0.02, size=6)
            rep = covariance_lipschitz_check(q, q + shift, 40, ch.lam)
            assert rep.ok

    @pytest.mark.parametrize("d, d_shift", [(4, 1), (3, 5)], ids=["broadcast", "3-5"])
    def test_length_mismatch(self, d, d_shift):
        lam = RapporChannel.create(4, 1.0).lam
        with pytest.raises(LengthMismatch):
            covariance_lipschitz_check(np.full(d, 0.4), np.full(d_shift, 0.41), 20, lam)
