import itertools
import math

import numpy as np
import pytest

from ldprobust import (
    AttackSpec,
    BatchCollection,
    RapporChannel,
    RngSeed,
    attack_counts,
    contaminate,
    count_dtype,
    make_clean_collection,
    make_prob_vector,
    mean_response,
    sample_counts,
)
from ldprobust.adversary import LABEL_ADVERSARIAL
from ldprobust.lowerbound import hard_pair
from ldprobust.errors import (
    CountMismatch,
    DimensionMismatch,
    EmptyBatch,
    EpsOutOfRange,
    InvalidAttackParams,
)

from conftest import (
    attack_bits,
    batch_sums,
    chi2_quantile,
    count_law_stats,
    two_sample_chi2,
)


@pytest.fixture
def ch():
    return RapporChannel.create(5, 1.0)


@pytest.fixture
def p():
    return make_prob_vector([0.3, 0.25, 0.2, 0.15, 0.1])


class TestCleanCollection:
    def test_shapes_and_labels(self, ch, p):
        coll = make_clean_collection(ch, p, 7, 4, RngSeed(0))
        assert coll.counts.shape == (7, 5)
        assert coll.k == 4
        assert coll.adversarial_count() == 0

    def test_noiseless_point_mass(self):
        ch = RapporChannel.from_lambda(3, 0.0)
        p = make_prob_vector([1.0, 0.0, 0.0])
        coll = make_clean_collection(ch, p, 5, 3, RngSeed(1))
        assert np.all(coll.counts[:, 0] == 3)
        assert np.all(coll.counts[:, 1:] == 0)

    def test_grand_mean_matches_response(self, ch, p):
        # the grand mean averages n k iid Bernoulli(q_j) bits per coordinate;
        # allow 4.5 standard errors (about 0.003 here) per coordinate
        n, k = 10 ** 4, 50
        coll = make_clean_collection(ch, p, n, k, RngSeed(7))
        grand = coll.counts.sum(axis=0) / (n * k)
        q = mean_response(ch, p)
        se = np.sqrt(q * (1 - q) / (n * k))
        assert np.all(np.abs(grand - q) <= 4.5 * se)

    @pytest.mark.parametrize("n_prime, k", [(0, 3), (2, 0)])
    def test_rejects_empty_sizes(self, ch, p, n_prime, k):
        with pytest.raises(CountMismatch):
            make_clean_collection(ch, p, n_prime, k, RngSeed(0))

    def test_deterministic(self, ch, p):
        a = make_clean_collection(ch, p, 10, 5, RngSeed(3))
        b = make_clean_collection(ch, p, 10, 5, RngSeed(3))
        assert np.array_equal(a.counts, b.counts)


class TestAttackBatch:
    def test_all_zeros(self, ch):
        for k, dtype in ((4, np.uint8), (256, np.uint16)):
            counts = attack_counts(AttackSpec(kind="all_zeros"), ch, 3, k, RngSeed(0).generator())
            assert counts.shape == (3, 5) and counts.dtype == dtype
            assert not counts.any()

    def test_all_ones(self, ch):
        for k, dtype in ((2, np.uint8), (255, np.uint8), (256, np.uint16)):
            counts = attack_counts(AttackSpec(kind="all_ones"), ch, 3, k, RngSeed(0).generator())
            assert counts.shape == (3, 5) and counts.dtype == dtype
            assert np.all(counts == k)

    @pytest.mark.parametrize("k", [255, 256])
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("magnitude", [0.5, 1.0])
    def test_targeted_counts_stay_in_range_at_the_width_edges(self, ch, k, direction,
                                                              magnitude):
        # k = 255 is the largest uint8 batch: k - ones and the pushes must
        # not wrap around in the narrow width
        mask = np.array([True, False, True, False, False])
        spec = AttackSpec(kind="targeted_subset", mask=mask, direction=direction,
                          magnitude=magnitude)
        counts = attack_counts(spec, ch, 400, k, RngSeed(6, k).generator())
        assert counts.dtype == count_dtype(k)
        assert counts.min() >= 0 and counts.max() <= k
        if magnitude == 1.0:
            assert np.all(counts[:, mask] == (k if direction > 0 else 0))
        else:
            # half of each masked coordinate's room moves: the mean lands
            # near (k + ones) / 2 upward and ones / 2 downward
            ones = k * mean_response(ch, make_prob_vector(np.full(5, 0.2)))[0]
            target = (k + ones) / 2 if direction > 0 else ones / 2
            assert abs(counts[:, mask].mean() - target) < 0.05 * k

    def test_targeted_full_magnitude(self, ch):
        mask = np.array([True, True, False, False, False])
        spec = AttackSpec(kind="targeted_subset", mask=mask, direction=1, magnitude=1.0)
        counts = attack_counts(spec, ch, 50, 20, RngSeed(4).generator())
        assert np.all(counts[:, :2] == 20)

    def test_targeted_downward_partial(self, ch):
        mask = np.array([True, False, False, False, False])
        spec = AttackSpec(kind="targeted_subset", mask=mask, direction=-1,
                          magnitude=0.5)
        counts = attack_counts(spec, ch, 400, 10, RngSeed(5).generator())
        # half the hits force the coordinate to zero; the rest keep the
        # privatized uniform mean (1 - 2 lam)/d + lam
        base = (1 - 2 * ch.lam) / 5 + ch.lam
        assert abs(counts[:, 0].mean() / 10 - 0.5 * base) < 0.02

    def test_bad_params(self, ch):
        with pytest.raises(InvalidAttackParams):
            AttackSpec(kind="swap_distribution")
        with pytest.raises(InvalidAttackParams):
            AttackSpec(kind="nonsense")
        spec = AttackSpec(kind="targeted_subset", mask=np.array([True, False]))
        with pytest.raises(InvalidAttackParams):
            attack_counts(spec, ch, 2, 3, RngSeed(0).generator())
        with pytest.raises(InvalidAttackParams):
            attack_counts(AttackSpec(kind="all_ones"), ch, 2, 0, RngSeed(0).generator())
        with pytest.raises(InvalidAttackParams):
            attack_counts(AttackSpec(kind="all_ones"), ch, -1, 3, RngSeed(0).generator())

    @pytest.mark.parametrize("params", [
        dict(mask=None), dict(direction=0), dict(magnitude=1.5), dict(magnitude=-0.1),
    ], ids=["no-mask", "direction-zero", "magnitude-above-one", "magnitude-negative"])
    def test_bad_targeted_params(self, params):
        with pytest.raises(InvalidAttackParams):
            AttackSpec(kind="targeted_subset", **{"mask": np.ones(5, dtype=bool), **params})

    def test_swap_uniform_indistinguishable_from_clean(self, ch):
        d = 4
        ch4 = RapporChannel.create(d, 1.0)
        uniform = make_prob_vector([0.25] * d)
        n = 50_000
        spec = AttackSpec(kind="swap_distribution", q=uniform)
        adv = attack_counts(spec, ch4, n, 1, RngSeed(6).generator())
        # with k = 1 the count rows are the privatized bit vectors themselves
        clean = make_clean_collection(ch4, uniform, n, 1, RngSeed(7)).counts
        # compare the laws of the full bit patterns
        pow2 = 1 << np.arange(d)
        stat, dof = two_sample_chi2(adv @ pow2, clean @ pow2)
        assert stat < chi2_quantile(0.999, dof)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_targeted_magnitude_zero_keeps_uniform_counts(self, ch, direction):
        # magnitude 0 forces nothing: the counts are exactly the uniform
        # counts drawn from the same stream
        mask = np.array([False, True, True, False, True])
        spec = AttackSpec(kind="targeted_subset", mask=mask, direction=direction,
                          magnitude=0.0)
        counts = attack_counts(spec, ch, 200, 9, np.random.default_rng(8))
        uniform = make_prob_vector([0.2] * 5)
        ref = sample_counts(ch, uniform, 200, 9, np.random.default_rng(8))
        assert np.array_equal(counts, ref)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_targeted_magnitude_one_is_constant_on_mask(self, ch, direction):
        mask = np.array([True, False, True, False, False])
        spec = AttackSpec(kind="targeted_subset", mask=mask, direction=direction,
                          magnitude=1.0)
        counts = attack_counts(spec, ch, 300, 7, RngSeed(9).generator())
        assert np.all(counts[:, mask] == (7 if direction > 0 else 0))
        assert counts[:, ~mask].min() >= 0 and counts[:, ~mask].max() <= 7
        assert counts[:, ~mask].std() > 0


def _attack_specs(d, ch):
    mask = np.zeros(d, dtype=bool)
    mask[: max(1, d // 2)] = True
    q = make_prob_vector(np.random.default_rng(40 + d).dirichlet(np.ones(d)))
    specs = {
        "swap_distribution": AttackSpec(kind="swap_distribution", q=q),
        "targeted_up": AttackSpec(kind="targeted_subset", mask=mask, direction=1,
                                  magnitude=0.4),
        "targeted_down": AttackSpec(kind="targeted_subset", mask=mask, direction=-1,
                                    magnitude=0.7),
    }
    if d <= 16:
        pair = hard_pair(ch, eps=0.1, k=50)
        specs["hard_pair_swap"] = AttackSpec(kind="swap_distribution", q=pair.q)
    return specs


class TestAttackCountsLaw:
    """attack_counts against per-batch sums of the bit-level reference attack."""

    @pytest.mark.parametrize("d, k", [(3, 7), (5, 1), (5, 50), (16, 7)])
    def test_matches_bit_level_attack(self, d, k):
        ch = RapporChannel.create(d, 1.0)
        m = 20_000
        results = []
        for i, (name, spec) in enumerate(sorted(_attack_specs(d, ch).items())):
            direct = attack_counts(spec, ch, m, k, RngSeed(60 + d, i).generator())
            ref = batch_sums(attack_bits(spec, ch, m * k,
                                         np.random.default_rng([70 + d, k, i])), k)
            subset = np.arange(d) % 2 == 0
            results += [(name, *r) for r in count_law_stats(direct, ref, subset)]
        # Bonferroni: every statistic of the case below its 1 - 0.001/len level
        level = 1 - 1e-3 / len(results)
        worst = max(results, key=lambda r: r[2] / chi2_quantile(level, r[3]))
        assert worst[2] < chi2_quantile(level, worst[3]), worst

    def test_constant_attacks_exact(self, ch):
        for k in (1, 7, 50):
            ones = attack_counts(AttackSpec(kind="all_ones"), ch, 4, k, RngSeed(1).generator())
            zeros = attack_counts(AttackSpec(kind="all_zeros"), ch, 4, k, RngSeed(1).generator())
            assert np.array_equal(ones, np.full((4, 5), k))
            assert np.array_equal(zeros, np.zeros((4, 5)))
        empty = attack_counts(AttackSpec(kind="all_ones"), ch, 0, 3, RngSeed(1).generator())
        assert empty.shape == (0, 5)


class TestContaminate:
    def test_eps_zero_is_shuffle(self, ch, p):
        clean = make_clean_collection(ch, p, 10, 3, RngSeed(8))
        out = contaminate(clean, AttackSpec(kind="all_ones"), 0.0, 10, ch, RngSeed(9))
        assert out.n == 10
        assert out.adversarial_count() == 0
        key = lambda c: sorted(c.counts.tolist())
        assert key(out) == key(clean)

    def test_all_ones_count(self, ch, p):
        clean = make_clean_collection(ch, p, 18, 3, RngSeed(10))
        out = contaminate(clean, AttackSpec(kind="all_ones"), 0.1, 20, ch, RngSeed(11))
        assert out.n == 20
        assert out.adversarial_count() == 2
        adv = out.counts[out.truth == LABEL_ADVERSARIAL]
        assert np.all(adv == out.k)

    def test_good_batches_preserved(self, ch, p):
        clean = make_clean_collection(ch, p, 9, 4, RngSeed(12))
        out = contaminate(clean, AttackSpec(kind="all_zeros"), 0.1, 10, ch, RngSeed(13))
        good = out.counts[out.truth == 0]
        assert sorted(good.tolist()) == sorted(clean.counts.tolist())

    def test_count_mismatch(self, ch, p):
        clean = make_clean_collection(ch, p, 10, 3, RngSeed(14))
        with pytest.raises(CountMismatch):
            contaminate(clean, AttackSpec(kind="all_ones"), 0.1, 20, ch, RngSeed(15))

    def test_eps_out_of_range(self, ch, p):
        clean = make_clean_collection(ch, p, 10, 3, RngSeed(16))
        with pytest.raises(EpsOutOfRange):
            contaminate(clean, AttackSpec(kind="all_ones"), 0.3, 13, ch, RngSeed(17))

    def test_swap_attack_mean(self, ch, p):
        q_swap = make_prob_vector([0.1, 0.1, 0.1, 0.1, 0.6])
        clean = make_clean_collection(ch, p, 160, 50, RngSeed(18))
        out = contaminate(clean, AttackSpec(kind="swap_distribution", q=q_swap),
                          0.2, 200, ch, RngSeed(19))
        adv = out.counts[out.truth == LABEL_ADVERSARIAL]
        mean = adv.sum(axis=0) / (adv.shape[0] * out.k)
        assert np.abs(mean - mean_response(ch, q_swap)).max() < 0.02

    def test_shuffle_uniformity(self, ch, p):
        # 5 distinguishable batches, 10^4 shuffles: all 120 permutation
        # frequencies within 4 sigma of 1/120 at this fixed seed
        clean = make_clean_collection(ch, p, 5, 2, RngSeed(20))
        ranks = {tuple(clean.counts[i]): i for i in range(5)}
        assert len(ranks) == 5
        counts = {}
        for rep in range(10_000):
            out = contaminate(clean, AttackSpec(kind="all_ones"), 0.0, 5, ch,
                              RngSeed(21, rep))
            perm = tuple(ranks[tuple(out.counts[i])] for i in range(5))
            counts[perm] = counts.get(perm, 0) + 1
        freqs = np.array([counts.get(perm, 0) for perm in
                          itertools.permutations(range(5))]) / 10_000
        sigma = math.sqrt((1 / 120) * (1 - 1 / 120) / 10_000)
        assert np.abs(freqs - 1 / 120).max() <= 4 * sigma


class TestBatchCollection:
    def test_rejects_counts_outside_range(self):
        with pytest.raises(CountMismatch):
            BatchCollection(counts=np.array([[0, 4]]), k=3)
        with pytest.raises(CountMismatch):
            BatchCollection(counts=np.array([[-1, 0]]), k=3)
        with pytest.raises(DimensionMismatch):
            BatchCollection(counts=np.array([[0.5, 0.0]]), k=3)
        with pytest.raises(DimensionMismatch):
            BatchCollection(counts=np.zeros((2, 3, 4), dtype=np.int64), k=3)

    def test_rejects_truth_of_another_length(self):
        with pytest.raises(CountMismatch):
            BatchCollection(counts=np.zeros((2, 3), dtype=np.int64), k=3, truth=[0, 0, 1])

    def test_rejects_empty_batch(self):
        with pytest.raises(EmptyBatch):
            BatchCollection(counts=np.zeros((2, 3), dtype=np.int64), k=0)

    def test_counts_stored_at_narrowest_width(self):
        for k, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                         (65535, np.uint16), (65536, np.int64)):
            assert count_dtype(k) == dtype
            rows = np.array([[0, 1, k], [k, k - 1, 0]])
            for given in (rows, rows.astype(np.int32), rows.astype(dtype)):
                coll = BatchCollection(counts=given, k=k)
                assert coll.counts.dtype == dtype, k
                assert np.array_equal(coll.counts, rows)
                assert (coll.n, coll.d, coll.k) == (2, 3, k)
            # counts already at the width are stored without a copy
            narrow = rows.astype(dtype)
            assert BatchCollection(counts=narrow, k=k).counts is narrow
