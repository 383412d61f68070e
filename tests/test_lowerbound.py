import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ldprobust import (
    AttackSpec,
    EstimatorConfig,
    RapporChannel,
    RngSeed,
    contaminate,
    l1_dist,
    make_clean_collection,
    make_prob_vector,
    robust_estimate,
    tv_product_bound,
)
from ldprobust.errors import (
    AlphaOutOfRange,
    BadSigns,
    CertificateViolation,
    DimensionMismatch,
    DimensionTooLarge,
    EpsOutOfRange,
    InputError,
    ProductSpaceTooLarge,
)
from ldprobust import lowerbound as lowerbound_module
from ldprobust.estimator import DESK_TAU_THRESHOLD
from ldprobust.lowerbound import (
    EIGENVALUE_CAP,
    HardPair,
    MIN_QUAD_BUDGET,
    OmegaMatrix,
    QUAD_FORM_CONSTANT,
    U,
    assouad_chi2_check,
    assouad_family,
    assouad_l1,
    channel_chi2_exact,
    channel_output_dist,
    common_mixture,
    hard_pair,
    low_eigenspace_delta,
    omega_matrix,
)


def _enumerated_omega(ch):
    """Omega summed over all 2^d outputs: the reference for the closed form."""
    cond = lowerbound_module._conditional_outputs(ch)
    ratios = cond / cond[:, [0]] - 1.0
    return (ratios * cond[:, [0]]).T @ ratios


def _dense(om):
    """The d x d matrix a I + b 11^T off row and column 1 that om stands for."""
    matrix = np.zeros((om.d, om.d))
    matrix[1:, 1:] = om.a * np.eye(om.d - 1) + om.b
    return matrix


#: (eps, k) pairs of the certification grid, from a tiny budget to the l2 cap.
GRID_EPS_K = [(1e-6, 1), (0.05, 50), (0.3, 2), (0.49, 1), (0.1, 10 ** 4)]
GRID_ALPHAS = (1e-3, 0.01, 0.1, 0.5, 1.0)


class TestOmegaMatrix:
    def test_matches_enumeration(self):
        for d in range(3, 17):
            for alpha in (0.05, 0.5, 1.0, 2.0):
                ch = RapporChannel.create(d, alpha)
                ref = _enumerated_omega(ch)
                err = np.abs(_dense(omega_matrix(ch)) - ref).max() / np.abs(ref).max()
                assert err <= 1e-13, (d, alpha, err)

    def test_first_row_and_column_vanish(self):
        ch = RapporChannel.create(5, 1.0)
        ref = _enumerated_omega(ch)
        assert np.abs(ref[0, :]).max() == 0.0
        assert np.abs(ref[:, 0]).max() == 0.0
        # so the quadratic form ignores coordinate 1
        x = np.random.default_rng(0).standard_normal(5)
        om = omega_matrix(ch)
        assert om.quad(x) == om.quad(np.concatenate(([7.0], x[1:])))

    def test_symmetric_psd_trace(self):
        for d in (4, 8, 14):
            for alpha in (0.5, 1.0):
                ch = RapporChannel.create(d, alpha)
                matrix = _dense(omega_matrix(ch))
                assert np.abs(matrix - matrix.T).max() == 0.0
                assert np.linalg.eigvalsh(matrix).min() >= -1e-9
                assert np.trace(matrix) <= d * (math.e * alpha) ** 2 + 1e-9

    @pytest.mark.parametrize("d", [3, 16, 100, 4096])
    def test_quad_matches_dense_product(self, d):
        om = omega_matrix(RapporChannel.create(d, 0.7))
        gen = np.random.default_rng(d)
        matrix = _dense(om)
        for x in (gen.standard_normal(d), gen.random(d), np.ones(d)):
            ref = float(x @ matrix @ x)
            assert abs(om.quad(x) - ref) <= 1e-12 * ref

    def test_holds_no_dense_array(self):
        om = omega_matrix(RapporChannel.create(4096, 1.0))
        assert not any(isinstance(getattr(om, f.name), np.ndarray)
                       for f in dataclasses.fields(om))

    def test_low_eigencount_is_d(self):
        for d in range(3, 17):
            for alpha in (0.05, 0.3, 0.5, 1.0):
                assert omega_matrix(RapporChannel.create(d, alpha)).low_eigencount() == d

    @pytest.mark.parametrize("d, alpha", [(5, 1.0), (16, 2.0), (87, 1.0), (200, 0.5), (100, 2.0)])
    def test_low_eigencount_matches_eigvalsh(self, d, alpha):
        om = omega_matrix(RapporChannel.create(d, alpha))
        vals = np.linalg.eigvalsh(_dense(om))
        assert om.low_eigencount() == int((vals <= EIGENVALUE_CAP * alpha ** 2 + 1e-12).sum())


class TestLowEigenspaceDelta:
    def test_sum_zero_and_quad_cap(self):
        ch = RapporChannel.create(6, 1.0)
        om = omega_matrix(ch)
        delta = low_eigenspace_delta(om, 0.1, 50)
        assert abs(delta.sum()) <= 1e-12
        quad = om.quad(delta)
        assert quad <= QUAD_FORM_CONSTANT * 0.1 ** 2 / 50 * (1 + 1e-9)
        l2 = np.linalg.norm(delta)
        assert quad <= 2 * (math.e * om.alpha) ** 2 * l2 ** 2 + 1e-12

    @pytest.mark.parametrize("d", [3, 6, 7, 10, 15, 16])
    def test_l1_ratio_threshold(self, d):
        # the balanced vector's ratio is the largest any sum-zero vector has
        ch = RapporChannel.create(d, 1.0)
        delta = low_eigenspace_delta(omega_matrix(ch), 0.1, 100)
        ratio = np.abs(delta).sum() / np.linalg.norm(delta)
        best = math.sqrt(d) if d % 2 == 0 else math.sqrt((d * d - 1) / d)
        assert abs(ratio - best) <= 1e-12
        assert delta[0] < 0 and int((delta < 0).sum()) == d // 2

    def test_odd_d_puts_coordinate_1_in_the_smaller_group(self):
        om = omega_matrix(RapporChannel.create(7, 1.0))
        delta = low_eigenspace_delta(om, 0.1, 100)
        # the same vector with coordinate 1 in the larger group
        other = -delta[::-1]
        assert other[0] < 0 and int((other < 0).sum()) == 4
        assert om.quad(delta) < om.quad(other)

    def test_above_the_cap_coordinate_1_is_zero(self):
        # a + (d - 1) b exceeds the cap: the direction lives on coordinates 2..d
        om = omega_matrix(RapporChannel.create(100, 1.0))
        assert om.low_eigencount() == 99
        delta = low_eigenspace_delta(om, 0.1, 100)
        assert delta[0] == 0.0
        assert abs(math.fsum(delta)) <= 8 * U * np.abs(delta).sum()
        assert int((delta < 0).sum()) == 49 and int((delta > 0).sum()) == 50
        sq = math.fsum(delta * delta)
        assert abs(om.quad(delta) - om.a * sq) <= 1e-13 * om.a * sq
        assert om.quad(delta) <= QUAD_FORM_CONSTANT * 0.1 ** 2 / 100 * (1 + 1e-13)

    def test_eigenvalue_a_above_the_cap_raises(self):
        # no sum-zero direction is left once a itself exceeds the cap; no
        # channel's Omega does that, as alpha is at most 2
        om = OmegaMatrix(a=100.0, b=1.0, alpha=1.0, d=5)
        assert om.low_eigencount() == 1
        with pytest.raises(CertificateViolation, match="exceeds the cap"):
            low_eigenspace_delta(om, 0.1, 100)


class TestChi2Upper:
    @pytest.mark.parametrize("alpha", [1e-12, 1e-3, 0.5, 1.0, 2.0])
    def test_rounds_upward_by_a_few_units(self, alpha):
        gen = np.random.default_rng(3)
        for d in (3, 17, 500):
            ch = RapporChannel.create(d, alpha)
            delta = gen.standard_normal(d) * 10.0 ** gen.uniform(-12, 0)
            got = Fraction(lowerbound_module._chi2_upper(ch, delta))
            lam = Fraction(ch.lam)
            exact = ((1 - 2 * lam) / lam) ** 2 * sum(Fraction(x) ** 2 for x in delta)
            assert exact <= got <= exact * (1 + Fraction(32 * U))


class TestHardPair:
    def test_invariants_at_reference_parameters(self):
        ch = RapporChannel.create(8, 1.0)
        pair = hard_pair(ch, 0.1, 100)
        pair.validate()
        assert pair.q.weights.min() >= 0.0
        assert pair.tv_bound_k <= 0.1
        scale = 0.1 * math.sqrt(8) / math.sqrt(100)
        assert l1_dist(pair.p, pair.q) >= 0.2 * scale

    def test_chi2_dominated_by_quadratic_form(self):
        for d, k in ((4, 10), (6, 50), (8, 200)):
            ch = RapporChannel.create(d, 1.0)
            pair = hard_pair(ch, 0.1, k)
            assert pair.chi2_upper <= math.exp(1.0) * pair.quad_form

    def test_certifies_grid(self):
        # the exact chi-square lies in [e^-alpha chi2_upper, chi2_upper]; the
        # l2 cap binds at large eps / k and small alpha, where ||Delta||_1 is 1
        # in real arithmetic for even d.  (The exact sum takes 60 ms at d = 16.)
        for d in range(3, 15):
            for alpha in GRID_ALPHAS:
                ch = RapporChannel.create(d, alpha)
                for eps, k in GRID_EPS_K:
                    pair = hard_pair(ch, eps, k)
                    assert np.abs(pair.delta).sum() <= 1.0
                    assert 0.0 < pair.tv_bound_k <= eps
                    exact = channel_chi2_exact(ch, pair.p, pair.q)
                    assert math.exp(-alpha) * pair.chi2_upper <= exact <= pair.chi2_upper, \
                        (d, alpha, eps, k)

    @pytest.mark.parametrize("d", [17, 64, 87, 128])
    def test_certifies_above_the_enumeration_cap(self, d):
        for alpha in GRID_ALPHAS:
            for eps, k in GRID_EPS_K:
                pair = hard_pair(RapporChannel.create(d, alpha), eps, k)
                assert 0.0 < pair.tv_bound_k <= eps
                assert np.abs(pair.delta).sum() <= 1.0
        # a + (d - 1) b passes the cap at d = 87 for alpha = 1
        pair = hard_pair(RapporChannel.create(d, 1.0), 0.1, 100)
        assert (pair.p.weights[0] == 0.0) == (d >= 87)

    def test_does_not_enumerate(self, monkeypatch):
        def enumerate_outputs(ch):
            raise AssertionError("enumerated the 2^d outputs")

        monkeypatch.setattr(lowerbound_module, "_conditional_outputs", enumerate_outputs)
        hard_pair(RapporChannel.create(5, 1.0), 0.05, 50)
        assouad_chi2_check(assouad_family(6, 400, 1.0, 0.1), RapporChannel.create(6, 1.0))

    @pytest.mark.parametrize("d", [3, 8, 100])
    @pytest.mark.parametrize("eps, k", [(0.1, 100), ("floor", 1), ("floor", 8)],
                             ids=["reference", "floor-k1", "floor-k8"])
    def test_certifies_at_alpha_1e_12(self, d, eps, k):
        # the lemma chi^2 <= e^alpha quad has a slack of about alpha / 2 = 5e-13
        if eps == "floor":
            eps = 1.01 * math.sqrt(MIN_QUAD_BUDGET * k / QUAD_FORM_CONSTANT)
        pair = hard_pair(RapporChannel.create(d, 1e-12), eps, k)
        assert 0.0 < pair.chi2_upper <= math.exp(1e-12) * pair.quad_form
        assert pair.tv_bound_k <= eps

    @pytest.mark.parametrize("eps, k, field, value, message", [
        (0.1, 50, "delta", lambda pair: pair.delta + 1e-6, "sum-zero"),
        (0.1, 50, "q", lambda pair: pair.p, "p - delta"),
        (0.1, 50, "quad_form", lambda pair: 10.0 * pair.quad_form, "quadratic form"),
        (0.1, 50, "chi2_upper", lambda pair: 1.0, "chi-square"),
        (0.1, 50, "tv_bound_k", lambda pair: 1.0, "TV bound"),
        # quad 1.35e-19 and max |Delta| 2.7e-10: absolute slacks let these through
        (1e-9, 1, "delta", lambda pair: pair.delta + 1e-3 * pair.delta.max(), "sum-zero"),
        (1e-9, 1, "q", lambda pair: pair.p, "p - delta"),
        (1e-9, 1, "quad_form", lambda pair: 1.001 * pair.quad_form, "quadratic form"),
        (1e-9, 1, "chi2_upper", lambda pair: 1000.0 * pair.chi2_upper, "chi-square"),
    ], ids=["delta", "q", "quad-form", "chi2", "tv-bound", "small-budget-delta",
            "small-budget-q", "small-budget-quad-form", "small-budget-chi2"])
    def test_broken_pair_raises_certificate_violation(self, eps, k, field, value, message):
        pair = hard_pair(RapporChannel.create(6, 1.0), eps, k)
        broken = dataclasses.replace(pair, **{field: value(pair)})
        with pytest.raises(CertificateViolation, match=message) as exc:
            broken.validate()
        assert not isinstance(exc.value, (InputError, ValueError))

    @pytest.mark.parametrize("scale, message", [(-1.0, "not PSD"), (1000.0, "trace")],
                             ids=["not-psd", "trace"])
    def test_broken_information_matrix_raises_certificate_violation(self, monkeypatch,
                                                                    scale, message):
        coefficients = lowerbound_module._omega_coefficients
        monkeypatch.setattr(lowerbound_module, "_omega_coefficients",
                            lambda ch: tuple(scale * c for c in coefficients(ch)))
        with pytest.raises(CertificateViolation, match=message):
            omega_matrix(RapporChannel.create(5, 1.0))

    def test_rejects_large_alpha(self):
        ch = RapporChannel.create(5, 1.5)
        with pytest.raises(AlphaOutOfRange):
            hard_pair(ch, 0.1, 10)

    def test_rejects_bad_eps(self):
        ch = RapporChannel.create(5, 1.0)
        with pytest.raises(EpsOutOfRange):
            hard_pair(ch, 0.6, 10)

    @pytest.mark.parametrize("eps, k", [(1e-232, 100), (1e-162, 1), (1e-20, 1), (1e-12, 10 ** 6)],
                             ids=["underflow", "square-underflows", "below-rounding", "large-k"])
    def test_rejects_eps_whose_budget_is_below_rounding(self, eps, k):
        # Delta would be 0 (p = NaN) or below the rounding of p: an input error
        with pytest.raises(EpsOutOfRange, match="too small"):
            hard_pair(RapporChannel.create(6, 1.0), eps, k)

    @pytest.mark.parametrize("d, k", [(3, 1), (5, 2), (6, 8)])
    def test_certifies_just_above_the_budget_floor(self, d, k):
        eps = 1.01 * math.sqrt(MIN_QUAD_BUDGET * k / QUAD_FORM_CONSTANT)
        pair = hard_pair(RapporChannel.create(d, 0.5), eps, k)
        assert 0.0 < pair.tv_bound_k <= eps

    def test_indistinguishability_manifests(self):
        # estimating from contaminated swaps, some truth must suffer error
        # at least a quarter of the pair separation
        ch = RapporChannel.create(4, 1.0)
        pair = hard_pair(ch, 0.2, 2)
        sep = l1_dist(pair.p, pair.q)
        cfg = EstimatorConfig(eps=0.2, tau_threshold=DESK_TAU_THRESHOLD)
        worst = []
        for s in range(5):
            rng = RngSeed(800 + s)
            errs = []
            for truth, other in ((pair.p, pair.q), (pair.q, pair.p)):
                clean = make_clean_collection(ch, truth, 3200, 2, rng.child(1))
                coll = contaminate(clean, AttackSpec(kind="swap_distribution", q=other),
                                   0.2, 4000, ch, rng.child(2))
                res = robust_estimate(coll, cfg, ch, rng.child(3))
                errs.append(l1_dist(res.phat_normalized, truth))
            worst.append(max(errs))
        assert np.mean(worst) >= 0.25 * sep


class TestCommonMixture:
    def test_identities_and_nonnegativity(self):
        ch = RapporChannel.create(3, 1.0)
        pair = hard_pair(ch, 0.1, 2)
        mix = common_mixture(pair, ch, 2)
        a, n_p, n_q = mix.mixture, mix.n_p, mix.n_q
        assert len(a.outcomes) == 64
        sp = channel_output_dist(ch, pair.p)
        sq = channel_output_dist(ch, pair.q)
        prod_p = np.kron(sp, sp)
        prod_q = np.kron(sq, sq)
        res_p = np.abs((1 - 0.1) * prod_p + 0.1 * n_p.masses - a.masses).max()
        res_q = np.abs((1 - 0.1) * prod_q + 0.1 * n_q.masses - a.masses).max()
        assert res_p <= 1e-12 and res_q <= 1e-12
        # the residuals it reports equal the ones recomputed here
        assert (mix.residual_p, mix.residual_q) == (res_p, res_q)
        assert n_p.masses.min() >= -1e-12
        assert n_q.masses.min() >= -1e-12
        assert abs(a.masses.sum() - 1) <= 1e-10

    def test_degenerate_equal_pair(self):
        ch = RapporChannel.create(3, 1.0)
        p = make_prob_vector([0.5, 0.3, 0.2])
        pair = HardPair(p=p, q=p, delta=np.zeros(3), chi2_upper=0.0,
                        quad_form=0.0, tv_bound_k=0.0, eps=0.1, k=2, alpha=1.0)
        mix = common_mixture(pair, ch, 2)
        a, n_p, n_q = mix.mixture, mix.n_p, mix.n_q
        prod = np.kron(channel_output_dist(ch, p), channel_output_dist(ch, p))
        assert np.abs(a.masses - prod).max() <= 1e-15
        assert np.abs(n_p.masses - a.masses).max() <= 1e-12
        assert np.abs(n_q.masses - a.masses).max() <= 1e-12

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    @pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (3, 3)])
    def test_small_eps_matches_exact_arithmetic(self, d, k, eps):
        # (A - (1-eps) Qp^k) / eps cancels away the masses at small eps; the
        # components must still sum to one and match rational arithmetic
        ch = RapporChannel.create(d, 1.0)
        pair = hard_pair(ch, eps, k)
        mix = common_mixture(pair, ch, k)
        assert mix.residual_p <= 1e-12 and mix.residual_q <= 1e-12
        cond = np.vectorize(Fraction, otypes=[object])(lowerbound_module._conditional_outputs(ch))
        laws = []
        for w in (pair.p.weights, pair.q.weights):
            single = cond @ np.array([Fraction(x) for x in w], dtype=object)
            law = single = single / sum(single)
            for _ in range(k - 1):
                law = np.kron(law, single)
            laws.append(law)
        law_p, law_q = laws
        up = np.array([max(x, Fraction(0)) for x in law_q - law_p], dtype=object)
        e = Fraction(eps)
        a = (law_p + up) / (1 + sum(up))
        for got, law in ((mix.n_p.masses, law_p), (mix.n_q.masses, law_q)):
            exact = (a - (1 - e) * law) / e
            assert sum(exact) == 1
            assert np.abs(got - exact.astype(float)).max() <= 1e-9 * float(max(exact))

    def test_enumeration_capped_at_max_exact_d(self):
        # what still sums over the 2^d outputs keeps its cap
        ch = RapporChannel.create(17, 1.0)
        pair = hard_pair(ch, 0.1, 1)
        for call in (lambda: channel_output_dist(ch, pair.p),
                     lambda: channel_chi2_exact(ch, pair.p, pair.q),
                     lambda: common_mixture(pair, ch, 1)):
            with pytest.raises(DimensionTooLarge):
                call()

    def test_product_space_guard(self):
        ch = RapporChannel.create(8, 1.0)
        pair = hard_pair(ch, 0.1, 100)
        with pytest.raises(ProductSpaceTooLarge):
            common_mixture(pair, ch, 100)


class TestAssouadFamily:
    def test_member_count_and_middle_coordinate(self):
        fam = assouad_family(7, 100, 1.0, 0.2)
        assert fam.size == 2 ** 3
        member = fam.member([1, -1, 1])
        assert member.weights[3] == 1.0 / 7

    def test_members_sum_to_one(self):
        fam = assouad_family(6, 400, 1.0, 0.1)
        gen = np.random.default_rng(0)
        for _ in range(20):
            signs = gen.choice([-1, 1], size=3)
            assert abs(fam.member(signs).weights.sum() - 1.0) <= 1e-12

    def test_l1_hamming_identity_exact(self):
        fam = assouad_family(9, 250, 1.0, 0.15)
        gen = np.random.default_rng(1)
        for _ in range(100):
            s1 = gen.choice([-1, 1], size=fam.half)
            s2 = gen.choice([-1, 1], size=fam.half)
            measured, exact = assouad_l1(fam, s1, s2)
            assert measured == exact

    def test_single_flip_distance(self):
        fam = assouad_family(6, 400, 1.0, 0.1)
        measured, exact = assouad_l1(fam, [1, 1, 1], [1, -1, 1])
        assert measured == exact == 4.0 * fam.gamma

    def test_bad_signs(self):
        fam = assouad_family(6, 400, 1.0, 0.1)
        with pytest.raises(BadSigns):
            fam.member([1, 1])
        with pytest.raises(BadSigns):
            fam.member([1, 2, 1])


class TestAssouadChi2:
    def test_gamma_to_zero_kills_chi2(self):
        ch = RapporChannel.create(6, 1.0)
        big = assouad_chi2_check(assouad_family(6, 400, 1.0, 0.1), ch)
        small = assouad_chi2_check(assouad_family(6, 400 * 10 ** 4, 1.0, 0.1), ch)
        assert small.chi2_upper < big.chi2_upper / 10 ** 3

    def test_reference_envelope(self):
        ch = RapporChannel.create(6, 1.0)
        fam = assouad_family(6, 400, 1.0, 0.1)
        rep = assouad_chi2_check(fam, ch)
        assert rep.chi2_upper <= 50.0 * (1.0 * fam.gamma) ** 2
        assert rep.tv_bound_n == tv_product_bound(rep.chi2_upper, 400)

    def test_directional_symmetry(self):
        # one scalar serves both directions: the exact chi-square of each
        # neighbour pair is nearly symmetric and within the bound both ways
        ch = RapporChannel.create(6, 1.0)
        fam = assouad_family(6, 400, 1.0, 0.1)
        rep = assouad_chi2_check(fam, ch)
        base = fam.member([1, 1, 1])
        for j in range(fam.half):
            signs = np.ones(fam.half, dtype=np.int64)
            signs[j] = -1
            other = fam.member(signs)
            forward = channel_chi2_exact(ch, base, other)
            backward = channel_chi2_exact(ch, other, base)
            assert abs(forward - backward) <= 0.1 * max(forward, backward)
            assert max(forward, backward) <= rep.chi2_upper

    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_each_pair_within_the_bracket_of_channel_chi2_exact(self, d):
        for alpha in GRID_ALPHAS:
            ch = RapporChannel.create(d, alpha)
            for n in (400, 10 ** 6):
                fam = assouad_family(d, n, alpha, 0.1)
                rep = assouad_chi2_check(fam, ch)
                base = fam.member(np.ones(fam.half, dtype=np.int64))
                for j in range(fam.half):
                    signs = np.ones(fam.half, dtype=np.int64)
                    signs[j] = -1
                    other = fam.member(signs)
                    for exact in (channel_chi2_exact(ch, base, other),
                                  channel_chi2_exact(ch, other, base)):
                        assert math.exp(-alpha) * rep.chi2_upper <= exact <= rep.chi2_upper

    @pytest.mark.parametrize("d", [6, 64, 4096])
    def test_closed_form_at_any_d(self, d):
        ch = RapporChannel.create(d, 1.0)
        fam = assouad_family(d, 400, 1.0, 0.1)
        rep = assouad_chi2_check(fam, ch)
        gap = Fraction(1) - 2 * Fraction(ch.lam)
        exact = (gap / Fraction(ch.lam)) ** 2 * 8 * Fraction(fam.gamma) ** 2
        assert exact <= Fraction(rep.chi2_upper) <= exact * (1 + Fraction(32 * U))
        assert rep.envelope_constant == rep.chi2_upper / fam.gamma ** 2

    def test_channel_of_other_d_is_a_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assouad_chi2_check(assouad_family(6, 400, 1.0, 0.1), RapporChannel.create(4, 1.0))
