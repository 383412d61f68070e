import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldprobust import (
    RngSeed,
    dual_upper_bound,
    gram_maximize,
    indicator_embedding,
    sandwich_check,
    subset_bilinear_max,
)
from ldprobust.errors import (
    DimensionTooLarge,
    InvalidGramSolution,
    LengthMismatch,
    NotSymmetric,
)
from ldprobust import gram as gram_module
from ldprobust.gram import GAP_TOL, GramSolution

from conftest import brute_force_bilinear


def random_symmetric(d, seed):
    gen = np.random.default_rng(seed)
    raw = gen.standard_normal((d, d))
    return 0.5 * (raw + raw.T)


class TestSubsetBilinearMax:
    def test_zero_matrix(self):
        val, s, sp = subset_bilinear_max(np.zeros((4, 4)))
        assert val == 0.0
        assert not s.any() and not sp.any()

    def test_identity(self):
        val, s, sp = subset_bilinear_max(np.eye(3))
        assert val == 3.0
        assert s.all() and sp.all()

    def test_indicator_outer_product(self):
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        val, s, sp = subset_bilinear_max(np.outer(mask, mask))
        assert val == 4.0
        assert s.tolist() == [True, True, False, False]
        assert sp.tolist() == s.tolist()

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_pair_enumeration(self, d):
        for seed in range(5):
            A = random_symmetric(d, 100 * d + seed)
            val, s, sp = subset_bilinear_max(A)
            assert val == pytest.approx(brute_force_bilinear(A), abs=1e-12)
            attained = abs(A[np.ix_(s, sp)].sum())
            assert attained == pytest.approx(val, abs=1e-12)

    def test_rejects_large_d(self):
        with pytest.raises(DimensionTooLarge):
            subset_bilinear_max(np.eye(23))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            subset_bilinear_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGramMaximize:
    def test_zero_matrix(self):
        sol = gram_maximize(np.zeros((4, 4)), rng=RngSeed(0))
        assert abs(sol.value) < 1e-9

    def test_rank_one_psd_closed_form(self):
        a = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
        sol = gram_maximize(np.outer(a, a), rng=RngSeed(1))
        expected = np.abs(a).sum() ** 2
        assert sol.value == pytest.approx(expected, rel=1e-9)

    def test_identity_optimum(self):
        for d in (3, 6, 8):
            sol = gram_maximize(np.eye(d), rng=RngSeed(2))
            assert sol.value == pytest.approx(d, rel=1e-9)

    def test_negative_identity_optimum(self):
        # factors u_i = -v_i achieve <M, -cI> = c * d
        sol = gram_maximize(-0.7 * np.eye(5), rng=RngSeed(3))
        assert sol.value == pytest.approx(3.5, rel=1e-9)

    def test_monotone_history(self, monkeypatch):
        monkeypatch.setattr(gram_module, "MAX_RESTARTS", 1)
        A = random_symmetric(8, 7)
        sol = gram_maximize(A, rng=RngSeed(4))
        hist = np.asarray(sol.history)
        assert np.all(np.diff(hist) >= -1e-12)

    def test_feasibility(self):
        A = random_symmetric(6, 9)
        sol = gram_maximize(A, rng=RngSeed(5))
        sol.validate(A)
        assert np.abs(np.linalg.norm(sol.u_factors, axis=1) - 1).max() < 1e-10
        assert abs(sol.recompute_value(A) - sol.value) < 1e-9
        assert np.abs(sol.matrix()).max() <= 1 + 1e-10

    @pytest.mark.parametrize("d", [3, 4, 12, 64])
    def test_default_rank_exceeds_barvinok_pataki(self, d):
        sol = gram_maximize(random_symmetric(d, d), rng=RngSeed(0))
        assert sol.rank == math.ceil(2 * math.sqrt(d)) + 1
        # r (r + 1) / 2 > 2d: the rank is above the bound for 2d constraints
        assert sol.rank * (sol.rank + 1) // 2 > 2 * d

    def test_validate_rejects_broken_solutions(self):
        A = random_symmetric(6, 9)
        sol = gram_maximize(A, rng=RngSeed(5))
        broken = [
            GramSolution(2 * sol.u_factors, sol.v_factors, sol.value,
                         sol.upper_bound, sol.restarts_used),
            GramSolution(sol.u_factors, sol.v_factors, sol.value,
                         sol.value - 1e-3, sol.restarts_used),
            GramSolution(sol.u_factors, sol.v_factors, sol.value + 1e-3,
                         sol.upper_bound + 1e-3, sol.restarts_used),
        ]
        for bad in broken:
            with pytest.raises(InvalidGramSolution):
                bad.validate(A)

    def test_deterministic(self):
        A = random_symmetric(7, 11)
        a = gram_maximize(A, rng=RngSeed(6))
        b = gram_maximize(A, rng=RngSeed(6))
        assert a.value == b.value
        assert np.array_equal(a.u_factors, b.u_factors)


def random_factors(d, rank, gen):
    U = gen.standard_normal((d, rank))
    V = gen.standard_normal((d, rank))
    return (U / np.linalg.norm(U, axis=1, keepdims=True),
            V / np.linalg.norm(V, axis=1, keepdims=True))


class TestDualCertificate:
    def test_weak_duality_random_factors(self):
        # every certificate bounds every feasible point, whatever factors it came from
        gen = np.random.default_rng(21)
        for i in range(200):
            d = int(gen.integers(3, 10))
            A = random_symmetric(d, 5000 + i)
            sol = gram_maximize(A, rng=RngSeed(i))
            U, V = random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            U2, V2 = random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            value = float(np.sum((U @ V.T) * A))
            slack = 1e-12 * np.linalg.norm(A)
            assert sol.upper_bound >= value - slack
            assert dual_upper_bound(A, U2, V2) >= value - slack
            assert dual_upper_bound(A, U, V) >= sol.value - slack

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(3, 10), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_upper_bound_above_subset_max(self, d, seed, scale):
        A = scale * random_symmetric(d, seed)
        sol = gram_maximize(A, rng=RngSeed(seed))
        subset, _, _ = subset_bilinear_max(A)
        # rounding: the bound and the oracle agree to the last bits when the relaxation is tight
        slack = 1e-12 * np.linalg.norm(A)
        assert sol.upper_bound >= subset - slack
        assert sol.upper_bound >= sol.value - slack
        assert sol.restarts_used <= 16

    @pytest.mark.parametrize("A", [
        np.zeros((4, 4)),
        np.eye(6),
        -0.7 * np.eye(5),
        np.outer([1.0, -1.0, 1.0], [1.0, -1.0, 1.0]) / 3.0,
        np.outer([0.5, 2.0, -1.0, 0.25], [0.5, 2.0, -1.0, 0.25]),
    ], ids=["zero", "identity", "negative-identity", "rank-one", "rank-one-uneven"])
    def test_gap_closes_on_closed_form_optima(self, A):
        sol = gram_maximize(A, rng=RngSeed(8))
        assert abs(sol.gap) <= 1e-9 * max(abs(sol.upper_bound), 1.0)
        assert abs(sol.relative_gap) <= 1e-9
        assert sol.restarts_used == 1

    def test_restarts_capped(self, monkeypatch):
        # one sweep per start never certifies, so every start runs
        for seed in range(5):
            A = random_symmetric(12, 40 + seed)
            with monkeypatch.context() as m:
                m.setattr(gram_module, "MAX_RESTARTS", 3)
                m.setattr(gram_module, "MAX_SWEEPS", 1)
                sol = gram_maximize(A, rng=RngSeed(seed))
            assert sol.restarts_used == 3
            assert sol.relative_gap > GAP_TOL
            sol.validate(A)
            certified = gram_maximize(A, rng=RngSeed(seed))
            assert 1 <= certified.restarts_used <= 16
            assert certified.relative_gap <= GAP_TOL or certified.restarts_used == 16
            assert certified.upper_bound >= certified.value


class TestIndicatorEmbedding:
    def test_exact_equality_random_pairs(self):
        gen = np.random.default_rng(13)
        for _ in range(50):
            d = int(gen.integers(3, 10))
            s = gen.random(d) < 0.5
            sp = gen.random(d) < 0.5
            U, V = indicator_embedding(s, sp)
            A = random_symmetric(d, int(gen.integers(10 ** 6)))
            M = U @ V.T
            target = np.outer(s.astype(float), sp.astype(float))
            assert np.array_equal(M, target)
            assert np.sum(M * A) == np.sum(target * A)

    def test_rejects_mismatched_masks(self):
        with pytest.raises(LengthMismatch):
            indicator_embedding([True, False, True], [True, False])

    def test_factors_are_feasible(self):
        U, V = indicator_embedding([True, False, True], [False, False, True])
        sol = GramSolution(u_factors=U, v_factors=V, value=0.0, upper_bound=0.0,
                           restarts_used=0)
        assert np.abs(np.linalg.norm(U, axis=1) - 1).max() == 0.0
        assert np.abs(sol.matrix()).max() <= 1.0


class TestSandwich:
    def test_zero(self):
        rep = sandwich_check(np.zeros((3, 3)), rng=RngSeed(0))
        assert rep.subset_value == 0.0
        assert abs(rep.gram_value) < 1e-9

    def test_identity_d8(self):
        rep = sandwich_check(np.eye(8), rng=RngSeed(1))
        assert rep.subset_value == 8.0
        assert rep.gram_value == pytest.approx(8.0, rel=1e-8)
        assert rep.gram_upper == pytest.approx(8.0, rel=1e-9)
        assert rep.ok

    def test_upper_side_checks_certified_bound(self):
        A = random_symmetric(6, 17)
        sol = gram_maximize(A, rng=RngSeed(3))
        rep = sandwich_check(A, sol=sol)
        tol = 1e-6 * np.linalg.norm(A)
        assert rep.gram_upper == sol.upper_bound >= rep.gram_value
        assert rep.upper_margin == 8.0 * rep.subset_value + tol - sol.upper_bound
        # an uncertified value alone no longer passes the upper side
        loose = GramSolution(sol.u_factors, sol.v_factors, sol.value,
                             9.0 * rep.subset_value, sol.restarts_used)
        assert not sandwich_check(A, sol=loose).upper_ok

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_random_instances(self, d):
        rng = RngSeed(97)
        for i in range(60):
            A = random_symmetric(d, 1000 * d + i)
            rep = sandwich_check(A, rng=rng.child(d, i))
            assert rep.ok, (d, i, rep)
