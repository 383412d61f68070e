import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldprobust
from ldprobust import (
    RapporChannel,
    RngSeed,
    dual_upper_bound,
    gram_maximize,
    robust_estimate,
    sandwich_check,
    subset_bilinear_max,
)
from ldprobust.errors import (
    DimensionTooLarge,
    InvalidArgument,
    InvalidGramSolution,
    NotSymmetric,
)
from ldprobust import estimator as estimator_module
from ldprobust import gram as gram_module
from ldprobust.gram import GAP_TOL, GramSolution
from ldprobust.harness import TrialCell, build_collection, resolve_attack, sample_p

from conftest import bit_matrix_subset_bilinear_max, brute_force_bilinear


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

    # d = 15 and 16 span more than one block of the 2^14-column table
    @pytest.mark.parametrize("d", range(1, 17))
    def test_integer_matrices_match_bit_matrix_reference_bitwise(self, d):
        # every partial sum is an exact integer, so value, masks and ties agree
        gen = np.random.default_rng(700 + d)
        for high in (1, 4):
            raw = gen.integers(-high, high + 1, (d, d))
            A = (raw + raw.T).astype(np.float64)
            val, s, sp = subset_bilinear_max(A)
            ref_val, ref_s, ref_sp = bit_matrix_subset_bilinear_max(A)
            assert val == ref_val
            assert np.array_equal(s, ref_s) and np.array_equal(sp, ref_sp)
            assert abs(A[np.ix_(s, sp)].sum()) == val

    @pytest.mark.parametrize("d", range(1, 17))
    def test_gaussian_matrices_match_bit_matrix_reference(self, d):
        # both sum at most d terms per entry of W and reduce d entries
        gen = np.random.default_rng(800 + d)
        for _ in range(2):
            raw = gen.standard_normal((d, d))
            A = 0.5 * (raw + raw.T)
            tol = (d + 2) * np.finfo(np.float64).eps / 2 * np.abs(A).sum()
            val, s, sp = subset_bilinear_max(A)
            assert abs(val - bit_matrix_subset_bilinear_max(A)[0]) <= tol
            assert abs(abs(A[np.ix_(s, sp)].sum()) - val) <= tol

    def test_rejects_large_d(self):
        with pytest.raises(DimensionTooLarge):
            subset_bilinear_max(np.eye(23))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            subset_bilinear_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("solve", [
    subset_bilinear_max,
    gram_maximize,
    lambda A: dual_upper_bound(A, np.eye(len(A), 3), np.eye(len(A), 3)),
    sandwich_check,
], ids=["subset_bilinear_max", "gram_maximize", "dual_upper_bound", "sandwich_check"])
@pytest.mark.parametrize("A", [
    [[math.nan]],
    [[math.inf]],
    [[1.0, -math.inf], [-math.inf, 1.0]],
    [[0.0, math.nan, 1.0], [math.nan, 0.0, 1.0], [1.0, 1.0, 0.0]],
    [[1e301, 0.0], [0.0, 1e301]],
], ids=["nan", "inf", "symmetric-minus-inf", "symmetric-nan", "sum-above-2^1000"])
def test_non_finite_or_huge_matrix_raises_invalid_argument(solve, A):
    # the last case is finite, but its Gram value and subset sums come near overflow
    with pytest.raises(InvalidArgument):
        solve(np.array(A))


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

    @pytest.mark.parametrize("scale", [1e300, 1e154, 1e-154, 1e-300])
    def test_extreme_scales_certify(self, scale):
        # with v_j optimal the value is ||u_1 + 2 u_2|| + ||2 u_1 - u_2||, at
        # most sqrt(5 + 4c) + sqrt(5 - 4c) for c = <u_1, u_2>: sqrt(20) at c = 0
        A = scale * np.array([[1.0, 2.0], [2.0, -1.0]])
        sol = gram_maximize(A, rng=RngSeed(0))
        assert abs(sol.value / scale - math.sqrt(20.0)) <= GAP_TOL * math.sqrt(20.0)
        assert sol.upper_bound / scale >= math.sqrt(20.0) * (1.0 - 1e-14)
        assert sol.relative_gap <= GAP_TOL
        sol.validate(A)

    def test_power_of_two_rescaling_is_exact(self):
        # outside the band, A 2^k is solved as the matrix with its largest
        # entry in [1/2, 1), which is A itself here
        A = random_symmetric(6, 31)
        A = np.ldexp(A, -math.frexp(float(np.abs(A).max()))[1])
        base = gram_maximize(A, rng=RngSeed(9))
        for k in (-1000, -300, 300, 900):
            sol = gram_maximize(np.ldexp(A, k), rng=RngSeed(9))
            assert sol.value == math.ldexp(base.value, k)
            assert sol.upper_bound == math.ldexp(base.upper_bound, k)
            assert sol.history == [math.ldexp(h, k) for h in base.history]
            assert np.array_equal(sol.u_factors, base.u_factors)
            assert sol.certified_by == base.certified_by

    def test_deterministic(self):
        A = random_symmetric(7, 11)
        a = gram_maximize(A, rng=RngSeed(6))
        b = gram_maximize(A, rng=RngSeed(6))
        assert a.value == b.value
        assert np.array_equal(a.u_factors, b.u_factors)


def _reference_normalize_rows(G, fallback):
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    nz = norms > 0.0
    if nz.all():
        return G / norms[:, None]
    out = fallback.copy()
    out[nz] = G[nz] / norms[nz, None]
    return out


def _reference_gram_maximize(A, rng=None):
    """gram_maximize with a fresh A @ V, a zero-norm test and a fresh quotient
    at every half sweep: the oracle the buffered sweeps match bit for bit."""
    A = gram_module.check_symmetric(A)
    d = A.shape[0]
    amax = float(np.abs(A).max())
    scale = 0
    if amax > 0.0 and not gram_module._SAFE_SCALE[0] <= amax <= gram_module._SAFE_SCALE[1]:
        scale = math.frexp(amax)[1]
        A = np.ldexp(A, -scale)
    rank = math.ceil(2.0 * math.sqrt(d)) + 1
    if rng is None:
        rng = RngSeed(0)
    normalize_rows = _reference_normalize_rows

    best = None
    upper = math.inf
    certified_by = "eigvalsh"
    fallback = np.tile(gram_module._e(rank, 0), (d, 1))
    for r in range(gram_module.MAX_RESTARTS):
        gen = rng.generator(r)
        U = normalize_rows(gen.standard_normal((d, rank)), fallback)
        V = normalize_rows(gen.standard_normal((d, rank)), fallback)
        AV = A @ V
        value = float(np.vdot(U, AV))
        history = [value]
        for _ in range(gram_module.MAX_SWEEPS):
            U = normalize_rows(AV, U)
            history.append(float(np.vdot(U, AV)))
            AU = A @ U
            V = normalize_rows(AU, V)
            new_value = float(np.vdot(V, AU))
            history.append(new_value)
            converged = new_value - value <= gram_module.SWEEP_TOL * max(1.0, abs(new_value))
            value = new_value
            if converged:
                break
            AV = A @ V
        if best is None or value > best[0]:
            best = (value, U, V, history)
            AV = A @ V
            y = gram_module._dual_vector(U, V, AU, AV)
            bound, path = gram_module._cholesky_bound(A, y, value, AV), "cholesky"
            if bound is None:
                bound, path = gram_module._eigvalsh_bound(A, y), "eigvalsh"
            if bound < upper:
                upper, certified_by = bound, path
        if gram_module._relative_gap(best[0], upper) <= GAP_TOL:
            break
    value, U, V, history = best
    upper = max(upper, value)
    if scale:
        value = math.ldexp(value, scale)
        history = [math.ldexp(h, scale) for h in history]
        scaled = math.ldexp(upper, scale)
        upper = scaled if math.ldexp(scaled, -scale) >= upper else math.nextafter(scaled, math.inf)
    return GramSolution(u_factors=U, v_factors=V, value=value, upper_bound=upper,
                        restarts_used=r + 1, certified_by=certified_by, history=history)


def _solution_bits(sol):
    """Every GramSolution field as bytes, so that -0.0 and NaN payloads count."""
    return {
        "u_factors": (sol.u_factors.shape, sol.u_factors.dtype, sol.u_factors.tobytes()),
        "v_factors": (sol.v_factors.shape, sol.v_factors.dtype, sol.v_factors.tobytes()),
        "value": np.float64(sol.value).tobytes(),
        "upper_bound": np.float64(sol.upper_bound).tobytes(),
        "restarts_used": sol.restarts_used,
        "certified_by": sol.certified_by,
        "history": np.asarray(sol.history, dtype=np.float64).tobytes(),
    }


def _with_degenerate_row(d, seed, factor):
    A = random_symmetric(d, seed)
    A[1] *= factor
    A[:, 1] *= factor
    return A


_ORACLE_CASES = {
    **{f"random-d{d}-{seed}": (random_symmetric(d, 900 + 10 * d + seed), False)
       for d in (1, 2, 3, 5, 12, 40, 128) for seed in range(2 if d == 128 else 4)},
    # (A V)_1 = 0, so the divide gives 0/0 = NaN
    "zero-row": (_with_degenerate_row(6, 1, 0.0), True),
    # (A V)_1 is about 1e-170, nonzero, but its squares underflow to 0, so
    # the divide gives +-inf
    "underflowing-row": (_with_degenerate_row(6, 2, 1e-170), True),
    "zero-d1": (np.zeros((1, 1)), True),
    "zero-d5": (np.zeros((5, 5)), True),
    **{f"scaled-{scale:g}": (scale * random_symmetric(5, 3), False)
       for scale in (1e298, 1e-300, 2.0 ** -257, 2.0 ** 257)},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHalfSweepOracle:
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_bitwise_equal_to_reference(self, case, monkeypatch):
        A, degenerate = _ORACLE_CASES[case]
        normalize_rows = gram_module._normalize_rows
        calls = []

        def counting(G, fallback):
            calls.append(G.shape)
            return normalize_rows(G, fallback)

        for seed in (0, 7):
            ref = _reference_gram_maximize(A, rng=RngSeed(seed))
            del calls[:]
            with monkeypatch.context() as m:
                m.setattr(gram_module, "_normalize_rows", counting)
                sol = gram_maximize(A, rng=RngSeed(seed))
            assert _solution_bits(sol) == _solution_bits(ref)
            # two draws per start; any further call is a redone half sweep
            redone = len(calls) - 2 * sol.restarts_used
            assert redone > 0 if degenerate else redone == 0

    def test_bitwise_equal_across_restarts(self, monkeypatch):
        # one sweep per start never certifies, so every start runs and the
        # buffers of a start must not reach the best factors of another
        monkeypatch.setattr(gram_module, "MAX_SWEEPS", 1)
        monkeypatch.setattr(gram_module, "MAX_RESTARTS", 4)
        for seed in range(4):
            A = random_symmetric(12, 60 + seed)
            sol = gram_maximize(A, rng=RngSeed(seed))
            assert sol.restarts_used == 4
            assert _solution_bits(sol) == _solution_bits(
                _reference_gram_maximize(A, rng=RngSeed(seed)))


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


def dual_matrix(A, y):
    d = A.shape[0]
    return np.block([[np.diag(y[:d]), -0.5 * A], [-0.5 * A, np.diag(y[d:])]])


def filtering_run_solves(count, d=64):
    """Gram inputs (matrix, rng) of the in-loop solves of d-dimensional filtering
    runs, and the (collection, rng) of each run, until count solves are taken."""
    solves, runs = [], []
    solve = estimator_module.gram_maximize

    def recording(A, rng=None):
        solves.append((A.copy(), rng))
        return solve(A, rng=rng)

    cell = TrialCell(n=2000, k=20, d=d, alpha=1.0, eps=0.05, attack="targeted_subset")
    ch = RapporChannel.create(d, 1.0)
    trial = 0
    while len(solves) < count:
        base = RngSeed(64).child(trial)
        p = sample_p(cell.p_family, d, base.child(1))
        coll = build_collection(cell, p, resolve_attack(cell, p, ch), ch, base.child(2))
        estimator_module.gram_maximize = recording
        try:
            robust_estimate(coll, cell.estimator_config(), ch, base.child(3))
        finally:
            estimator_module.gram_maximize = solve
        runs.append((coll, base.child(3)))
        trial += 1
    return solves[:count], runs, cell.estimator_config(), ch


@pytest.fixture(scope="module")
def d64_solves():
    return filtering_run_solves(40)


class TestCholeskyCertificate:
    def test_bound_at_least_reference_on_random_cases(self):
        # the 200 cases of test_weak_duality_random_factors, drawn in the same order
        gen = np.random.default_rng(21)
        paths = dict.fromkeys(gram_module.CERTIFICATE_PATHS, 0)
        for i in range(200):
            d = int(gen.integers(3, 10))
            A = random_symmetric(d, 5000 + i)
            sol = gram_maximize(A, rng=RngSeed(i))
            random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            paths[sol.certified_by] += 1
            if sol.certified_by == "cholesky":
                reference = dual_upper_bound(A, sol.u_factors, sol.v_factors)
                assert sol.upper_bound >= reference
                assert sol.relative_gap <= GAP_TOL / 2 * (1 + 1e-9)
        assert paths["cholesky"] > paths["eigvalsh"]

    @pytest.mark.parametrize("d", [3, 12, 64])
    def test_certifies_just_inside_delta0_only(self, d):
        A = random_symmetric(d, 300 + d)
        sol = gram_maximize(A, rng=RngSeed(d))
        U, V = sol.u_factors, sol.v_factors
        y = gram_module._dual_vector(U, V, A @ U, A @ V)
        lam_min = np.linalg.eigvalsh(dual_matrix(A, y))[0]
        delta0 = GAP_TOL * abs(sol.value) / (4 * d)
        inside = y + (-0.999 * delta0 - lam_min)
        outside = y + (-1.001 * delta0 - lam_min)
        assert np.linalg.eigvalsh(dual_matrix(A, inside))[0] == pytest.approx(
            -0.999 * delta0, rel=1e-6)
        bound = gram_module._cholesky_bound(A, inside, sol.value, A @ V)
        assert bound is not None
        exact = inside.sum() + 2 * d * delta0
        assert exact <= bound <= exact + 1e-12 * abs(exact)
        assert gram_module._cholesky_bound(A, outside, sol.value, A @ V) is None

    @pytest.mark.parametrize("d", [1, 4])
    def test_zero_matrix_falls_back(self, d):
        sol = gram_maximize(np.zeros((d, d)), rng=RngSeed(0))
        assert sol.certified_by == "eigvalsh"
        assert sol.value == 0.0
        assert 0.0 <= sol.upper_bound <= 1e-300

    @pytest.mark.parametrize("a", [1.0, -2.5])
    def test_one_by_one_certifies_by_cholesky(self, a):
        # Diag(y) - B is singular at d = 1, but adding t > 0 makes it definite
        A = np.array([[a]])
        sol = gram_maximize(A, rng=RngSeed(0))
        assert sol.certified_by == "cholesky"
        assert sol.value == pytest.approx(abs(a), rel=1e-15)
        assert sol.relative_gap <= 1e-9
        assert sol.upper_bound >= dual_upper_bound(A, sol.u_factors, sol.v_factors)

    def test_rejects_empty_matrix(self):
        with pytest.raises(InvalidArgument):
            gram_maximize(np.zeros((0, 0)))
        with pytest.raises(InvalidArgument):
            dual_upper_bound(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_skipped_rungs_change_no_bound(self, d64_solves, monkeypatch):
        # a rung below the value one more half sweep reaches cannot pass; AV = 0
        # gives no such value, so every rung that delta0 allows is run
        solves = d64_solves[0]
        proves = gram_module._schur_cholesky_proves_psd
        calls = []

        def counting(*args):
            calls.append(args[2])
            return proves(*args)

        monkeypatch.setattr(gram_module, "_schur_cholesky_proves_psd", counting)
        skipped = 0
        for A, rng in solves:
            sol = gram_maximize(A, rng=rng)
            U, V = sol.u_factors, sol.v_factors
            AV = A @ V
            y = gram_module._dual_vector(U, V, A @ U, AV)
            del calls[:]
            bound = gram_module._cholesky_bound(A, y, sol.value, AV)
            run = len(calls)
            assert bound == gram_module._cholesky_bound(A, y, sol.value, np.zeros_like(AV))
            skipped += len(calls) - 2 * run
        assert skipped > 30

    def test_same_results_without_cholesky(self, d64_solves, monkeypatch):
        solves, runs, cfg, ch = d64_solves
        with_test = [gram_maximize(A, rng=rng) for A, rng in solves]
        deleted = [[rec.deleted for rec in robust_estimate(coll, cfg, ch, rng).trace]
                   for coll, rng in runs]
        assert sum(sol.certified_by == "cholesky" for sol in with_test) >= 30
        monkeypatch.setattr(gram_module, "_cholesky_bound", lambda *args: None)
        for (A, rng), sol in zip(solves, with_test):
            ref = gram_maximize(A, rng=rng)
            assert ref.certified_by == "eigvalsh"
            assert np.array_equal(ref.u_factors, sol.u_factors)
            assert np.array_equal(ref.v_factors, sol.v_factors)
            assert ref.value == sol.value
            assert ref.restarts_used == sol.restarts_used
            if sol.certified_by == "cholesky":
                assert sol.upper_bound >= ref.upper_bound
        assert deleted == [[rec.deleted for rec in robust_estimate(coll, cfg, ch, rng).trace]
                           for coll, rng in runs]


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

    @pytest.mark.parametrize("scale", [1e300, 1e154, 1e-154, 1e-300])
    def test_extreme_scales(self, scale):
        # the tolerance scales with A instead of overflowing to inf (a check
        # that always passes) or underflowing to 0
        B = np.array([[1.0, 2.0], [2.0, -1.0]])
        base = sandwich_check(B, rng=RngSeed(0))
        rep = sandwich_check(scale * B, rng=RngSeed(0))
        assert rep.ok
        assert rep.lower_margin / scale == pytest.approx(base.lower_margin, rel=1e-6)
        assert rep.upper_margin / scale == pytest.approx(base.upper_margin, rel=1e-9)

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_random_instances(self, d):
        rng = RngSeed(97)
        for i in range(60):
            A = random_symmetric(d, 1000 * d + i)
            rep = sandwich_check(A, rng=rng.child(d, i))
            assert rep.ok, (d, i, rep)

    # sdp-check instances (d, seed, index) whose solver value alone misses the
    # lower side: by -6.7e-07, -3.5e-06 and -2.4e-05
    @pytest.mark.parametrize("k", [0, 600, -600])
    @pytest.mark.parametrize("d, seed, i", [(2, 0, 159), (4, 11, 756), (4, 11, 1987)])
    def test_ascent_from_oracle_masks_closes_lower_side(self, d, seed, i, k):
        rng = RngSeed(seed)
        raw = rng.generator(5, i).standard_normal((d, d))
        A = np.ldexp(0.5 * (raw + raw.T), k)
        sol = gram_maximize(A, rng=rng.child(6, i))
        rep = sandwich_check(A, sol=sol)
        tol = rep.lower_margin - rep.gram_value + rep.subset_value
        assert sol.value + tol < rep.subset_value
        assert rep.gram_value > sol.value
        assert rep.lower_margin > 0.0 and rep.ok
        assert rep.gram_upper == sol.upper_bound
        assert rep == sandwich_check(A, rng=rng.child(6, i))

    def test_ascent_only_when_lower_side_fails(self, monkeypatch):
        def fail(*args):
            raise AssertionError("ascent from the oracle's masks ran")

        monkeypatch.setattr(gram_module, "_mask_ascent", fail)
        rng = RngSeed(97)
        for i in range(20):
            A = random_symmetric(8, 8000 + i)
            sol = gram_maximize(A, rng=rng.child(8, i))
            rep = sandwich_check(A, sol=sol)
            assert rep.lower_ok and rep.gram_value == sol.value

    def test_validates_once(self, monkeypatch):
        check = gram_module.check_symmetric
        calls = []

        def counting(A):
            calls.append(1)
            return check(A)

        monkeypatch.setattr(gram_module, "check_symmetric", counting)
        assert sandwich_check(random_symmetric(6, 5), rng=RngSeed(0)).ok
        assert len(calls) == 1


# OPENBLAS_CORETYPE values and the CPU flags each kernel needs.
_KERNELS = {"Nehalem": {"sse4_2"}, "Sandybridge": {"avx"}, "Haswell": {"avx2", "fma"}}
_ORACLE_PANEL = """
import numpy as np
from ldprobust import subset_bilinear_max
gen = np.random.default_rng(2024)
for d in (3, 8, 12, 15, 16):
    for _ in range(3):
        raw = gen.standard_normal((d, d))
        val, s, sp = subset_bilinear_max(0.5 * (raw + raw.T))
        print(val.hex(), np.packbits(s).tobytes().hex(), np.packbits(sp).tobytes().hex())
"""


def _openblas_kernels():
    """The OPENBLAS_CORETYPE values this machine runs, or why the variable does nothing."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return None, f"OpenBLAS kernel names are x86-64 ones, not {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None, "numpy does not report its BLAS build"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return None, f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS"
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((set(line.split(":", 1)[1].split()) for line in f
                          if line.startswith("flags")), set())
    except OSError:
        return None, "the CPU flags are unreadable, so no kernel is known to run"
    kernels = [name for name, needs in _KERNELS.items() if needs <= flags]
    if len(kernels) < 2:
        return None, "fewer than two OpenBLAS kernels run on this CPU"
    return kernels, None


def test_oracle_bits_do_not_depend_on_blas_kernel():
    kernels, reason = _openblas_kernels()
    if kernels is None:
        pytest.skip(reason)
    src = os.path.dirname(os.path.dirname(ldprobust.__file__))
    outputs = {}
    for kernel in [None, *kernels]:
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_VERBOSE": "2"}
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        run = subprocess.run([sys.executable, "-c", _ORACLE_PANEL], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        if kernel is not None:
            assert f"Core: {kernel}" in run.stderr, run.stderr
        outputs[kernel] = run.stdout
    assert len(set(outputs.values())) == 1, outputs
