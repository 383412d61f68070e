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
    RngSeed,
    dual_upper_bound,
    gram_maximize,
    sandwich_check,
    subset_bilinear_max,
)
from ldprobust.errors import (
    DimensionTooLarge,
    InvalidArgument,
    NotSymmetric,
)
from ldprobust import gram as gram_module
from ldprobust.gram import GAP_TOL, GramSolution

from conftest import bit_matrix_subset_bilinear_max, brute_force_bilinear


def upper_bound_below(A, limit):
    """The filter's stop proof, gram._upper_bound_below, of a checked A, given
    |A| and its l1 sum as the filter gives them."""
    A = gram_module.check_symmetric(A)
    abs_a = np.abs(A)
    return gram_module._upper_bound_below(A, limit, abs_a, gram_module._l1_rounded_up(abs_a))


def random_symmetric(d, seed):
    gen = np.random.default_rng(seed)
    raw = gen.standard_normal((d, d))
    return 0.5 * (raw + raw.T)


def check_solution(sol, A):
    """Assert that sol is a feasible point for A: unit factor rows, Gram
    entries at most 1 in absolute value, and a value that the factors attain
    on A and that the upper bound does not undercut."""
    for F in (sol.u_factors, sol.v_factors):
        assert np.abs(np.linalg.norm(F, axis=1) - 1.0).max() <= 1e-10
    M = sol.matrix()
    assert np.abs(M).max() <= 1.0 + 1e-10
    tol = 1e-9 * max(1.0, abs(sol.value))
    assert sol.upper_bound >= sol.value - tol
    assert abs(np.sum(M * A) - sol.value) <= tol


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

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(NotSymmetric):
            subset_bilinear_max(np.zeros(shape))


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
        check_solution(sol, A)

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
            with pytest.raises(AssertionError):
                check_solution(bad, A)

    @pytest.mark.parametrize("scale", [1e300, 1e154, 1e-154, 1e-300])
    def test_extreme_scales_certify(self, scale):
        # with v_j optimal the value is ||u_1 + 2 u_2|| + ||2 u_1 - u_2||, at
        # most sqrt(5 + 4c) + sqrt(5 - 4c) for c = <u_1, u_2>: sqrt(20) at c = 0
        A = scale * np.array([[1.0, 2.0], [2.0, -1.0]])
        sol = gram_maximize(A, rng=RngSeed(0))
        assert abs(sol.value / scale - math.sqrt(20.0)) <= GAP_TOL * math.sqrt(20.0)
        assert sol.upper_bound / scale >= math.sqrt(20.0) * (1.0 - 1e-14)
        assert sol.relative_gap <= GAP_TOL
        check_solution(sol, A)

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


def _reference_scale(A):
    """The e of the power of two just above max |A_ij| when that lies outside
    [2^-256, 2^256], else 0."""
    amax = float(np.abs(A).max())
    if amax > 0.0 and not gram_module._SAFE_SCALE[0] <= amax <= gram_module._SAFE_SCALE[1]:
        return math.frexp(amax)[1]
    return 0


def _reference_ascent(A, gen, rank, tol, certify=False):
    """One start of unit-row (d, rank) factors drawn from gen, ascended with a
    fresh A @ V, a zero-norm test and a fresh quotient at every half sweep
    until a full sweep gains at most tol.  With certify, the factors after the
    first sweep whose gain falls to each of STAGE_TOLS (one bound for all the
    tolerances one sweep passes) are bounded by dual_upper_bound, and the
    start ends at a bound within GAP_TOL of the value.  Returns (value, U, V,
    history, bound), bound None unless such a check ended the start."""
    d = A.shape[0]
    normalize_rows = _reference_normalize_rows
    fallback = np.tile(gram_module._e(rank, 0), (d, 1))
    U = normalize_rows(gen.standard_normal((d, rank)), fallback)
    V = normalize_rows(gen.standard_normal((d, rank)), fallback)
    AV = A @ V
    value = float(np.vdot(U, AV))
    history = [value]
    unchecked = list(gram_module.STAGE_TOLS) if certify else []
    for _ in range(gram_module.MAX_SWEEPS):
        U = normalize_rows(AV, U)
        history.append(float(np.vdot(U, AV)))
        AU = A @ U
        V = normalize_rows(AU, V)
        new_value = float(np.vdot(V, AU))
        history.append(new_value)
        gain = new_value - value
        converged = gain <= tol * max(1.0, abs(new_value))
        value = new_value
        if converged:
            break
        AV = A @ V
        passed = [t for t in unchecked if gain <= t * max(1.0, abs(value))]
        if passed:
            unchecked = [t for t in unchecked if t not in passed]
            bound = dual_upper_bound(A, U, V)
            if (bound - value) / max(abs(bound), np.finfo(np.float64).tiny) <= GAP_TOL:
                return value, U, V, history, bound
    return value, U, V, history, None


def _reference_gram_maximize(A, rng=None):
    """gram_maximize with a fresh A @ V, a zero-norm test and a fresh quotient
    at every half sweep: the oracle the buffered sweeps match bit for bit.
    The bound of a start that a stage check ended counts whether or not its
    value is the best; otherwise only a start that improves the best value
    is bounded, at its last factors."""
    A = gram_module.check_symmetric(A)
    d = A.shape[0]
    scale = _reference_scale(A)
    if scale:
        A = np.ldexp(A, -scale)
    rank = math.ceil(2.0 * math.sqrt(d)) + 1
    if rng is None:
        rng = RngSeed(0)

    best = None
    upper = math.inf
    for r in range(gram_module.MAX_RESTARTS):
        value, U, V, history, bound = _reference_ascent(A, rng.generator(r), rank,
                                                        gram_module.SWEEP_TOL, certify=True)
        if best is None or value > best[0]:
            best = (value, U, V, history)
            if bound is None:
                bound = dual_upper_bound(A, U, V)
        if bound is not None and bound < upper:
            upper = bound
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
                        restarts_used=r + 1, certified_by="eigvalsh", history=history)


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


def _traced_solve(monkeypatch, A, rng, stages):
    """gram_maximize(A, rng) at STAGE_TOLS = stages, with each start's history
    and the number of eigvalsh bounds taken from its ascent until the next."""
    ascend, bound = gram_module._ascend, gram_module._eigvalsh_bound
    starts = []

    def tracing_ascend(*args, **kwargs):
        starts.append({"bounds": 0})
        out = ascend(*args, **kwargs)
        starts[-1]["history"] = out[3]
        return out

    def counting_bound(*args):
        starts[-1]["bounds"] += 1
        return bound(*args)

    with monkeypatch.context() as m:
        m.setattr(gram_module, "STAGE_TOLS", stages)
        m.setattr(gram_module, "_ascend", tracing_ascend)
        m.setattr(gram_module, "_eigvalsh_bound", counting_bound)
        sol = gram_maximize(A, rng=rng)
    assert len(starts) == sol.restarts_used
    return sol, starts


class TestStagedStop:
    """A full solve's starts end at the first stage check whose bound is within
    GAP_TOL, on every fifth of criterion 3's matrices."""

    def test_starts_are_prefixes_of_the_sweep_tol_ascent(self, monkeypatch):
        rng = RngSeed(333)
        half_sweeps = {"staged": [], "sweep_tol": []}
        for d in (4, 8, 12):
            for i in range(0, 500, 5):
                raw = rng.generator(d, i).standard_normal((d, d))
                A = 0.5 * (raw + raw.T)
                sol, starts = _traced_solve(monkeypatch, A, rng.child(d, i),
                                            gram_module.STAGE_TOLS)
                full, full_starts = _traced_solve(monkeypatch, A, rng.child(d, i), ())
                assert sol.restarts_used <= full.restarts_used
                assert sol.relative_gap <= GAP_TOL or sol.restarts_used == full.restarts_used
                for start, full_start in zip(starts, full_starts):
                    history = start["history"]
                    assert full_start["history"][:len(history)] == history
                    assert start["bounds"] <= 3
                assert any(sol.history == start["history"] for start in starts)
                if d == 12:
                    half_sweeps["staged"].append(sum(len(s["history"]) - 1 for s in starts))
                    half_sweeps["sweep_tol"].append(
                        sum(len(s["history"]) - 1 for s in full_starts))
        assert np.mean(half_sweeps["staged"]) <= 0.7 * np.mean(half_sweeps["sweep_tol"])

    @pytest.mark.parametrize("seed", [646, 658, 745])
    def test_bound_of_a_start_that_is_not_the_best_counts(self, monkeypatch, seed):
        # start 1 is ended by a stage check a little below start 0's value,
        # and its bound certifies start 0's factors
        raw = np.random.default_rng(1005000 + seed).standard_normal((5, 5))
        A = 0.5 * (raw + raw.T)
        sol, starts = _traced_solve(monkeypatch, A, RngSeed(seed), gram_module.STAGE_TOLS)
        assert sol.restarts_used == 2
        assert sol.history == starts[0]["history"]
        assert starts[1]["history"][-1] < sol.value
        assert sol.upper_bound < dual_upper_bound(A, sol.u_factors, sol.v_factors)
        assert sol.relative_gap <= GAP_TOL
        assert _solution_bits(sol) == _solution_bits(_reference_gram_maximize(A, rng=RngSeed(seed)))


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
        assert abs(sol.upper_bound - sol.value) <= 1e-9 * max(abs(sol.upper_bound), 1.0)
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
            check_solution(sol, A)
            certified = gram_maximize(A, rng=RngSeed(seed))
            assert 1 <= certified.restarts_used <= 16
            assert certified.relative_gap <= GAP_TOL or certified.restarts_used == 16
            assert certified.upper_bound >= certified.value

    def test_bound_is_the_reference_on_single_start_solves(self):
        # the 200 cases of test_weak_duality_random_factors, drawn in the same order
        gen = np.random.default_rng(21)
        single = 0
        for i in range(200):
            d = int(gen.integers(3, 10))
            A = random_symmetric(d, 5000 + i)
            sol = gram_maximize(A, rng=RngSeed(i))
            random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            random_factors(d, int(gen.integers(3, 2 * d + 1)), gen)
            assert sol.certified_by == "eigvalsh"
            if sol.restarts_used == 1:
                single += 1
                reference = dual_upper_bound(A, sol.u_factors, sol.v_factors)
                assert sol.upper_bound == max(reference, sol.value)
        assert single >= 190

    @pytest.mark.parametrize("d", [1, 4])
    def test_zero_matrix_certifies(self, d):
        sol = gram_maximize(np.zeros((d, d)), rng=RngSeed(0))
        assert sol.certified_by == "eigvalsh"
        assert sol.value == 0.0
        assert 0.0 <= sol.upper_bound <= 1e-300

    @pytest.mark.parametrize("a", [1.0, -2.5])
    def test_one_by_one_certifies_by_eigvalsh(self, a):
        # Diag(y) - B is singular at d = 1, so the bound is the value plus
        # the eigensolver's margin and the rounding of the sum
        A = np.array([[a]])
        sol = gram_maximize(A, rng=RngSeed(0))
        assert sol.certified_by == "eigvalsh"
        assert sol.value == pytest.approx(abs(a), rel=1e-15)
        assert 0.0 <= sol.relative_gap <= 1e-9
        assert sol.upper_bound == max(dual_upper_bound(A, sol.u_factors, sol.v_factors),
                                      sol.value)

    def test_rejects_empty_matrix(self):
        with pytest.raises(InvalidArgument):
            gram_maximize(np.zeros((0, 0)))
        with pytest.raises(InvalidArgument):
            dual_upper_bound(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((0, 3)))


class TestLoopSolve:
    """The filter's in-loop solve: restart 0's draws at rank 4 ascended to
    LOOP_TOL, kept at the limit."""

    @pytest.mark.parametrize("e", [0, 300, -300])
    def test_kept_ascent_is_the_start_of_restart_zero(self, e):
        # outside the solver's band A is solved scaled, as gram_maximize solves it
        A = np.ldexp(random_symmetric(12, 77), e)
        full = gram_maximize(A, rng=RngSeed(4))
        limit = 0.5 * full.value
        l1 = gram_module._l1_rounded_up(np.abs(A))
        sol = gram_module._loop_solve(A, limit, RngSeed(4), l1)
        assert (sol.certified_by, sol.restarts_used, sol.rank, full.rank) == ("l1", 1, 4, 8)
        scale = _reference_scale(A)
        _, U, V, history, _ = _reference_ascent(np.ldexp(A, -scale), RngSeed(4).generator(0),
                                                4, gram_module.LOOP_TOL)
        assert np.array_equal(sol.u_factors, U) and np.array_equal(sol.v_factors, V)
        assert sol.history == [math.ldexp(h, scale) for h in history]
        # the same start ascended to SWEEP_TOL goes on from where the kept one stopped
        longer = _reference_ascent(np.ldexp(A, -scale), RngSeed(4).generator(0), 4,
                                   gram_module.SWEEP_TOL)[3]
        assert longer[:len(history)] == history and len(history) < len(longer)
        assert sol.value == sol.history[-1] >= limit
        assert sol.upper_bound == max(gram_module._sum_rounded_up(np.abs(A).ravel(), 0.0),
                                      sol.value)
        check_solution(sol, A)
        # with no reachable limit the in-loop solve is the full solve
        never = gram_module._loop_solve(A, math.inf, RngSeed(4), l1)
        assert _solution_bits(never) == _solution_bits(full)

    @pytest.mark.parametrize("d, rank", [(1, 3), (2, 4), (5, 4), (128, 4)])
    def test_kept_factors_have_the_loop_rank(self, d, rank):
        # min(4, ceil(2 sqrt(d)) + 1): the full solve's rank is 3 at d = 1
        A = random_symmetric(d, 300 + d)
        limit = 0.5 * gram_maximize(A, rng=RngSeed(2)).value
        l1 = gram_module._l1_rounded_up(np.abs(A))
        sol = gram_module._loop_solve(A, limit, RngSeed(2), l1)
        assert sol.certified_by == "l1" and sol.value >= limit
        assert sol.u_factors.shape == sol.v_factors.shape == (d, rank)
        check_solution(sol, A)


class TestUpperBoundBelow:
    """The two proofs that the Gram maximum lies below a limit, with no solve."""

    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_l1_bound_where_it_reaches_below(self, d):
        A = random_symmetric(d, 40 + d)
        exact = math.fsum(np.abs(A).ravel())
        bound, proof = upper_bound_below(A, 2 * exact)
        assert proof == "l1"
        assert exact <= bound <= exact * (1 + 1e-12)

    @pytest.mark.parametrize("d", [5, 12, 64, 128])
    def test_uniform_dual_is_sharp_at_d_times_the_spectral_norm(self, d):
        A = random_symmetric(d, 70 + d)
        spectral = d * float(np.abs(np.linalg.eigvalsh(A)).max())
        assert math.fsum(np.abs(A).ravel()) > spectral * (1 + 1e-6)
        bound, proof = upper_bound_below(A, spectral * (1 + 1e-6))
        assert proof == "uniform-dual"
        assert spectral * (1 - 1e-12) <= bound < spectral * (1 + 1e-6)
        assert upper_bound_below(A, spectral * (1 - 1e-9)) is None

    def test_eigvalsh_skipped_where_the_heaviest_row_rules_it_out(self, monkeypatch):
        A = random_symmetric(64, 9)
        spectral = 64 * float(np.abs(np.linalg.eigvalsh(A)).max())
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counting(M):
            calls.append(M.shape)
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert upper_bound_below(A, spectral / 2) is None
        assert calls == []
        # just below the norm only the eigenvalues can tell
        assert upper_bound_below(A, spectral * (1 - 1e-9)) is None
        assert calls == [(64, 64)]

    @pytest.mark.parametrize("d", [1, 3, 12, 64])
    def test_psd_proof_is_sharp_at_half_the_spectral_norm(self, d):
        # c I - B is PSD exactly when c >= ||A||_2 / 2; the eigensolver's
        # margin is far below 1e-6 of that
        A = random_symmetric(d, 500 + d)
        row_sums = np.abs(A).sum(axis=1)
        half_norm = 0.5 * float(np.abs(np.linalg.eigvalsh(A)).max())
        proves = gram_module._uniform_dual_proves_psd
        assert proves(A, half_norm * (1 + 1e-6), row_sums)
        assert not proves(A, half_norm * (1 - 1e-9), row_sums)
        # a c that is not positive and finite proves nothing
        for c in (0.0, -half_norm, math.inf, math.nan):
            assert not proves(A, c, row_sums)

    def test_never_below_the_solver_value(self):
        gen = np.random.default_rng(5)
        proved = set()
        for i in range(150):
            d = int(gen.integers(1, 13))
            A = random_symmetric(d, 900 + i) * 10.0 ** int(gen.integers(-3, 4))
            value = gram_maximize(A, rng=RngSeed(i)).value
            for ratio in (0.5, 1.0, 1.2, 2.0, 10.0):
                got = upper_bound_below(A, ratio * value)
                if got is not None:
                    proved.add(got[1])
                    assert value <= got[0] < ratio * value
        assert proved == {"l1", "uniform-dual"}

    def test_zero_matrix_and_extreme_limits(self):
        bound, proof = upper_bound_below(np.zeros((3, 3)), 1e-300)
        assert proof == "l1" and 0.0 <= bound < 1e-300
        assert upper_bound_below(np.zeros((3, 3)), 0.0) is None
        A = random_symmetric(4, 1)
        assert upper_bound_below(A, math.inf)[1] == "l1"
        assert upper_bound_below(A, math.nan) is None
        assert upper_bound_below(A, -1.0) is None


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
_KERNELS = {"Nehalem": {"sse4_2"}, "Sandybridge": {"avx"}, "Haswell": {"avx2", "fma"},
            "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"}}
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


def _run_on_kernel(code, kernel):
    """The stdout of python -c code on the OpenBLAS kernel named, or on the
    one OpenBLAS picks for kernel None."""
    src = os.path.dirname(os.path.dirname(ldprobust.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_VERBOSE": "2"}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    if kernel is not None:
        assert f"Core: {kernel}" in run.stderr, run.stderr
    return run.stdout


def test_oracle_bits_do_not_depend_on_blas_kernel():
    kernels, reason = _openblas_kernels()
    if kernels is None:
        pytest.skip(reason)
    outputs = {kernel: _run_on_kernel(_ORACLE_PANEL, kernel) for kernel in [None, *kernels]}
    assert len(set(outputs.values())) == 1, outputs


# Every third of criterion 3's matrices is solved, and the factors, value,
# history and restarts_used of each solve are hashed.  The sweeps go through
# BLAS, so the bits hang on the kernel and on numpy's own kernels: each
# digest is pinned for one kernel under one numpy release.
_SOLUTION_PANEL = """
import hashlib
import numpy as np
from ldprobust import RngSeed, gram_maximize
rng = RngSeed(333)
digest = hashlib.sha256()
for d in (4, 8, 12):
    for i in range(0, 500, 5):
        raw = rng.generator(d, i).standard_normal((d, d))
        sol = gram_maximize(0.5 * (raw + raw.T), rng=rng.child(d, i))
        for part in (sol.u_factors, sol.v_factors, np.float64(sol.value),
                     np.asarray(sol.history), np.int64(sol.restarts_used)):
            digest.update(part.tobytes())
print(digest.hexdigest())
"""
_SOLUTION_DIGESTS = {
    ("2.4", "Nehalem"): "ceaceca560742dd77a0701819b25373aa278c6d482ca446d4057bb30487bae41",
    ("2.4", "Sandybridge"): "0940ec376e3f09a2337fe0d997a5db04fc7392cbe36ec3d37301f2736c1b622b",
    ("2.4", "Haswell"): "dd68bf88533a65ac84f4d3c29d88b564f15dced189222b89a61c2b0261d3a1b5",
    ("2.4", "SkylakeX"): "4474fa67e86965b270da7260941a4aa34440d0d28427b0ef95567ee7beacb638",
}


def test_solutions_pinned_on_criterion_3_matrices():
    kernels, reason = _openblas_kernels()
    if kernels is None:
        pytest.skip(reason)
    release = ".".join(np.__version__.split(".")[:2])
    pinned = {kernel: _SOLUTION_DIGESTS[release, kernel] for kernel in kernels
              if (release, kernel) in _SOLUTION_DIGESTS}
    if not pinned:
        pytest.skip(f"no solution digest is pinned for numpy {release}")
    assert {kernel: _run_on_kernel(_SOLUTION_PANEL, kernel).strip() for kernel in pinned} == pinned
