import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldprobust import (
    FiniteDist,
    ProbVector,
    RapporChannel,
    RngSeed,
    rate_fit,
    l1_dist,
    make_prob_vector,
    sample_privatized,
    subset_mask,
    subset_mass,
    tv_product_bound,
)
from ldprobust.errors import (
    InputError,
    InvalidArgument,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    TooSmallAlphabet,
)


class TestMakeProbVector:
    def test_uniform(self):
        p = make_prob_vector([1 / 3, 1 / 3, 1 / 3])
        assert p.d == 3
        assert np.allclose(p.weights, 1 / 3)

    def test_point_mass(self):
        p = make_prob_vector([1.0, 0.0, 0.0])
        assert p.weights[0] == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_prob_vector([0.5, 0.3, 0.3])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            make_prob_vector([0.5, 0.6, -0.1])

    @pytest.mark.parametrize("build", [
        ProbVector, lambda w: FiniteDist(("a", "b", "c"), w),
    ], ids=["ProbVector", "FiniteDist"])
    def test_negative_mass_unnormalized_constructors(self, build):
        # the constructors check masses themselves, not through make_prob_vector
        with pytest.raises(NegativeMass):
            build(np.array([0.5, 0.6, -0.1]))

    @pytest.mark.parametrize("build", [
        make_prob_vector, ProbVector, lambda w: FiniteDist(("a", "b", "c"), w),
    ], ids=["make_prob_vector", "ProbVector", "FiniteDist"])
    def test_nan_entry_not_normalized(self, build):
        # a NaN sum compares False with any tolerance; it must not pass for 1
        with pytest.raises(NotNormalized):
            build(np.array([0.5, math.nan, 0.5]))

    def test_small_alphabet(self):
        with pytest.raises(TooSmallAlphabet):
            make_prob_vector([0.5, 0.5])

    def test_tiny_negative_clamped(self):
        p = make_prob_vector([0.5, 0.5, -1e-13])
        assert p.weights[2] == 0.0
        assert abs(p.weights.sum() - 1.0) <= 1e-12


class TestDistances:
    def test_l1_identity(self):
        assert l1_dist([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_l1_point_masses(self):
        assert l1_dist([1, 0, 0], [0, 1, 0]) == 2.0

    def test_l1_direct(self):
        assert abs(l1_dist([0.6, 0.4, 0.0], [0.4, 0.4, 0.2]) - 0.4) < 1e-15

    def test_l1_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            l1_dist([1, 0], [1, 0, 0])


class TestSubsetMass:
    def test_empty(self):
        assert subset_mass([0.1, 0.2, 0.7], np.zeros(3, dtype=bool)) == 0.0

    def test_full_prob_vector(self):
        p = make_prob_vector([0.1, 0.2, 0.7])
        assert abs(subset_mass(p, np.ones(3, dtype=bool)) - 1.0) < 1e-15

    def test_direct(self):
        assert abs(subset_mass([0.1, 0.2, 0.7], subset_mask(3, [1, 3])) - 0.8) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            subset_mass([0.1, 0.2], np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("symbol", [0, 4])
    def test_mask_symbol_outside_alphabet(self, symbol):
        with pytest.raises(LengthMismatch):
            subset_mask(3, [1, symbol])

    def test_finite_dist_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            FiniteDist(("a", "b", "c"), [0.5, 0.5])


class TestTvProductBound:
    def test_zero(self):
        assert tv_product_bound(0.0, 5) == 0.0

    def test_single_sample(self):
        assert abs(tv_product_bound(0.21, 1) - math.sqrt(0.21)) < 1e-15

    def test_clamped(self):
        assert tv_product_bound(10.0, 10) == 1.0

    @settings(max_examples=100, derandomize=True)
    @given(st.floats(0, 5), st.floats(0, 5), st.integers(1, 50), st.integers(1, 50))
    def test_monotone(self, c1, c2, k1, k2):
        lo_c, hi_c = sorted([c1, c2])
        lo_k, hi_k = sorted([k1, k2])
        assert tv_product_bound(lo_c, lo_k) <= tv_product_bound(hi_c, lo_k) + 1e-15
        assert tv_product_bound(lo_c, lo_k) <= tv_product_bound(lo_c, hi_k) + 1e-15


class TestRngSeed:
    def test_same_stream_identical(self):
        a = RngSeed(7, 3).generator().random(16)
        b = RngSeed(7, 3).generator().random(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngSeed(7, 3).generator().random(16)
        b = RngSeed(7, 4).generator().random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2 ** 64, 0), (0, -1)])
    def test_out_of_range_is_typed_input_error(self, seed, stream):
        with pytest.raises(InvalidArgument) as exc:
            RngSeed(seed, stream)
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)


_P3 = make_prob_vector([0.5, 0.3, 0.2])
_CH3 = RapporChannel.create(3, 1.0)


class TestInvalidArgument:
    @pytest.mark.parametrize("call", [
        lambda tmp: make_prob_vector([[0.5, 0.3, 0.2]]),
        lambda tmp: FiniteDist(("a", "a"), [0.5, 0.5]),
        lambda tmp: tv_product_bound(-0.1, 2),
        lambda tmp: tv_product_bound(0.1, 0),
        lambda tmp: sample_privatized(_CH3, _P3, -1, RngSeed(0)),
        lambda tmp: rate_fit(tmp / "sweep.csv", "alpha"),
    ], ids=["vector-2d", "repeated-outcomes", "tv-negative-chi2", "tv-k-zero",
            "privatized-count", "fit-axis"])
    def test_contract_violation_is_typed_value_error(self, call, tmp_path):
        with pytest.raises(InvalidArgument) as exc:
            call(tmp_path)
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)
        assert not list(tmp_path.iterdir())
