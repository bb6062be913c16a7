"""Tests for the special-function and vector core."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stad import mathcore
from stad.errors import DomainError, EmptyInputError, ZeroVectorError
from stad.mathcore import (
    bessel_ratio,
    estimate_kappa,
    estimate_kappa_clamped,
    log_bessel_i,
    log_sum_exp,
    log_vmf_norm_const,
    normalize_rows,
)

import oracles

# Frozen with oracles.series_log_bessel_i(16, 50) (200-term arbitrary precision).
LOG_I_16_50 = 44.563904337870705508
# Frozen with oracles.mp_bessel_ratio(4, 2.0).
A_4_2 = 0.43312742672231175832


@pytest.mark.parametrize("call", [
    lambda d: bessel_ratio(d, 1.0),
    lambda d: log_vmf_norm_const(d, 1.0),
    lambda d: estimate_kappa(0.5, d),
], ids=["bessel_ratio", "log_vmf_norm_const", "estimate_kappa"])
@pytest.mark.parametrize("d", [1, 0])
def test_dimension_below_two_rejected(call, d):
    with pytest.raises(DomainError):
        call(d)


class TestLogBesselI:
    def test_order0_at_zero(self):
        assert log_bessel_i(0, 0.0) == 0.0

    def test_positive_order_at_zero(self):
        assert log_bessel_i(1, 0.0) == -math.inf

    def test_frozen_series_oracle_value(self):
        assert log_bessel_i(16, 50.0) == pytest.approx(LOG_I_16_50, rel=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i(1.0, -1.0)
        with pytest.raises(DomainError):
            log_bessel_i(1.0, math.nan)
        with pytest.raises(DomainError):
            log_bessel_i(math.inf, 1.0)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 5.0, 13.5, 14.0, 16.0, 64.0, 511.5, 1024.0])
    def test_accuracy_across_branches(self, order):
        # arg/order spanning [1e-300, 1e4], so that `ive`, the uniform
        # expansion where `ive` underflows (order >= 14) and the series
        # where it underflows or nears 1 (below) all answer; compare in the
        # log domain to 1e-13 relative with no absolute floor, so that an
        # error in a Debye coefficient shows, and so does one in
        # log I_0(x) ~ x^2/4 at small x.
        for ratio in [1e-300, 1e-100, 1e-20, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 20.0, 1e3, 1e4]:
            arg = max(order, 1.0) * ratio
            want = oracles.mp_log_bessel_i(order, arg)
            got = log_bessel_i(order, arg)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (order, arg)

    def test_order_zero_where_ive_nears_one(self):
        # `ive(0, x)` exceeds 1/2 below x ~ 0.87, where log(ive) + x would
        # cancel and the series answers instead; at 2e-15 relative a series
        # stopped a term short fails near the handover
        args = np.linspace(0.05, 0.95, 37)
        want = [oracles.mp_log_bessel_i(0.0, x) for x in args]
        assert log_bessel_i(0.0, args) == pytest.approx(want, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("order", [0.0, 0.5, 13.0, 13.5, 14.0, 64.0, 1023.0])
    def test_strictly_increasing_across_the_handovers(self, order):
        # past every point where `ive` underflows or nears 1 and the
        # fallback takes over, and past 1e9 where Hankel's carry or the
        # uniform expansion does; log I_0(x) ~ x^2/4 is a normal float only
        # from ~3e-154 on
        args = np.geomspace(1e-150 if order == 0.0 else 1e-300, 1e12, 20001)
        assert np.all(np.diff(log_bessel_i(order, args)) > 0.0)

    @pytest.mark.parametrize("order,arg", [(14.0, 2e9), (1e4, 1.5e9), (1.1e6, 1.5e9),
                                           (1.1e6, 1e10)])
    def test_large_order_past_the_ive_range_matches_mpmath(self, order, arg):
        # Hankel's two-term carry leaves out ~order^4 / (24 arg^3), 6e-5 at
        # the third row; from order 14 on the uniform expansion answers here
        want = oracles.mp_log_bessel_i_uniform(order, arg)
        assert log_bessel_i(order, arg) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("order,arg", [(1e20, 1e-300), (1e300, 5e-324)])
    def test_uniform_expansion_at_a_subnormal_ratio(self, order, arg):
        # arg / order is subnormal or 0 here; the series' leading term is
        # exact, since its next term is (arg/2)^2 / (order+1) of it
        want = order * (math.log(arg) - math.log(2.0)) - math.lgamma(order + 1.0)
        assert log_bessel_i(order, arg) == pytest.approx(want, rel=1e-15)

    # log I below the float range is -inf, with no overflow warning
    @pytest.mark.parametrize("order,arg", [(1e306, 1e-300), (1e308, 1e-300)])
    def test_below_the_float_range_is_minus_inf_without_warning(self, order, arg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_bessel_i(order, arg) == -math.inf

    @pytest.mark.parametrize("call", [
        lambda: log_bessel_i(1e60, 1e40),
        lambda: log_bessel_i(1e300, 1e308),
        lambda: log_vmf_norm_const(10**61, 1e40),
        lambda: log_bessel_i(2e154, 1e10),
        lambda: log_bessel_i(13.0, 5e-324),
        lambda: log_bessel_i(1e308, 1e308),
    ], ids=["order 1e60", "order 1e300", "norm_const d=10**61", "order squared overflows",
            "subnormal argument", "2 pi order overflows"])
    def test_huge_order_or_tiny_argument_is_finite_without_warning(self, call):
        # a power of the first three orders overflows a float, and so would
        # Hankel's tail at the last two, where `ive` cannot answer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(call())

    def test_debye_polynomials_match_abramowitz_stegun(self):
        # A&S 9.3.9: u_k(t) = sum_j c_j t^j / denominator, for k = 1..4
        table = [
            (24, {1: 3, 3: -5}),
            (1152, {2: 81, 4: -462, 6: 385}),
            (414720, {3: 30375, 5: -369603, 7: 765765, 9: -425425}),
            (39813120, {4: 4465125, 6: -94121676, 8: 349922430, 10: -446185740,
                        12: 185910725}),
        ]
        polys = mathcore._debye_polynomials()
        assert len(polys) == 6
        for k, (den, coef) in enumerate(table, 1):
            got = polys[k - 1].coef
            assert len(got) == 3 * k + 1, k
            for j, c in enumerate(got):
                want = float(Fraction(coef.get(j, 0), den))
                assert abs(c - want) <= 4 * math.ulp(want), (k, j)

    # past the 2**30 where scipy's ive answers NaN, through Hankel's carry from 1e9
    @pytest.mark.parametrize("d,kappa", [(512, 1e160), (512, 1e200), (2048, 1e300), (2, 2.0**31),
                                         (3, 1e100), (29, 1.7e308)])
    def test_huge_argument_matches_mpmath_without_overflow(self, d, kappa):
        order = d / 2.0 - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_bessel_i(order, kappa)
            norm_const = log_vmf_norm_const(d, kappa)
        assert got == pytest.approx(oracles.mp_log_bessel_i(order, kappa), rel=1e-12)
        want = oracles.mp_log_vmf_norm_const(d, kappa)
        assert norm_const == pytest.approx(want, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        # `ive` drops below 1e-280 near 7.5e-35 at order 8 and 1.7e-13 at 20
        args = np.array([0.0, 1e-300, 1e-36, 1e-33, 1e-14, 1e-12, 1e-4, 0.7, 30.0, 119.0,
                         500.0, 2e5, 2e9])
        for order in (8.0, 20.0):
            vec = log_bessel_i(order, args)
            for a, v in zip(args, vec):
                assert v == log_bessel_i(order, float(a)), (order, a)


class TestBesselRatio:
    def test_zero_kappa(self):
        assert bessel_ratio(4, 0.0) == 0.0

    def test_saturates_at_large_kappa(self):
        assert bessel_ratio(2, 1e6) == pytest.approx(1.0, abs=1e-5)

    def test_frozen_oracle_value(self):
        assert bessel_ratio(4, 2.0) == pytest.approx(A_4_2, rel=1e-9)
        want = math.exp(log_bessel_i(2, 2.0) - log_bessel_i(1, 2.0))
        assert bessel_ratio(4, 2.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 8, 64, 1024])
    def test_strictly_increasing_on_grid(self, d):
        grid = np.geomspace(0.1, 1e4, 200)
        vals = bessel_ratio(d, grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bessel_ratio(4, math.nan)
        with pytest.raises(DomainError):
            bessel_ratio(4, math.inf)

    @pytest.mark.parametrize("d", [2, 3, 8, 64, 512, 2048])
    def test_matches_mpmath_widely(self, d):
        for kappa in [1e-6, 0.1, 1.0, 10.0, 119.0, 125.0, 1e4, 1e6]:
            want = oracles.mp_bessel_ratio(d, kappa)
            assert bessel_ratio(d, kappa) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 8, 64, 512, 2048])
    def test_near_machine_precision_on_both_branches(self, d):
        # kappa <= D runs the Gauss fraction, kappa > D Perron's
        grid = [1e-6, 0.1, 1.0, 0.5 * d, 0.999 * d, d, 1.001 * d, 3.0 * d, 1e4, 1e6]
        for kappa in grid:
            want = oracles.mp_bessel_ratio(d, kappa)
            assert bessel_ratio(d, kappa) == pytest.approx(want, rel=1e-14), kappa

    @pytest.mark.parametrize("d", [2, 3, 8, 64, 512, 2048])
    def test_within_amos_bounds(self, d):
        # Amos (1974): x / (v + 1/2 + sqrt(x^2 + (v + 3/2)^2)) <= I_{v+1}(x) / I_v(x)
        # <= x / (v + sqrt(x^2 + (v + 2)^2)) with v = D/2 - 1, less 4e-16 for rounding
        v = d / 2.0 - 1.0
        kappa = np.geomspace(1e-8, 1e8, 400)
        got = bessel_ratio(d, kappa)
        lower = kappa / (v + 0.5 + np.hypot(kappa, v + 1.5))
        upper = kappa / (v + np.hypot(kappa, v + 2.0))
        assert np.all(got >= lower * (1.0 - 4e-16))
        assert np.all(got <= upper * (1.0 + 4e-16))

    @pytest.mark.parametrize("d", [2, 8, 512, 2048])
    def test_strictly_increasing_across_branch_switch(self, d):
        grid = np.linspace(0.9 * d, 1.1 * d, 401)
        assert np.any(grid <= d) and np.any(grid > d)
        vals = bessel_ratio(d, grid)
        assert np.all(np.diff(vals) > 0)

    def test_non_increasing_in_dimension(self):
        dims = [2, 3, 4, 8, 16, 64, 256, 512, 1024, 2048]
        for kappa in [1e-3, 0.5, 5.0, 100.0, 1000.0, 3000.0, 1e5]:
            vals = [bessel_ratio(d, kappa) for d in dims]
            assert all(b <= a for a, b in zip(vals, vals[1:])), kappa

    @pytest.mark.parametrize("d", [2, 512, 2048])
    def test_huge_kappa_is_finite_and_near_one(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_ratio(d, 1e300)
            assert np.all(bessel_ratio(d, np.array([1e300, np.finfo(float).max])) == 1.0)
        assert math.isfinite(got) and got == pytest.approx(1.0, abs=1e-15)

    def test_batch_shape_and_mixed_branches(self):
        kappa = np.array([[0.0, 2.0], [1e3, 1e300]])
        got = bessel_ratio(4, kappa)
        assert got.shape == (2, 2)
        for g, x in zip(got.ravel(), kappa.ravel()):
            assert g == bessel_ratio(4, float(x))


class TestLogVmfNormConst:
    def test_uniform_on_two_sphere(self):
        assert log_vmf_norm_const(3, 0.0) == pytest.approx(
            math.log(1.0 / (4.0 * math.pi)), rel=1e-12
        )

    def test_uniform_on_circle(self):
        assert log_vmf_norm_const(2, 0.0) == pytest.approx(
            math.log(1.0 / (2.0 * math.pi)), rel=1e-12
        )

    def test_d3_closed_form(self):
        # C_3(k) = k / (4 pi sinh k)
        for kappa in np.geomspace(1e-3, 50.0, 40):
            want = math.log(kappa / (4.0 * math.pi * math.sinh(kappa)))
            assert log_vmf_norm_const(3, kappa) == pytest.approx(want, rel=1e-8)

    def test_d3_at_one(self):
        want = math.log(1.0 / (4.0 * math.pi * math.sinh(1.0)))
        assert log_vmf_norm_const(3, 1.0) == pytest.approx(want, rel=1e-10)

    def test_continuous_at_zero(self):
        for d in [2, 3, 16, 512]:
            at_zero = log_vmf_norm_const(d, 0.0)
            near_zero = log_vmf_norm_const(d, 1e-9)
            assert near_zero == pytest.approx(at_zero, abs=1e-6)

    # d/2 - 1 just below 1e300 (the lgamma and Bessel path) and at it;
    # lgamma(D/2) beyond the float range with log C_D(0) within it; v log kappa
    # beyond it with log C_D within it
    @pytest.mark.parametrize("d,kappa", [
        (2 * int(np.nextafter(1e300, 0.0)) + 2, 1.0), (2 * 10**300 + 2, 1.0),
        (2 * 10**300 + 2, 1e305), (2 * 10**305, 1e301), (2 * int(2.56e305), 0.0),
        (2 * int(2.56e305), 1e308),
    ], ids=["below order 1e300", "at order 1e300", "kappa past the order", "order 1e305",
            "lgamma overflows", "v log kappa overflows"])
    def test_huge_dimension_matches_mpmath_without_warning(self, d, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_vmf_norm_const(d, kappa)
        assert got == pytest.approx(oracles.mp_log_vmf_norm_const_uniform(d, kappa), rel=1e-15)

    @pytest.mark.parametrize("d,kappa", [(10**307, 1.0), (10**307, 0.0),
                                         (int(np.finfo(float).max), 1e308)])
    def test_above_the_float_range_is_inf_without_warning(self, d, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_vmf_norm_const(d, kappa) == math.inf
        assert oracles.mp_log_vmf_norm_const_uniform(d, kappa) == math.inf

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            log_vmf_norm_const(3, -1.0)
        with pytest.raises(DomainError):
            log_vmf_norm_const(3, math.nan)


class TestEstimateKappa:
    def test_zero_resultant(self):
        assert estimate_kappa(0.0, 8) == 0.0

    def test_direct_substitution(self):
        assert estimate_kappa(0.5, 3) == pytest.approx(1.8333333333333333, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            estimate_kappa(1.0, 8)
        with pytest.raises(DomainError):
            estimate_kappa(-0.1, 8)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
    def test_monotone(self, r1, r2):
        lo, hi = sorted([r1, r2])
        assert estimate_kappa(lo, 8) <= estimate_kappa(hi, 8)

    @pytest.mark.parametrize("d", [3, 8, 64, 1024])
    def test_consistent_with_bessel_ratio(self, d):
        # Round trip through A_D recovers kappa within 5% for kappa >= D.
        for kappa in [d, 2.0 * d, 10.0 * d, 100.0 * d]:
            r = bessel_ratio(d, kappa)
            back = estimate_kappa(r, d)
            assert back == pytest.approx(kappa, rel=0.05)

    def test_consistency_bound_at_d2(self):
        # The closed form is weakest on the circle: worst round-trip error
        # there is ~6.5% (near kappa = 2D), inherent to the approximation.
        for kappa in [2.0, 4.0, 4.5, 20.0, 200.0]:
            back = estimate_kappa(bessel_ratio(2, kappa), 2)
            assert back == pytest.approx(kappa, rel=0.07)

    def test_clamped_variant_bounds(self):
        assert estimate_kappa_clamped(0.0, 8) == pytest.approx(1e-6)
        assert estimate_kappa_clamped(1.0, 8) <= 1e6
        assert estimate_kappa_clamped(0.999999999, 4) <= 1e6


class TestNormalize:
    """Single vectors, as (1, D) rows of normalize_rows."""

    def test_three_four(self):
        np.testing.assert_allclose(normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        v = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(normalize_rows(v), v)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            normalize_rows(np.array([[0.0, 0.0]]))

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
    )
    def test_scale_invariance(self, c, coords):
        v = np.asarray([coords])
        if np.linalg.norm(v) < 1e-3:
            return
        np.testing.assert_allclose(normalize_rows(c * v), normalize_rows(v), atol=1e-12)

    def test_rows_variant(self):
        m = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(normalize_rows(m), [[0.6, 0.8], [0.0, 1.0]])
        with pytest.raises(ZeroVectorError):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)),
                                   np.array([[1.0, np.nan]]), np.array([[np.inf, 1.0]])],
                             ids=["1-D", "3-D", "NaN", "inf"])
    def test_non_matrix_or_non_finite_rejected(self, m):
        with pytest.raises(DomainError):
            normalize_rows(m)

    def test_overflowing_norms_give_unit_rows(self):
        # the squared norm of these finite rows overflows
        m = np.array([[1e200, 1e200], [3.0, 4.0], [-1.7e308, 1e308]])
        got = normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(got[0], [0.5**0.5, 0.5**0.5], rtol=1e-15)
        np.testing.assert_array_equal(got[1], m[1] / 5.0)
        np.testing.assert_allclose(normalize_rows(np.array([[1e200, -1e200]])),
                                   [[0.5**0.5, -(0.5**0.5)]], rtol=1e-15)


class TestLogSumExp:
    def test_single_element_identity(self):
        assert log_sum_exp([3.7]) == 3.7

    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            log_sum_exp([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_plus_inf_rejected(self, bad):
        with pytest.raises(DomainError):
            log_sum_exp([0.0, bad])

    def test_neg_inf_entries(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_equivariance(self, values, c):
        arr = np.asarray(values)
        assert log_sum_exp(arr + c) == pytest.approx(log_sum_exp(arr) + c, abs=1e-10)

    def test_axis_reduction(self):
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            log_sum_exp(m, axis=1), [math.log(2.0), 1.0 + math.log(2.0)]
        )
