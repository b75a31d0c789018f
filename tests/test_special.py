"""Tests for the double factorial and the hypergeometric evaluators."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussgap.errors import ConvergenceError, DomainError, SeriesDivergenceError
from gaussgap.special import (double_factorial, euler_transform, hyp2f1,
                              hyp2f1_at_one, hyp2f1_derivative,
                              hyp2f1_minus_one, hyp3f2, hyp_integral_rep)


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestGammaFamily:
    def test_double_factorial_values(self):
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(0) == 1
        assert double_factorial(-1) == 1
        with pytest.raises(DomainError):
            double_factorial(-2)


class TestHyp2f1:
    def test_at_zero_is_exactly_one(self):
        assert hyp2f1(0.3, -2.2, 1.7, 0.0).value == 1.0

    def test_terminating_example(self):
        res = hyp2f1(-1.0, -1.0, 0.5, 0.25)
        assert res.value == pytest.approx(1.5, rel=1e-15)
        assert res.terminated
        assert res.terms_used == 2
        assert res.truncation_error_estimate == 0.0

    def test_log_identity(self):
        # F(1, 1; 2; z) = -log(1 - z) / z
        z = 0.5
        res = hyp2f1(1.0, 1.0, 2.0, z)
        assert rel_err(res.value, -math.log(1 - z) / z) < 1e-14
        assert res.truncation_error_estimate < 1e-14 * res.value

    def test_minus_one_matches_full_series(self):
        got = hyp2f1_minus_one(0.25, -0.6, 0.5, 0.49).value
        want = hyp2f1(0.25, -0.6, 0.5, 0.49).value - 1.0
        assert abs(got - want) < 1e-14

    def test_minus_one_tiny_z_no_cancellation(self):
        z = 1e-12
        got = hyp2f1_minus_one(-0.5, -0.5, 0.5, z).value
        # leading term a*b*z/c with a relative correction of order z
        assert rel_err(got, 0.5 * z) < 1e-9

    def test_z_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                hyp2f1(0.5, 0.5, 1.5, bad)

    def test_lower_parameter_validation(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, -2.0, 0.5)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            hyp2f1(0.15, 0.1, 0.5, 1.0 - 1e-9)

    @given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
           st.floats(0.3, 4.0), st.floats(0.0, 0.9))
    def test_symmetry_in_upper_parameters(self, a, b, c, z):
        left = hyp2f1(a, b, c, z).value
        right = hyp2f1(b, a, c, z).value
        assert math.isclose(left, right, rel_tol=1e-15, abs_tol=1e-300)

    @given(st.integers(0, 12), st.floats(-2.5, 2.5), st.floats(0.3, 4.0),
           st.floats(0.0, 0.99))
    def test_termination_invariant(self, m, b, c, z):
        res = hyp2f1(-float(m), b, c, z)
        assert res.terms_used <= m + 1
        assert res.truncation_error_estimate == 0.0 or z == 0.0

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.5, 5.0), st.floats(0.0, 0.9))
    def test_euler_transformation_identity(self, a, b, c, z):
        direct = hyp2f1(a, b, c, z).value
        assume(abs(direct) > 1e-3)  # relative bound needs F away from zero
        assert abs(euler_transform(a, b, c, z) - direct) <= 1e-10 * abs(direct)


class TestTruncationBoundAgainstReference:
    @pytest.mark.xfail(strict=True, reason=(
        "the stopping rule tests the size of a term, not of the tail, so "
        "near z = 1 the reported bound understates the error"))
    def test_bound_covers_error_near_one(self):
        mpmath = pytest.importorskip("mpmath")
        z = (1.0 - 1e-6) ** 2
        res = hyp2f1(-0.5, -0.5, 0.5, z)
        with mpmath.workdps(40):
            exact = mpmath.hyp2f1(-0.5, -0.5, 0.5, mpmath.mpf(z))
            error = float(abs(mpmath.mpf(res.value) - exact))
        assert error <= res.truncation_error_estimate


class TestHyp2f1AtOne:
    def test_gauss_summation_value(self):
        # also the arcsine series summed at its boundary
        assert rel_err(hyp2f1_at_one(0.5, 0.5, 1.5), math.pi / 2) < 1e-13

    def test_case_two_minimum_value(self):
        assert rel_err(hyp2f1_at_one(-0.5, 0.5, 1.5), math.pi / 4) < 1e-13

    def test_terminating_at_zero_order(self):
        assert hyp2f1_at_one(1.25, 0.0, 1.5) == 1.0

    def test_terminating_finite_sum(self):
        # F(-2, b; c; 1) = 1 - 2b/c + b(b+1)/(c(c+1))
        b, c = 0.7, 1.9
        want = 1 - 2 * b / c + (b * (b + 1)) / (c * (c + 1))
        assert rel_err(hyp2f1_at_one(-2.0, b, c), want) < 1e-14

    def test_divergence_error(self):
        with pytest.raises(SeriesDivergenceError):
            hyp2f1_at_one(1.25, 0.75, 1.5)  # balance = -0.5

    def test_balance_zero_is_divergent(self):
        with pytest.raises(SeriesDivergenceError):
            hyp2f1_at_one(0.5, 0.5, 1.0)

    def test_consistency_with_series_near_one(self):
        # Regime where the endpoint slope makes first-order agreement
        # predictable; see the selftest suite for the sampled version.
        for a, b, c in [(0.5, 0.5, 3.0), (-0.5, 1.0, 2.8), (1.2, -0.7, 2.9)]:
            near = hyp2f1(a, b, c, 1.0 - 1e-6).value
            lim = hyp2f1_at_one(a, b, c)
            assert rel_err(near, lim) < 1e-4


class TestDerivativeAndEuler:
    def test_derivative_at_zero(self):
        a, b, c = 0.7, -1.3, 2.1
        assert hyp2f1_derivative(a, b, c, 0.0) == pytest.approx(a * b / c,
                                                                rel=1e-15)

    def test_derivative_against_finite_difference(self):
        a, b, c, z = 1.0, 1.0, 2.0, 0.5
        h = 1e-6
        fd = (hyp2f1(a, b, c, z + h).value - hyp2f1(a, b, c, z - h).value) / (2 * h)
        assert rel_err(hyp2f1_derivative(a, b, c, z), fd) < 1e-6

    def test_terminating_derivative(self):
        # d/dz F(-1, b; c; z) = -b/c exactly
        b, c = 1.7, 2.4
        assert hyp2f1_derivative(-1.0, b, c, 0.37) == pytest.approx(
            -b / c, rel=1e-15)

    def test_derivative_rejects_pole_parameter(self):
        with pytest.raises(DomainError):
            hyp2f1_derivative(0.5, 0.5, 0.0, 0.3)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.6, 4.0), st.floats(0.05, 0.85))
    @settings(max_examples=40)
    def test_derivative_finite_difference_property(self, a, b, c, z):
        analytic = hyp2f1_derivative(a, b, c, z)
        assume(abs(analytic) > 1e-4)
        h = 1e-6
        fd = (hyp2f1(a, b, c, z + h).value
              - hyp2f1(a, b, c, z - h).value) / (2 * h)
        assert rel_err(analytic, fd) < 1e-6

    def test_euler_transform_at_zero(self):
        assert euler_transform(0.3, 0.9, 1.1, 0.0) == 1.0

    def test_euler_example_points(self):
        for a, b, c, z in [(0.25, 0.75, 1.5, 0.5), (0.5, 1.5, 2.5, 0.3)]:
            direct = hyp2f1(a, b, c, z).value
            assert abs(euler_transform(a, b, c, z) - direct) <= 1e-12 * abs(direct)


class TestHyp3f2:
    def test_at_zero(self):
        assert hyp3f2(0.3, 0.7, 1.0, 1.5, 2.0, 0.0).value == 1.0

    def test_terminating_zero_upper(self):
        # exponent pair (2, 2) sends both leading parameters to zero
        res = hyp3f2(0.0, 0.0, 1.0, 1.5, 2.0, 0.36)
        assert res.value == 1.0
        assert res.terminated

    def test_against_integral_representation(self):
        got = hyp3f2(1.25, 0.75, 1.0, 1.5, 2.0, 0.25)
        want = hyp_integral_rep(1.25, 0.75, 1.0, 1.5, 2.0, 0.25)
        assert rel_err(got.value, want) < 1e-8

    def test_at_one_convergence_condition(self):
        with pytest.raises(SeriesDivergenceError):
            hyp3f2(1.0, 1.0, 1.0, 1.5, 1.5, 1.0)  # balance 0, diverges
        # terminating at z = 1 is fine
        assert hyp3f2(0.0, 2.0, 1.0, 1.5, 2.0, 1.0).value == 1.0

    def test_lower_validation(self):
        with pytest.raises(DomainError):
            hyp3f2(0.5, 0.5, 1.0, -1.0, 2.0, 0.5)


class TestIntegralRepresentation:
    def test_at_zero(self):
        assert abs(hyp_integral_rep(0.4, 0.8, 1.0, 1.5, 2.0, 0.0) - 1.0) < 1e-9

    def test_weighted_kernel_normalizes(self):
        # non-flat Beta weight, inner series constant
        assert abs(hyp_integral_rep(0.0, 0.8, 0.5, 1.5, 2.0, 0.7) - 1.0) < 1e-8

    def test_gap_bracket_identity(self):
        # 3F2(1-a1/2, 1-a2/2, 1; 3/2, 2; r2) relates to the 2F1 tail:
        # (2 / (a1 a2 r2)) * [F(-a1/2, -a2/2; 1/2; r2) - 1]
        a1 = a2 = 1.0
        r2 = 0.25
        lhs = hyp_integral_rep(1 - a1 / 2, 1 - a2 / 2, 1.0, 1.5, 2.0, r2)
        rhs = (2.0 / (a1 * a2 * r2)) * hyp2f1_minus_one(
            -a1 / 2, -a2 / 2, 0.5, r2).value
        assert rel_err(lhs, rhs) < 1e-8

    def test_precondition(self):
        with pytest.raises(DomainError):
            hyp_integral_rep(0.5, 0.5, 2.5, 1.5, 2.0, 0.5)  # b2 <= a3


class TestSeriesDiagnostics:
    def test_truncation_estimate_bounds_true_tail(self):
        # compare against a much higher-precision summation target
        res = hyp2f1(0.3, 0.8, 1.4, 0.7)
        anchor = euler_transform(0.3, 0.8, 1.4, 0.7)
        assert abs(res.value - anchor) <= res.truncation_error_estimate + 1e-13

    def test_terms_used_counts_summed_terms(self):
        res = hyp2f1(-3.0, 1.1, 0.9, 0.5)
        assert res.terms_used == 4  # n = 0..3
