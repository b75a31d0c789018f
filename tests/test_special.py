"""Tests for the double factorial and the hypergeometric evaluators."""

import math
import random
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussgap import special, verify
from gaussgap.errors import ConvergenceError, DomainError, SeriesDivergenceError
from gaussgap.special import (MAX_TERMS, double_factorial, euler_transform,
                              hyp2f1, hyp2f1_at_one, hyp2f1_derivative,
                              hyp2f1_minus_one, hyp3f2)
from reference_routes import hyp_integral_rep

EPS = 2.0 ** -52


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

    @pytest.mark.parametrize("a, terminates", [(0.3, False), (-3.0, True),
                                               (0.0, True)])
    def test_zero_argument_sums_only_the_constant(self, a, terminates):
        full = hyp2f1(a, -2.2, 1.7, 0.0)
        tail = hyp2f1_minus_one(a, -2.2, 1.7, 0.0)
        assert (full.value, full.terms_used) == (1.0, 1)
        assert (tail.value, tail.terms_used) == (0.0, 0)
        for res in (full, tail):
            assert res.truncation_error_estimate == 0.0
            assert res.terminated is terminates

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
        with pytest.raises(ConvergenceError) as exc:
            hyp2f1(0.15, 0.1, 0.5, 1.0 - 1e-9)
        assert exc.value.terms_used == MAX_TERMS + 1  # n = 0..MAX_TERMS
        assert exc.value.partial_value is None  # certified, not summed

    @given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
           st.floats(0.3, 4.0), st.floats(0.0, 0.9))
    def test_symmetry_in_upper_parameters(self, a, b, c, z):
        left = hyp2f1(a, b, c, z).value
        right = hyp2f1(b, a, c, z).value
        assert math.isclose(left, right, rel_tol=1e-15, abs_tol=1e-300)

    @given(st.integers(0, 12), st.floats(-2.5, 2.5), st.floats(0.3, 4.0),
           st.floats(0.0, 0.99))
    def test_termination_invariant(self, m, b, c, z):
        # A polynomial is summed exactly up to rounding: the error of F and
        # of F - 1 is a few eps times sum |t_k|, the condition number
        # times |S|, plus underflow, and no truncation is reported.
        mpmath = pytest.importorskip("mpmath")
        full = hyp2f1(-float(m), b, c, z)
        tail = hyp2f1_minus_one(-float(m), b, c, z)
        assert full.terms_used <= m + 1
        assert tail.terms_used <= m
        with mpmath.workdps(50):
            b_, c_, z_ = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(z)
            term, terms = mpmath.mpf(1), []
            for k in range(m):
                term *= (k - m) * (b_ + k) / ((c_ + k) * (k + 1)) * z_
                terms.append(term)
            want = mpmath.fsum(terms)
            scale = mpmath.fsum(abs(t) for t in terms)
            for res, exact, size in ((full, 1 + want, 1 + scale),
                                     (tail, want, scale)):
                assert res.terminated
                assert res.truncation_error_estimate == 0.0
                assert abs(res.value - exact) <= 8 * EPS * size + 1e-300

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

    def test_terminating_is_chu_vandermonde(self):
        # F(-m, b; c; 1) = (c - b)_m / (c)_m, also when b leads
        assert hyp2f1_at_one(0.7, -3.0, 1.9) == \
            pytest.approx(1.2 * 2.2 * 3.2 / (1.9 * 2.9 * 3.9), rel=1e-15)
        assert hyp2f1_at_one(-1.0, -3.0, 0.5) == pytest.approx(7.0, rel=1e-15)

    @pytest.mark.parametrize("b", [0.45, 0.25, -0.25])
    def test_terminating_against_mpmath(self, b):
        # the alternating finite sum cancels here as m grows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for m in range(101):
                want = mpmath.hyp2f1(-m, b, 0.5, 1)
                got = hyp2f1_at_one(-float(m), b, 0.5)
                assert float(abs((got - want) / want)) < 1e-13, m

    def test_terminating_overflow_is_domain_error(self):
        # m = 500: (1000.5)_500 / (0.5)_500 is about 3e414
        with pytest.raises(DomainError, match="overflows"):
            hyp2f1_at_one(-1000.0, -500.0, 0.5)

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

    def test_rejects_z_one(self):
        # z = 1 lies outside [0, 1) whether the series diverges or terminates
        with pytest.raises(DomainError):
            hyp3f2(1.0, 1.0, 1.0, 1.5, 1.5, 1.0)  # balance 0
        with pytest.raises(DomainError):
            hyp3f2(0.0, 2.0, 1.0, 1.5, 2.0, 1.0)  # terminating

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

    @pytest.mark.parametrize("a, full_terms", [(-0.75, 1), (-1.0, 2)])
    def test_minus_one_counts_from_its_first_term(self, a, full_terms):
        # At z = 1e-20 the n = 1 term stops the sum of F unless the series
        # is a polynomial (a = -1), but it is the first term of F - 1.
        assert hyp2f1(a, -0.25, 0.5, 1e-20).terms_used == full_terms
        assert hyp2f1_minus_one(a, -0.25, 0.5, 1e-20).terms_used == 1

    def test_error_counts_its_partial_sum(self):
        # the n = 1 term is 5e299, the n = 2 term overflows
        a, c, z = 1e150, 1.0, 0.5
        with pytest.raises(DomainError, match="overflows float64"):
            hyp2f1(a, a, c, z)
        with pytest.raises(DomainError, match="overflows float64"):
            hyp2f1_minus_one(a, a, c, z)

    @pytest.mark.parametrize("nums, dens, q", [
        ((0.5, 0.25), (0.0,), 0.0),
        ((0.5, 0.25), (-1.0,), -1.0),
        ((0.5, 0.25, 1.0), (math.nan, -1.0), -1.0),  # behind a NaN
    ])
    @pytest.mark.parametrize("skip_first", [False, True])
    def test_pole_denominator_ends_its_row_up_front(self, nums, dens, q,
                                                     skip_first):
        # beside a row that sums, with no warning and no bare
        # ZeroDivisionError: the public routes' own DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad, good = special._sum_pfq([(nums, dens, 0.5, skip_first),
                                          (nums, (0.5,) * len(dens), 0.5,
                                           True)])
        assert type(bad) is DomainError
        assert str(bad) == (f"hyp{len(nums)}f{len(dens)} lower parameter "
                            f"must not be a non-positive integer, got {q}")
        assert bad.__traceback__ is None
        assert type(good) is special.SeriesResult
        if len(dens) == 1:
            with pytest.raises(DomainError) as exc:
                (hyp2f1_minus_one if skip_first else hyp2f1)(*nums, q, 0.5)
            assert str(exc.value) == str(bad)

    def test_overflowed_partial_sum_is_an_error(self):
        # the partial sum overflows to inf, and a later, smaller term of the
        # same block meets the stop rule against it (at n = 857)
        with pytest.raises(DomainError, match="overflows float64"):
            hyp2f1(448.70869061483916, 222.29226294153736,
                   27.233666875872927, 0.5208076572560097)

    @pytest.mark.parametrize("fn, args", [
        # F = (1 - z)^(1/2) = 0.0316 (mpmath), and F - 1 = -0.968; z a
        # rounds to the subnormal 5e-324, and times b to 0
        (hyp2f1, (5e-324, -0.5, 5e-324, 0.999)),
        (hyp2f1_minus_one, (5e-324, -0.5, 5e-324, 0.999)),
        # F - 1 = 6.9315e-21 (mpmath); z a b is the subnormal 5e-321, which
        # keeps 5 digits
        (hyp2f1_minus_one, (1e-300, 1e-20, 1e-300, 0.5))])
    def test_subnormal_first_ratio_is_an_error(self, fn, args):
        with pytest.raises(DomainError, match="loses precision midway"):
            fn(*args)

    def test_precise_subnormal_partial_sums(self):
        # z a b is half the least normal float, exactly: the sum is right
        tiny = 2.2250738585072014e-308
        assert hyp2f1(1.0, 0.5, 0.5, tiny).value == 1.0
        assert hyp2f1_minus_one(1.0, 0.5, 0.5, tiny).value == tiny
        # z a rounds below the least precise size, a b / c z does not: the
        # first term is taken in that order, and the next one underflows
        z = 1.2e-155 * 1.2e-155
        assert hyp2f1_minus_one(-10.0, -10.0, 0.5, z).value == 200.0 * z


def _reference_sum(nums, dens, z, skip_first=False):
    """The block recurrence of ``special._sum_pfq`` read term by term in
    plain floats: blocks of ``_BLOCK_START`` terms doubling to
    ``_BLOCK_MAX``, ratio z (p0 + k) (p1 + k) ... / (q0 + k) / ... / n,
    t = term * cumprod(ratio), S = total + cumsum(t) within a block, and
    the stop rule against the term and partial sum before each term.  A
    stop whose partial sum before it is not finite, like a block that ends
    on a term or partial sum that is not, raises ``DomainError``.  The
    first term of F - 1 is taken in the blocks' order only: where that
    order loses precision, ``special._first_ratio`` takes another or
    refuses the row, so such rows are not compared here."""
    exact = any(p <= 0 and float(p).is_integer() for p in nums)
    first = 1 if skip_first else 0
    if skip_first:
        term = z
        for p in nums:
            term *= p
        for q in dens:
            term /= q
        if term == 0.0:
            return special.SeriesResult(0.0, 0, 0.0, exact)
        total, n = term, 2
    else:
        term = total = 1.0
        n = 1
    block = special._BLOCK_START
    while n <= special.MAX_TERMS:
        m = min(block, special.MAX_TERMS + 1 - n)
        t_prev, s_prev = term, total
        for i in range(m):
            k = float(n + i - 1)
            ratio = z * (nums[0] + k)
            for p in nums[1:]:
                ratio *= p + k
            for q in dens:
                ratio /= q + k
            ratio /= k + 1.0
            prod = ratio if i == 0 else prod * ratio
            t = term * prod
            csum = t if i == 0 else csum + t
            s = total + csum
            if exact:
                stop = t == 0.0
            else:
                stop = (abs(t) <= special.SERIES_EPS * abs(s_prev)
                        and abs(t) < abs(t_prev))
            if stop:
                # a partial sum that overflowed before the stop is no value
                if not math.isfinite(s_prev):
                    break
                tail = 0.0 if exact else abs(t) / (1.0 - abs(t) / abs(t_prev))
                return special.SeriesResult(s_prev, n + i - first, tail, exact)
            t_prev, s_prev = t, s
        if stop or not (math.isfinite(t_prev) and math.isfinite(s_prev)):
            raise DomainError("series term or partial sum overflows float64; "
                              "exponents are too large")
        term, total = t_prev, s_prev
        n += m
        block = min(2 * block, special._BLOCK_MAX)
    raise ConvergenceError(
        f"series did not meet the stopping criterion within "
        f"{special.MAX_TERMS} terms (z = {z} too close to 1)",
        partial_value=total, terms_used=n - first)


def _described(result):
    """repr of a result, or of an error with its partial sum and count,
    so that -0.0, nan and every last bit count."""
    if isinstance(result, (ConvergenceError, DomainError)):
        return repr((type(result).__name__, str(result),
                     getattr(result, "partial_value", None),
                     getattr(result, "terms_used", None)))
    return repr(tuple(result))


def _outcome(fn, *args, **kwargs):
    """``_described`` of what ``fn(*args, **kwargs)`` returns or raises."""
    try:
        return _described(fn(*args, **kwargs))
    except (ConvergenceError, DomainError) as exc:
        return _described(exc)


def _never_certain(nums, dens, z):
    """``special._cap_certain`` switched off: every row is summed."""
    return False


class TestBlockKernelBitForBit:
    """``_sum_pfq`` against the scalar block recurrence, bit for bit, with
    small blocks and a small term cap so that long sums, steady blocks
    and the cap take milliseconds.  The cap certificate is off, so that
    every row that reaches the cap is summed to it, partial sum included."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(special, "_BLOCK_MAX", 256)
        monkeypatch.setattr(special, "MAX_TERMS", 5000)
        monkeypatch.setattr(special, "_cap_certain", _never_certain)

    @pytest.mark.parametrize("nums, dens, z", [
        ((-0.075, -0.05), (0.5,), 0.999),         # slow: runs into the cap
        ((0.25, 0.5), (0.5,), 0.99),              # stops in a steady block
        ((-0.5, -0.25), (0.5,), 0.995),
        ((-600.0, 0.45), (0.5,), 0.9),            # exact, into a steady block
        ((-7.0, 1.25), (0.5,), 0.5),              # exact, first block
        ((0.3, 0.8, 1.2), (1.4, 2.1), 0.993),     # 3F2
        ((-0.75, -0.25), (0.5,), 1e-20),          # stops at once
        ((-0.25, -0.75), (0.5,), 5e-324),         # subnormal z
        ((1e150, 1e150), (1.0,), 0.5),            # overflows
        ((300.5, 300.5), (0.5,), 0.97),           # overflows in a later block
        ((-0.5, 0.25), (0.5,), 0.99),             # negative terms
        ((572.0, 742.0), (5.65,), 0.096),         # S grows where it stops
        ((448.70869061483916, 222.29226294153736), (27.233666875872927,),
         0.5208076572560097),                     # S overflows, then stops
    ])
    @pytest.mark.parametrize("skip_first", [False, True])
    def test_cases(self, nums, dens, z, skip_first):
        assert (_outcome(special._sum_one, nums, dens, z, skip_first)
                == _outcome(_reference_sum, nums, dens, z, skip_first))

    def test_random_sums(self):
        rng = random.Random(14)
        for _ in range(200):
            a = rng.choice([rng.uniform(-3, 10), -float(rng.randint(0, 800))])
            nums = [a, rng.uniform(-3, 10)]
            dens = [rng.uniform(0.1, 4)]
            if rng.random() < 0.25:
                nums.append(rng.uniform(-2, 4))
                dens.append(rng.uniform(0.1, 4))
            z = rng.choice([rng.random(), 1 - 10 ** rng.uniform(-6, -1)])
            skip_first = rng.random() < 0.5
            assert (_outcome(special._sum_one, nums, dens, z, skip_first)
                    == _outcome(_reference_sum, nums, dens, z, skip_first))

    def test_random_batch(self):
        # 150 rows, about 4 to a group of the 64-term first block, mixing
        # F and F - 1 rows, polynomials, subnormal and zero arguments,
        # zero first terms, overflows and rows that reach the term cap
        rng = random.Random(16)
        series = []
        for _ in range(150):
            kind = rng.randrange(6)
            if kind == 0:
                a = -float(rng.randint(0, 800))
            elif kind == 1:
                a = rng.choice([1e150, 300.5])
            else:
                a = rng.uniform(-3, 10)
            b = rng.choice([rng.uniform(-3, 10), -0.05, 0.0])
            z = rng.choice([rng.random(), 1 - 10 ** rng.uniform(-6, -1),
                            5e-324, 0.0, 0.999])
            series.append(((a, b), (rng.uniform(0.1, 4),), z,
                           rng.random() < 0.5))
        assert special._BLOCK_MAX // special._BLOCK_START < len(series)
        got = [_described(r) for r in special._sum_pfq(series)]
        want = [_outcome(_reference_sum, *s) for s in series]
        assert got == want
        kinds = {w.split("'")[1] if w.startswith("('") else "result"
                 for w in want}
        assert kinds == {"result", "DomainError", "ConvergenceError"}

    def test_batch_of_three_term_series(self):
        rng = random.Random(3)
        series = [((rng.uniform(-2, 4), rng.uniform(-2, 4), -7.0 * i),
                   (rng.uniform(0.1, 4), rng.uniform(0.1, 4)),
                   rng.choice([0.5, 0.993]), i % 2 == 1) for i in range(12)]
        assert ([_described(r) for r in special._sum_pfq(series)]
                == [_outcome(_reference_sum, *s) for s in series])

    @pytest.mark.parametrize("nums, dens, z", [
        ((-0.5, -0.25), (0.5,), 0.995),        # F stops first
        ((2.96, 2.16), (0.45,), -0.93),        # alternating: F - 1 first
        ((-0.075, -0.05), (0.5,), 0.999),      # both reach the cap
        ((-600.0, 0.45), (0.5,), 0.9),         # exact
        ((300.5, 300.5), (0.5,), 0.97),        # overflows
    ])
    @pytest.mark.parametrize("layout", ["F first", "F - 1 first",
                                        "beside a row", "beside another z",
                                        "two F rows"])
    def test_pairs(self, nums, dens, z, layout):
        # a key's F and F - 1 rows share their term ratios, and keep their
        # lone bits
        f_row, g_row = (nums, dens, z, False), (nums, dens, z, True)
        series = {
            "F first": [f_row, g_row],
            "F - 1 first": [g_row, f_row],
            "beside a row": [g_row, ((0.25, 0.5), (0.5,), 0.99, True), f_row],
            "beside another z": [g_row, (nums, dens, 0.999 * z, False),
                                 (nums, dens, 0.999 * z, True), f_row],
            "two F rows": [f_row, g_row, f_row],
        }[layout]
        assert ([_described(r) for r in special._sum_pfq(series)]
                == [_outcome(_reference_sum, *s) for s in series])

    def test_pair_at_the_cap_with_a_whole_last_block(self, monkeypatch):
        # the F row's last block of 256 terms ends at the cap, one term
        # before the F - 1 row's would
        monkeypatch.setattr(special, "MAX_TERMS", 5056)
        series = [((-0.075, -0.05), (0.5,), 0.999, skip)
                  for skip in (False, True)]
        assert ([_described(r) for r in special._sum_pfq(series)]
                == [_outcome(_reference_sum, *s) for s in series])

    def test_pair_at_the_cap_in_a_short_round(self, monkeypatch):
        # after the 64-term block the 128-term round is cut to 86 terms for
        # F and 85 for F - 1, which ends both at the cap
        monkeypatch.setattr(special, "MAX_TERMS", 150)
        series = [((-0.075, -0.05), (0.5,), 0.999, skip)
                  for skip in (False, True)]
        results = special._sum_pfq(series)
        assert ([_described(r) for r in results]
                == [_outcome(_reference_sum, *s) for s in series])
        assert [type(r) for r in results] == [ConvergenceError] * 2
        assert [r.terms_used for r in results] == [151, 150]

    @pytest.mark.parametrize("nums, dens, z", [
        ((0.0, 0.5), (0.5,), 0.3),                # exact, degree 0
        ((-0.0, 0.5), (0.5,), 0.3),
        ((0.25, 0.5), (0.5,), 5e-324),            # the first term underflows
        ((0.25, 0.5), (0.5,), 0.0),
        ((0.25, 0.5), (0.5,), -0.0),
    ])
    def test_zero_first_term_beside_its_f_row(self, nums, dens, z):
        series = [(nums, dens, z, True), (nums, dens, z, False),
                  ((0.25, 0.5), (0.5,), 0.99, True)]
        assert ([_described(r) for r in special._sum_pfq(series)]
                == [_outcome(_reference_sum, *s) for s in series])

    def test_exact_and_inexact_units_in_one_group(self):
        # four units, one group of the 64-term block: exact and inexact
        # rows side by side in each kind's slice; the exact pair's terms
        # meet the relative rule long before its zero term
        exact, inexact = ((-60.0, 0.5), (0.5,), 1e-3), ((0.3, 0.5), (0.5,), 0.9)
        series = [(*exact, True), (*inexact, False), (*inexact, True),
                  (*exact, False), ((-40.0, 0.25), (1.5,), 0.7, False),
                  ((-0.5, 0.25), (0.5,), 0.99, True)]
        assert special._BLOCK_MAX // special._BLOCK_START == 4
        assert ([_described(r) for r in special._sum_pfq(series)]
                == [_outcome(_reference_sum, *s) for s in series])

    def test_errors_are_unraised(self):
        results = special._sum_pfq([((-0.075, -0.05), (0.5,), 0.999, False),
                                    ((1e150, 1e150), (1.0,), 0.5, True)])
        assert [type(r) for r in results] == [ConvergenceError, DomainError]
        assert all(r.__traceback__ is None for r in results)


class TestKernelAtProductionSize:
    """``_sum_pfq`` with the real ``_BLOCK_MAX`` and ``MAX_TERMS``: the
    steady blocks at their full shape."""

    def test_pair_through_three_steady_blocks(self):
        # the rows stop after 217,303 and 218,321 terms
        series = [((0.25, 0.5), (0.5,), 0.9999, skip)
                  for skip in (False, True)]
        results = special._sum_pfq(series)
        assert [r.terms_used for r in results] == [217_303, 218_321]
        assert ([_described(r) for r in results]
                == [_outcome(_reference_sum, *s) for s in series])

    def test_peak_memory_of_a_long_pair(self):
        # 421,224 and 422,919 terms: at most eight arrays of one steady
        # block, its carried column included, live at once
        series = [((0.25, 0.5), (0.5,), 0.99995, skip)
                  for skip in (False, True)]
        special._sum_pfq(series)
        tracemalloc.start()
        try:
            special._sum_pfq(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * (special._BLOCK_MAX + 1)


def _cap_rows(a, b, c, z, layout):
    f_row, g_row = ((a, b), (c,), z, False), ((a, b), (c,), z, True)
    return {"pair": [f_row, g_row], "F": [f_row], "F - 1": [g_row]}[layout]


class TestCapCertificate:
    """``special._cap_certain`` ends a 2F1 row that provably cannot stop
    within the term cap as the loop would end it there."""

    @given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(-7.0, -1.0),
           st.sampled_from(["pair", "F", "F - 1"]))
    @settings(max_examples=150, deadline=None)
    def test_certified_rows_reach_the_cap(self, c, u, v, e, layout):
        # a, b in (-1, c] and z = 1 - 10^e: with a cap of 3,000 terms most
        # such rows are certified, and only those are kept
        a, b = c - (1.0 + c) * u, c - (1.0 + c) * v
        z = 1.0 - 10.0 ** e
        assume(-1.0 < a and -1.0 < b and c - a - b > 0.0)
        with mock.patch.object(special, "MAX_TERMS", 3000), \
                mock.patch.object(special, "_BLOCK_MAX", 256):
            assume(special._cap_certain((a, b), (c,), z))
            rows = _cap_rows(a, b, c, z, layout)
            certified = special._sum_pfq(rows)
            with mock.patch.object(special, "_cap_certain", _never_certain):
                summed = special._sum_pfq(rows)
        for got, want in zip(certified, summed):
            assert type(want) is type(got) is ConvergenceError
            assert (str(got), got.terms_used) == (str(want), want.terms_used)
            assert got.partial_value is None
            assert want.partial_value is not None

    @pytest.mark.parametrize("nums", [(0.05, 0.04), (0.24, 0.24),
                                      (-0.9, -0.8), (0.45, -0.7)])
    def test_the_certified_line_is_tight(self, nums):
        # along z for one key, with a cap of 3,000 terms: every certified z
        # runs into the cap, and the rows of every z but the few just below
        # the first certified one stop in the loop
        dens = (0.5,)
        certain, capped = [], []
        with mock.patch.object(special, "MAX_TERMS", 3000), \
                mock.patch.object(special, "_BLOCK_MAX", 256):
            for i in range(60):
                z = 1.0 - 10.0 ** (-2.0 - i / 60.0)
                certain.append(special._cap_certain(nums, dens, z))
                with mock.patch.object(special, "_cap_certain",
                                       _never_certain):
                    capped.append(all(
                        isinstance(r, ConvergenceError) for r in
                        special._sum_pfq(_cap_rows(*nums, *dens, z, "pair"))))
        first = certain.index(True)
        assert all(certain[first:]) and not any(certain[:first])
        assert all(capped[first:])
        assert 0 < capped.index(True) and first - capped.index(True) <= 4

    @pytest.mark.parametrize("nums, dens", [
        ((-1.0, 0.05), (0.5,)),                   # exact
        ((-3.0, 0.05), (0.5,)),                   # exact, a <= -1
        ((0.0, 0.05), (0.5,)),                    # a = 0: exact
        ((0.05, -0.0), (0.5,)),                   # b = 0
        ((0.05, 0.04, 1.0), (1.5, 2.0)),          # 3F2
        ((0.25, 0.25), (0.5,)),                   # c - a - b = 0
        ((0.3, 0.25), (0.5,)),                    # c - a - b < 0
        ((0.05, 0.04), (1.5,)),                   # c > 1
        ((0.6, 0.04), (0.5,)),                    # a > c
    ])
    def test_declines(self, nums, dens):
        z = 1.0 - 1e-12
        assert special._cap_certain((0.05, 0.04), (0.5,), z)
        assert not special._cap_certain(nums, dens, z)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_declines_z_outside_the_open_interval(self, z):
        assert not special._cap_certain((0.05, 0.04), (0.5,), z)

    def test_asked_once_per_unit_at_the_first_steady_round(self):
        # one unit stops in the short blocks, two uncertified units at
        # different z and a certified pair run into the steady blocks
        asked = []
        certain = special._cap_certain

        def counting(nums, dens, z):
            asked.append((tuple(nums), tuple(dens), z))
            return certain(nums, dens, z)

        short = ((-0.25, -0.45), (0.5,), 0.5625)
        slow = [((0.25, 0.5), (0.5,), 0.99), ((-0.5, -0.25), (0.5,), 0.995)]
        capped = ((0.05, 0.04), (0.5,), 1.0 - 1e-12)
        series = [(*short, False), (*slow[0], True), (*capped, False),
                  (*slow[1], False), (*capped, True)]
        with mock.patch.object(special, "MAX_TERMS", 3000), \
                mock.patch.object(special, "_BLOCK_MAX", 256):
            lone = [special._sum_pfq([row])[0] for row in series]
            with mock.patch.object(special, "_cap_certain", counting):
                batch = special._sum_pfq(series)
        assert sorted(asked) == sorted([*slow, capped])
        assert [_described(r) for r in batch] == [_described(r) for r in lone]
        # the first steady round starts at n = 1 + 256 - 64
        assert [r.terms_used > 192 for r in lone] == [False, True, True,
                                                      True, True]
        assert [r.partial_value for r in (lone[2], lone[4])] == [None, None]

    def test_default_grid_never_asks(self):
        # the default grid's sums all stop in the short blocks
        asked, batches = [], []
        summed = special._sum_pfq
        with mock.patch.object(special, "_cap_certain",
                               lambda *args: asked.append(args)), \
             mock.patch.object(special, "_sum_pfq", lambda series: (
                 batches.append(len(series)) or summed(series))):
            verify.row_cores(verify.SweepConfig().grid())
        assert batches == [900]
        assert asked == []

    def test_at_the_real_cap(self):
        # near-one seed 1's key of alpha (-0.0967, -0.0923): at
        # rho^2 = 1 - 9.4e-9 both rows run into the cap, but at
        # 1 - 2.0e-7 the F - 1 row stops, after 42.7M terms
        nums, dens = (0.04836998885793936, 0.04615706786144397), (0.5,)
        assert special._cap_certain(nums, dens, 0.9999999906300097)
        z = 0.9999997964227408
        assert not special._cap_certain(nums, dens, z)
        tail = hyp2f1_minus_one(*nums, *dens, z)
        assert 42_000_000 < tail.terms_used < MAX_TERMS
