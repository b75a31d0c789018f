"""Tests for the closed-form moments and the product-moment gap."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgap import moments, oracles, special, verify
from gaussgap.errors import ConvergenceError, DomainError
from gaussgap.moments import (abs_moment_1d, gap, gap_via_3f2, product_moment,
                              product_of_marginals, series_factor)
from gaussgap.types import Estimate, MomentSpec

# E[|X1| |X2|] for unit variances via the classical arcsine closed form,
# an oracle independent of the hypergeometric machinery.
def arcsine_product_moment(rho):
    return (2.0 / math.pi) * (rho * math.asin(rho) + math.sqrt(1 - rho * rho))


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestAbsMoment1d:
    def test_variance(self):
        assert abs_moment_1d(1.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_normal_mean(self):
        assert abs_moment_1d(1.0, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_zeroth_moment(self):
        assert abs_moment_1d(2.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_singular_exponent_value(self):
        # 2^-0.45 Gamma(0.05) / sqrt(pi); cross-checked by quadrature in
        # the oracle tests
        assert rel_err(abs_moment_1d(1.0, -0.9), 8.0413584219659848) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            abs_moment_1d(0.0, 1.0)
        with pytest.raises(DomainError):
            abs_moment_1d(1.0, -1.0)

    def test_large_exponent_survives(self):
        val = abs_moment_1d(1.0, 50.0)
        assert math.isfinite(val) and val > 1e30

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            abs_moment_1d(1.0, 400.0)


class TestProductOfMarginals:
    def test_unit_variances(self):
        assert product_of_marginals(MomentSpec(1, 1, 2, 2, 0.3)) == \
            pytest.approx(1.0, rel=1e-14)

    def test_half_normal_pair(self):
        assert product_of_marginals(MomentSpec(1, 1, 1, 1, -0.7)) == \
            pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_mixed(self):
        assert product_of_marginals(MomentSpec(2, 1, 2, 0, 0.2)) == \
            pytest.approx(4.0, rel=1e-14)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(-0.95, 12.0), st.floats(-0.95, 12.0))
    def test_factorizes(self, s1, s2, a1, a2):
        spec = MomentSpec(s1, s2, a1, a2, 0.4)
        split = abs_moment_1d(s1, a1) * abs_moment_1d(s2, a2)
        assert rel_err(product_of_marginals(spec), split) < 1e-14

    @given(st.floats(0.1, 5.0), st.floats(12.0, 50.0), st.floats(12.0, 50.0))
    def test_factorizes_large_exponents(self, s1, a1, a2):
        # log-space rounding grows with the log magnitude; scale the bound
        spec = MomentSpec(s1, 2.0, a1, a2, 0.4)
        split = abs_moment_1d(s1, a1) * abs_moment_1d(2.0, a2)
        log_mag = abs(math.log(split))
        assert rel_err(product_of_marginals(spec), split) < (10 + log_mag) * 1e-15


class TestProductMoment:
    def test_independent_case_factorizes(self):
        spec = MomentSpec(1, 1, 1, 1, 0.0)
        assert product_moment(spec) == Estimate(
            pytest.approx(2.0 / math.pi, rel=1e-14), 0.0)

    def test_arcsine_closed_form(self):
        got = product_moment(MomentSpec(1, 1, 1, 1, 0.5)).value
        assert rel_err(got, arcsine_product_moment(0.5)) < 1e-13
        assert rel_err(got, 0.7179955620884587) < 1e-13

    def test_fourth_moment_identity(self):
        # E[X1^2 X2^2] = 1 + 2 rho^2 for unit variances
        got = product_moment(MomentSpec(1, 1, 2, 2, 0.6)).value
        assert got == pytest.approx(1.72, rel=1e-14)

    def test_error_estimate_is_p_times_truncation_bound(self):
        spec = MomentSpec(0.5, 2.0, 1.5, -0.5, 0.75)
        series = series_factor(spec, False)
        p = product_of_marginals(spec)
        assert series.truncation_error_estimate > 0.0
        assert product_moment(spec) == Estimate(
            p * series.value, p * series.truncation_error_estimate)

    def test_degenerate_unequal_scales(self):
        # X2 = +-2 X1, so E[|X1| |X2|] = 2 E[X1^2] = 2 for any sign
        assert product_moment(MomentSpec(1, 2, 1, 1, 1.0)).value == \
            pytest.approx(2.0, rel=1e-14)
        assert gap(MomentSpec(1, 2, 1, 1, -1.0)) == \
            pytest.approx(2.0 - 4.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("spec", [
        MomentSpec(1, 1, 1, 1, 1.0), MomentSpec(2, 2, 1.5, -0.5, -1.0),
        MomentSpec(0.5, 0.5, -0.6, -0.5, 1.0)])
    def test_degenerate_rho_is_the_rho_one_moment(self, spec):
        # sigma1^a1 sigma2^a2 E[|Z|^(a1 + a2)], +inf where not integrable
        a1, a2 = spec.alpha1, spec.alpha2
        want = (spec.sigma1 ** a1 * spec.sigma2 ** a2
                * abs_moment_1d(1.0, a1 + a2) if a1 + a2 > -1 else math.inf)
        assert product_moment(spec) == Estimate(
            pytest.approx(want, rel=1e-14), 0.0)

    @given(st.floats(-0.95, 0.95))
    @settings(max_examples=30)
    def test_arcsine_sweep(self, rho):
        got = product_moment(MomentSpec(1, 1, 1, 1, rho)).value
        assert rel_err(got, arcsine_product_moment(rho)) < 1e-12


class TestProductMomentRhoOne:
    """``product_moment`` at |rho| = 1, where it is P * F(1)."""

    def test_unit_pair(self):
        # equals E[X1^2] = 1
        assert abs(product_moment(MomentSpec(1, 1, 1, 1, 1.0)).value - 1.0) \
            < 1e-13

    def test_negative_exponents_integrable(self):
        got = product_moment(MomentSpec(1, 1, -0.5, -0.4, 1.0)).value
        assert rel_err(got, abs_moment_1d(1.0, -0.9)) < 1e-14
        assert rel_err(got, 8.0413584219659848) < 1e-13

    def test_non_integrable_sentinel(self):
        assert product_moment(MomentSpec(1, 1, -0.6, -0.5, 1.0)).value \
            == math.inf

    def test_unequal_scales(self):
        # X2 = (sigma2 / sigma1) X1: sigma2^a2 E[|X1|^(a1 + a2)]
        got = product_moment(MomentSpec(1, 2, 1, 3, 1.0)).value
        assert rel_err(got, 8.0 * abs_moment_1d(1.0, 4.0)) < 1e-14
        assert rel_err(got, 24.0) < 1e-14

    def test_negative_rho_allowed(self):
        assert abs(product_moment(MomentSpec(1, 1, 1, 1, -1.0)).value - 1.0) \
            < 1e-13

    def test_monte_carlo_agrees_with_unequal_scales(self):
        spec = MomentSpec(1, 2, 1, 1, 1.0)
        est = oracles.mc_product_moment(spec, oracles.McConfig(200_000, 7))
        want = product_moment(spec).value
        assert want == pytest.approx(2.0, rel=1e-14)
        assert abs(est.value - want) < 4 * est.error_estimate


class TestGap:
    def test_zero_correlation_is_exactly_zero(self):
        assert gap(MomentSpec(2, 0.5, 1.3, 0.4, 0.0)) == 0.0

    def test_terminating_pair(self):
        # gap = 2 rho^2 for unit variances and exponents (2, 2)
        assert gap(MomentSpec(1, 1, 2, 2, 0.5)) == pytest.approx(0.5, rel=1e-14)

    def test_arcsine_gap(self):
        got = gap(MomentSpec(1, 1, 1, 1, 0.5))
        want = arcsine_product_moment(0.5) - 2.0 / math.pi
        assert rel_err(got, want) < 1e-12
        assert rel_err(got, 0.08137578972087737) < 1e-12

    def test_degenerate_route(self):
        got = gap(MomentSpec(1, 1, 1, 1, 1.0))
        assert got == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-13)

    def test_degenerate_infinite(self):
        assert gap(MomentSpec(1, 1, -0.6, -0.5, 1.0)) == math.inf

    def test_small_rho_no_cancellation(self):
        rho = 1e-8
        got = gap(MomentSpec(1, 1, 1, 1, rho))
        # leading term: prefactor * a1 a2 rho^2 / 2 = rho^2 / pi
        assert rel_err(got, rho * rho / math.pi) < 1e-6

    def test_small_rho_terminating_no_cancellation(self):
        # terminating series must also avoid the subtract-one route
        rho = 1e-8
        got = gap(MomentSpec(1, 1, 2, 2, rho))
        assert rel_err(got, 2 * rho * rho) < 1e-14

    def test_subnormal_gap_stops_at_an_underflowed_term(self):
        # z = rho^2 = 1e-310 is subnormal, so SERIES_EPS * |F - 1|
        # underflows to 0; the sum must stop once a term underflows.
        rho = 1e-155
        t0 = time.perf_counter()
        got = gap(MomentSpec(1, 1, 0.5, 0.5, rho))
        elapsed = time.perf_counter() - t0
        # leading term P * a1 a2 rho^2 / 2; the next is 1e-310 times smaller
        want = (product_of_marginals(MomentSpec(1, 1, 0.5, 0.5, rho))
                * 0.125 * rho * rho)
        assert 0.0 < got < math.inf
        assert rel_err(got, want) < 1e-9
        assert elapsed < 1.0
        assert special.hyp2f1_minus_one(-0.25, -0.25, 0.5,
                                        rho * rho).terms_used <= 2

    def test_term_cap_near_one(self):
        # F - 1 at z = (1 - 1e-8)^2 cannot meet the stop rule within the
        # term cap; the cap's error is certified, not summed to
        with pytest.raises(ConvergenceError) as exc:
            gap(MomentSpec(1, 1, -0.3, -0.2, 1 - 1e-8))
        assert exc.value.terms_used == special.MAX_TERMS  # n = 1..MAX_TERMS
        assert exc.value.partial_value is None

    @given(st.floats(-0.95, 0.95))
    @settings(max_examples=30)
    def test_even_in_rho(self, rho):
        spec_pos = MomentSpec(1.3, 0.7, 1.7, 0.4, rho)
        spec_neg = MomentSpec(1.3, 0.7, 1.7, 0.4, -rho)
        assert gap(spec_pos) == gap(spec_neg)

    @given(st.floats(0.2, 4.0), st.floats(-0.9, 0.9))
    @settings(max_examples=40)
    def test_scaling_in_sigma1(self, c, rho):
        a1, a2 = 1.3, 0.6
        base = gap(MomentSpec(1.0, 1.0, a1, a2, rho))
        scaled = gap(MomentSpec(c, 1.0, a1, a2, rho))
        assert abs(scaled - c ** a1 * base) <= 1e-12 * max(1.0, abs(scaled))

    def test_sign_same_and_opposite(self):
        for a1, a2, sign in [(1.0, 2.5, 1), (-0.5, -0.3, 1), (-0.5, 2.5, -1),
                             (3.0, -0.9, -1)]:
            g = gap(MomentSpec(1, 1, a1, a2, 0.6))
            assert sign * g > 0

    def test_monotone_in_rho_squared(self):
        for a1, a2 in [(1.0, 1.0), (-0.5, -0.5), (3.0, 0.5), (4.5, 4.5)]:
            values = [gap(MomentSpec(1, 1, a1, a2, r / 20.0))
                      for r in range(20)]  # rho in [0, 0.95)
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert all(d >= -1e-15 for d in diffs)


class TestOverflow:
    # log prefactor ~ 856 at alpha = 200, past float range
    SPEC = MomentSpec(1, 1, 200, 200, 0.5)

    @pytest.mark.parametrize("fn", [product_of_marginals, product_moment, gap,
                                    gap_via_3f2])
    def test_domain_error_not_overflow_error(self, fn):
        with pytest.raises(DomainError, match="overflows"):
            fn(self.SPEC)

    def test_degenerate_route(self):
        with pytest.raises(DomainError, match="overflows"):
            gap(MomentSpec(1, 1, 200, 200, 1.0))

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_degenerate_gamma_ratio(self, rho):
        # F(.; 1) overflows for same-sign exponents past ~1025, also
        # where the small scales make P underflow to 0
        with pytest.raises(DomainError, match="overflows"):
            gap(MomentSpec(1e-3, 1e-3, 2000.5, 2000.5, rho))

    @pytest.mark.parametrize("fn", [gap, product_moment])
    @pytest.mark.parametrize("alpha", [1500.0, 1501.0])
    def test_prefactor_overflow_precedes_the_series(self, fn, alpha):
        # the terms of F overflow here as well; P is evaluated first
        with pytest.raises(DomainError, match="overflows"):
            fn(MomentSpec(1, 1, alpha, alpha, 0.9))

    @pytest.mark.parametrize("fn", [gap, product_moment])
    @pytest.mark.parametrize("rho", [0.9, 1.0])
    def test_small_scales_overflow_in_the_series(self, fn, rho):
        # P is finite at scales 1e-3; a term of F (rho = 0.9) or its
        # Gamma ratio (rho = 1) overflows, an argument error either way
        with pytest.raises(DomainError, match="overflows"):
            fn(MomentSpec(1e-3, 1e-3, 1501.0, 1501.0, rho))


def _counting(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _chunk_rows(specs):
    """The rows of one sweep chunk over ``specs``, all at index 0."""
    cores = verify.row_cores(specs)
    return [verify.evaluate_point(spec, 0, verify.SweepConfig(), cores)
            for spec in specs]


class TestCorrelationFactor:
    def test_values_are_the_series(self):
        spec = MomentSpec(1, 1, 1.5, -0.5, 0.75)
        assert series_factor(spec, False) == \
            special.hyp2f1(-0.75, 0.25, 0.5, 0.5625)
        assert series_factor(spec, True) == \
            special.hyp2f1_minus_one(-0.75, 0.25, 0.5, 0.5625)

    def test_other_scale_or_sign_hits(self, monkeypatch):
        # one chunk: other scales and the other sign share both series,
        # each summed once, as a row of one batch
        batches = _counting(monkeypatch, special, "_sum_pfq")
        specs = [MomentSpec(s1, s2, 1.5, -0.5, rho)
                 for s1, s2, rho in [(1.0, 1.0, 0.75), (0.5, 2.0, 0.75),
                                     (2.0, 1.0, -0.75), (1.0, 1.0, -0.75)]]
        rows = _chunk_rows(specs)
        assert batches == [([((-0.75, 0.25), (0.5,), 0.5625, True),
                             ((-0.75, 0.25), (0.5,), 0.5625, False)],)]
        for spec, row in zip(specs, rows):
            assert (row.gap, row.moment) == (gap(spec),
                                             product_moment(spec).value)

    def test_miss_sums_through_module_attribute(self, monkeypatch):
        batches = _counting(monkeypatch, special, "_sum_pfq")
        config = verify.SweepConfig(alpha1_values=(1.0,), alpha2_values=(3.0,),
                                    rho_values=(0.5, -0.5),
                                    sigma1_values=(1.0, 2.0),
                                    sigma2_values=(1.0,))
        rows, _ = verify.run_sweep(config)
        assert batches == [([((-0.5, -1.5), (0.5,), 0.25, True),
                             ((-0.5, -1.5), (0.5,), 0.25, False)],)]
        first, second = rows[0], rows[3]
        assert (second.sigma1, second.rho) == (2.0, -0.5)
        assert second.gap == pytest.approx(2.0 * first.gap, rel=1e-14)

    def test_z_one_is_the_closed_form(self, monkeypatch):
        def no_series(*args):
            raise AssertionError(f"series called at {args}")

        def no_rows(series):
            assert not series, f"series summed: {series}"
            return []

        monkeypatch.setattr(special, "hyp2f1", no_series)
        monkeypatch.setattr(special, "hyp2f1_minus_one", no_series)
        monkeypatch.setattr(special, "_sum_pfq", no_rows)
        f_at_one = special.hyp2f1_at_one(-0.75, 0.25, 0.5)
        spec = MomentSpec(0.5, 2.0, 1.5, -0.5, -1.0)
        assert series_factor(spec, False) == \
            special.SeriesResult(f_at_one, 0, 0.0, True)
        assert series_factor(spec, True) == \
            special.SeriesResult(f_at_one - 1.0, 0, 0.0, True)
        product_moment(spec)
        gap(MomentSpec(2.0, 1.0, 1.5, -0.5, 1.0))

    @pytest.mark.parametrize("minus_one", [False, True])
    def test_z_one_diverges_to_inf(self, minus_one):
        assert series_factor(MomentSpec(1, 1, -0.6, -0.5, 1.0), minus_one) == \
            special.SeriesResult(math.inf, 0, 0.0, True)


class TestRhoOneAgainstMpmath:
    """At |rho| = 1, F(1), F(1) - 1, the moment and the gap against mpmath
    at 50 digits, for even a1 (the Chu-Vandermonde product) up to 200.

    F(1) and F(1) - 1 must agree to 1e-13.  The moment and the gap carry
    in addition the rounding of P = exp(log P), whose log-space sum is
    exact to a few ulps of log P: their bound is 1e-13, or 2 eps |log P|
    where that is larger (2.4e-13 at log P = 550, a1 = 194)."""

    A1 = range(2, 202, 2)

    @staticmethod
    def _reference(spec, mpmath):
        a1, a2 = mpmath.mpf(spec.alpha1), mpmath.mpf(spec.alpha2)
        p = (mpmath.mpf(2) ** ((a1 + a2) / 2) * mpmath.mpf(spec.sigma1) ** a1
             * mpmath.mpf(spec.sigma2) ** a2 * mpmath.gamma((a1 + 1) / 2)
             * mpmath.gamma((a2 + 1) / 2) / mpmath.pi)
        f = mpmath.hyp2f1(-a1 / 2, -a2 / 2, mpmath.mpf(1) / 2, 1)
        return p, f

    @pytest.mark.parametrize("sigmas", [(1.0, 1.0), (0.5, 2.0)])
    @pytest.mark.parametrize("a2", [-0.9, -0.5, 0.5, 3.0, 50.0])
    def test_moment_and_gap(self, a2, sigmas):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for a1 in self.A1:
                rho = -1.0 if a1 % 4 else 1.0
                spec = MomentSpec(*sigmas, a1, a2, rho)
                p, f = self._reference(spec, mpmath)
                tol = max(1e-13, 2 * 2.0 ** -52 * abs(float(mpmath.log(p))))
                for got, want, bound in [
                        (series_factor(spec, False).value, f, 1e-13),
                        (series_factor(spec, True).value, f - 1, 1e-13),
                        (product_moment(spec).value, p * f, tol),
                        (gap(spec), p * (f - 1), tol)]:
                    assert float(abs((got - want) / want)) < bound, (a1, got)


class TestTerminatingSeriesNearOne:
    @pytest.mark.xfail(strict=True, reason=(
        "the terminating series of F(-100, 0.45; 1/2; z) alternates and is "
        "summed directly in exact mode: at z = 0.9025 it cancels to a gap "
        "of the wrong sign, reported as exact"))
    def test_large_even_exponent_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        spec = MomentSpec(1, 1, 200, -0.9, 0.95)
        with mpmath.workdps(60):
            a1, a2 = mpmath.mpf(200), mpmath.mpf(-0.9)
            f = mpmath.hyp2f1(-a1 / 2, -a2 / 2, mpmath.mpf(1) / 2,
                              mpmath.mpf(0.95) ** 2)
            p = (mpmath.mpf(2) ** ((a1 + a2) / 2) * mpmath.gamma((a1 + 1) / 2)
                 * mpmath.gamma((a2 + 1) / 2) / mpmath.pi)
            want = p * (f - 1)
            assert float(abs((gap(spec) - want) / want)) < 1e-10


class TestDirectSeriesLargeExponents:
    @pytest.mark.xfail(strict=True, reason=(
        "the direct series of F(-78.5, -0.25; 1/2; z) has terms of both "
        "signs that grow far past the sum: at z = 0.81 it cancels to a gap "
        "of the wrong sign (-2.37e140 against +6.93e138); (101, 0.5) is "
        "off by 5e-7 and (61, 0.5) by 4e-11"))
    def test_large_odd_exponent_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        spec = MomentSpec(1, 1, 157, 0.5, 0.9)
        with mpmath.workdps(60):
            a1, a2 = mpmath.mpf(157), mpmath.mpf(0.5)
            f = mpmath.hyp2f1(-a1 / 2, -a2 / 2, mpmath.mpf(1) / 2,
                              mpmath.mpf(0.9) ** 2)
            p = (mpmath.mpf(2) ** ((a1 + a2) / 2) * mpmath.gamma((a1 + 1) / 2)
                 * mpmath.gamma((a2 + 1) / 2) / mpmath.pi)
            want = p * (f - 1)
            assert float(abs((gap(spec) - want) / want)) < 1e-10


class TestPrefactor:
    def test_shared_across_rho_and_functions(self, monkeypatch):
        calls = _counting(monkeypatch, moments, "product_of_marginals")
        specs = [MomentSpec(0.5, 0.5, 1.5, -0.5, rho)
                 for rho in (0.0, 0.25, -0.25, 0.95, 1.0)]
        rows = _chunk_rows(specs)
        assert calls == [(specs[0],)]
        for spec, row in zip(specs, rows):
            assert (row.gap, row.moment) == (gap(spec),
                                             product_moment(spec).value)
        # at rho = 0 F is 1, so the moment is the one P itself
        assert rows[0].moment == product_of_marginals(specs[0])


class TestGapDualPath:
    def test_zero(self):
        assert gap_via_3f2(MomentSpec(1, 1, 1.2, 3.4, 0.0)) == 0.0

    def test_terminating(self):
        assert gap_via_3f2(MomentSpec(1, 1, 2, 2, 0.6)) == pytest.approx(
            0.72, rel=1e-14)

    def test_matches_direct_gap(self):
        for a1, a2 in [(1.0, 1.0), (-0.9, -0.1), (0.5, 4.5), (2.5, 2.0)]:
            for rho in (0.25, 0.5, 0.95):
                spec = MomentSpec(0.5, 2.0, a1, a2, rho)
                g1, g2 = gap(spec), gap_via_3f2(spec)
                assert abs(g1 - g2) <= 1e-10 * max(1.0, abs(g1))

    def test_degenerate_refused(self):
        with pytest.raises(DomainError):
            gap_via_3f2(MomentSpec(1, 1, 1, 1, 1.0))


class TestSpecValidation:
    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            MomentSpec(0.0, 1, 1, 1, 0.0)

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            MomentSpec(1, 1, -1.0, 1, 0.0)

    def test_bad_rho(self):
        with pytest.raises(DomainError):
            MomentSpec(1, 1, 1, 1, 1.2)

    @pytest.mark.parametrize("fields", [
        (math.inf, 1, 1, 1, 0.5), (1, math.inf, 1, 1, 0.5),
        (math.nan, 1, 1, 1, 0.5), (1, 1, math.inf, 1, 0.5),
        (1, 1, 1, math.inf, 0.5), (1, 1, math.nan, 1, 0.5),
        (1, 1, 1, 1, math.nan)])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(DomainError):
            MomentSpec(*fields)
