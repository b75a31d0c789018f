"""Tests for the closed-form moments and the product-moment gap."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgap import special
from gaussgap.errors import ConvergenceError, DomainError
from gaussgap.moments import (abs_moment_1d, correlation_factor, gap,
                              gap_via_3f2, prefactor, product_moment,
                              product_moment_rho_one, product_of_marginals)
from gaussgap.types import MomentSpec

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
        assert product_moment(spec) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_arcsine_closed_form(self):
        got = product_moment(MomentSpec(1, 1, 1, 1, 0.5))
        assert rel_err(got, arcsine_product_moment(0.5)) < 1e-13
        assert rel_err(got, 0.7179955620884587) < 1e-13

    def test_fourth_moment_identity(self):
        # E[X1^2 X2^2] = 1 + 2 rho^2 for unit variances
        got = product_moment(MomentSpec(1, 1, 2, 2, 0.6))
        assert got == pytest.approx(1.72, rel=1e-14)

    def test_degenerate_rho_refused(self):
        # |rho| = 1 admits only equal scales, checked as in gap
        with pytest.raises(DomainError, match="forces equal scales"):
            product_moment(MomentSpec(1, 2, 1, 1, 1.0))
        with pytest.raises(DomainError, match="forces equal scales"):
            gap(MomentSpec(1, 2, 1, 1, -1.0))

    @pytest.mark.parametrize("spec", [
        MomentSpec(1, 1, 1, 1, 1.0), MomentSpec(2, 2, 1.5, -0.5, -1.0),
        MomentSpec(0.5, 0.5, -0.6, -0.5, 1.0)])
    def test_degenerate_rho_is_the_rho_one_moment(self, spec):
        assert product_moment(spec) == product_moment_rho_one(spec)

    @given(st.floats(-0.95, 0.95))
    @settings(max_examples=30)
    def test_arcsine_sweep(self, rho):
        got = product_moment(MomentSpec(1, 1, 1, 1, rho))
        assert rel_err(got, arcsine_product_moment(rho)) < 1e-12


class TestProductMomentRhoOne:
    def test_unit_pair(self):
        # equals E[X1^2] = 1
        assert abs(product_moment_rho_one(MomentSpec(1, 1, 1, 1, 1.0)) - 1.0) \
            < 1e-13

    def test_negative_exponents_integrable(self):
        got = product_moment_rho_one(MomentSpec(1, 1, -0.5, -0.4, 1.0))
        assert rel_err(got, abs_moment_1d(1.0, -0.9)) < 1e-15
        assert rel_err(got, 8.0413584219659848) < 1e-13

    def test_non_integrable_sentinel(self):
        assert product_moment_rho_one(MomentSpec(1, 1, -0.6, -0.5, 1.0)) \
            == math.inf

    def test_scale_mismatch_refused(self):
        with pytest.raises(DomainError):
            product_moment_rho_one(MomentSpec(1, 2, 1, 1, 1.0))

    def test_nondegenerate_refused(self):
        with pytest.raises(DomainError):
            product_moment_rho_one(MomentSpec(1, 1, 1, 1, 0.5))

    def test_negative_rho_allowed(self):
        assert abs(product_moment_rho_one(MomentSpec(1, 1, 1, 1, -1.0)) - 1.0) \
            < 1e-13


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


class TestCorrelationFactor:
    def test_values_are_the_series(self):
        z = 0.5625
        assert correlation_factor(1.5, -0.5, z, False) == \
            special.hyp2f1(-0.75, 0.25, 0.5, z)
        assert correlation_factor(1.5, -0.5, z, True) == \
            special.hyp2f1_minus_one(-0.75, 0.25, 0.5, z)

    def test_other_scale_or_sign_hits(self):
        gap(MomentSpec(1, 1, 1.5, -0.5, 0.75))
        product_moment(MomentSpec(1, 1, 1.5, -0.5, 0.75))
        before = correlation_factor.cache_info()
        assert (before.hits, before.misses) == (0, 2)
        for s1, s2, rho in [(0.5, 2.0, 0.75), (2.0, 1.0, -0.75),
                            (1.0, 1.0, -0.75)]:
            gap(MomentSpec(s1, s2, 1.5, -0.5, rho))
            product_moment(MomentSpec(s1, s2, 1.5, -0.5, rho))
        after = correlation_factor.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 6

    def test_miss_sums_through_module_attribute(self, monkeypatch):
        calls = []
        original = special.hyp2f1_minus_one

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(special, "hyp2f1_minus_one", counting)
        first = gap(MomentSpec(1, 1, 1.0, 3.0, 0.5))
        second = gap(MomentSpec(2, 1, 1.0, 3.0, -0.5))
        assert calls == [(-0.5, -1.5, 0.5, 0.25)]
        assert second == pytest.approx(2.0 * first, rel=1e-14)

    def test_errors_are_not_cached(self, monkeypatch):
        calls = []

        def failing(a, b, c, z):
            calls.append(z)
            raise ConvergenceError(f"no convergence at z = {z}")

        monkeypatch.setattr(special, "hyp2f1", failing)
        spec = MomentSpec(1, 1, -0.3, -0.2, 0.5)
        messages = []
        for _ in range(2):
            with pytest.raises(ConvergenceError) as info:
                product_moment(spec)
            messages.append(str(info.value))
        assert messages == ["no convergence at z = 0.25"] * 2
        assert calls == [0.25, 0.25]
        assert correlation_factor.cache_info().currsize == 0

    def test_bounded(self):
        assert correlation_factor.cache_info().maxsize is not None


class TestPrefactor:
    def test_shared_across_rho_and_functions(self):
        for rho in (0.0, 0.25, -0.25, 0.95, 1.0):
            spec = MomentSpec(0.5, 0.5, 1.5, -0.5, rho)
            gap(spec)
            if rho != 1.0:
                product_moment(spec)
        info = prefactor.cache_info()
        # gap returns 0 at rho = 0 without P; every other call hits
        assert (info.hits, info.misses) == (7, 1)
        assert product_of_marginals(MomentSpec(0.5, 0.5, 1.5, -0.5, 0.3)) == \
            prefactor(0.5, 0.5, 1.5, -0.5)

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DomainError, match="overflows"):
                prefactor(1.0, 1.0, 200.0, 200.0)
        assert prefactor.cache_info().currsize == 0

    def test_bounded(self):
        assert prefactor.cache_info().maxsize is not None


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
