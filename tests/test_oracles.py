"""Tests for the quadrature and Monte Carlo oracles."""

import math

import numpy as np
import pytest

from gaussgap.errors import DomainError, InfiniteVarianceError
from gaussgap.moments import abs_moment_1d, product_moment
from gaussgap.oracles import (McConfig, derive_seed, mc_product_moment,
                              quad_abs_moment_1d, quad_product_moment,
                              sample_bivariate)
from gaussgap.types import MomentSpec


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestQuadAbsMoment1d:
    def test_variance(self):
        est = quad_abs_moment_1d(1.0, 2.0)
        assert abs(est.value - 1.0) <= max(1e-9, 3 * est.error_estimate)

    def test_half_normal_mean(self):
        est = quad_abs_moment_1d(1.0, 1.0)
        assert rel_err(est.value, math.sqrt(2 / math.pi)) < 1e-9

    def test_singular_exponent_matches_closed_form(self):
        est = quad_abs_moment_1d(1.0, -0.9)
        assert rel_err(est.value, abs_moment_1d(1.0, -0.9)) < 1e-6
        assert rel_err(est.value, 8.0413584219659848) < 1e-6

    def test_substitution_agreement_for_regular_exponents(self):
        for alpha in (0.5, 1.0, 2.5, 4.5):
            with_sub = quad_abs_moment_1d(1.3, alpha, substitute=True)
            without = quad_abs_moment_1d(1.3, alpha, substitute=False)
            assert rel_err(with_sub.value, without.value) < 1e-7

    def test_scales(self):
        est = quad_abs_moment_1d(2.0, 3.0)
        assert rel_err(est.value, abs_moment_1d(2.0, 3.0)) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quad_abs_moment_1d(-1.0, 1.0)
        with pytest.raises(DomainError):
            quad_abs_moment_1d(1.0, -1.0)

    def test_overflow_is_domain_error(self):
        # the upper limit (12 * sigma)^(1 + alpha) leaves the float range
        with pytest.raises(DomainError, match="overflows"):
            quad_abs_moment_1d(1.0, 300.0)


class TestQuadProductMoment:
    def test_arcsine_value(self):
        est = quad_product_moment(MomentSpec(1, 1, 1, 1, 0.5))
        assert abs(est.value - 0.7179955620884587) <= max(
            1e-8, 3 * est.error_estimate)

    def test_fourth_moment_value(self):
        est = quad_product_moment(MomentSpec(1, 1, 2, 2, 0.6))
        assert abs(est.value - 1.72) <= max(1e-8, 3 * est.error_estimate)

    def test_independent_case_factorizes(self):
        spec = MomentSpec(0.7, 1.9, 1.3, -0.4, 0.0)
        est = quad_product_moment(spec)
        split = (quad_abs_moment_1d(0.7, 1.3).value
                 * quad_abs_moment_1d(1.9, -0.4).value)
        assert rel_err(est.value, split) < 1e-8

    def test_symmetric_in_rho_sign(self):
        pos = quad_product_moment(MomentSpec(1, 2, 0.5, 1.5, 0.6))
        neg = quad_product_moment(MomentSpec(1, 2, 0.5, 1.5, -0.6))
        assert abs(pos.value - neg.value) <= pos.error_estimate + neg.error_estimate

    def test_matches_closed_form_on_hard_points(self):
        for spec in (MomentSpec(1, 1, -0.9, -0.9, 0.95),
                     MomentSpec(0.5, 2, -0.9, 4.5, 0.75),
                     MomentSpec(2, 1, 3, 0.5, 0.5)):
            est = quad_product_moment(spec)
            want = product_moment(spec)
            assert abs(est.value - want) <= max(1e-6 * abs(want),
                                                3 * est.error_estimate)

    def test_degenerate_refused(self):
        with pytest.raises(DomainError):
            quad_product_moment(MomentSpec(1, 1, 1, 1, 1.0))

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            quad_product_moment(MomentSpec(1, 1, 300, 300, 0.5))


class TestSampling:
    def test_bitwise_determinism(self):
        spec = MomentSpec(1.1, 0.9, 1, 1, 0.3)
        a = sample_bivariate(spec, 100, 987654321)
        b = sample_bivariate(spec, 100, 987654321)
        assert (a == b).all()
        c = sample_bivariate(spec, 100, 987654322)
        assert not (a == c).all()

    def test_shape_and_scales(self):
        xy = sample_bivariate(MomentSpec(2.0, 0.5, 1, 1, -0.8), 10 ** 6, 7)
        assert xy.shape == (10 ** 6, 2)
        # CLT bands: 5 sigma on the mean of each coordinate
        n = 10 ** 6
        assert abs(xy[:, 0].mean()) < 5 * 2.0 / math.sqrt(n)
        assert abs(xy[:, 1].mean()) < 5 * 0.5 / math.sqrt(n)

    def test_empirical_correlation(self):
        rho = 0.65
        xy = sample_bivariate(MomentSpec(1, 1, 1, 1, rho), 10 ** 6, 11)
        emp = np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]
        assert abs(emp - rho) < 5e-3 * (1 - rho * rho) * 10

    def test_bad_count(self):
        with pytest.raises(DomainError):
            sample_bivariate(MomentSpec(1, 1, 1, 1, 0.0), 0, 1)


class TestMcProductMoment:
    def test_brackets_closed_form(self):
        spec = MomentSpec(1, 1, 1, 1, 0.5)
        est = mc_product_moment(spec, McConfig(10 ** 6, 20240913))
        assert abs(est.value - product_moment(spec)) < 4 * est.error_estimate

    def test_fourth_moment(self):
        spec = MomentSpec(1, 1, 2, 2, 0.6)
        est = mc_product_moment(spec, McConfig(10 ** 6, 31337))
        assert abs(est.value - 1.72) < 4 * est.error_estimate

    def test_refusal_below_half(self):
        for a1, a2 in [(-0.6, 1.0), (-0.5, 1.0), (1.0, -0.51)]:
            with pytest.raises(InfiniteVarianceError):
                mc_product_moment(MomentSpec(1, 1, a1, a2, 0.5),
                                  McConfig(10 ** 4, 1))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(999, 1)

    @pytest.mark.parametrize("spec", [
        # the variance overflows: |x1 x2|^300 squared leaves float64
        MomentSpec(1, 1, 300, 300, 0.5),
        # a sample overflows: |x2|^303.9 at sigma2 = 18.5
        MomentSpec(11.3, 18.5, -0.49, 303.9, 0.0),
    ])
    def test_overflow_is_domain_error(self, spec):
        with pytest.raises(DomainError, match="overflows"):
            mc_product_moment(spec, McConfig(1000, 1))

    def test_large_finite_exponents_still_estimate(self):
        est = mc_product_moment(MomentSpec(1, 1, 150, 150, 0.5),
                                McConfig(1000, 1))
        assert math.isfinite(est.value) and est.value > 0

    @pytest.mark.parametrize("seed", [True, False, 1.0, 1.5, "7", None, -1,
                                      2 ** 64])
    def test_seed_must_be_unsigned_64_bit_int(self, seed):
        with pytest.raises(DomainError):
            McConfig(100_000, seed)

    def test_numpy_integer_seed_accepted(self):
        assert McConfig(100_000, np.uint64(7)).seed == 7

    def test_coverage_over_seeded_runs(self):
        # 3-standard-error coverage should fail only rarely
        spec = MomentSpec(1, 1, 1, 1, 0.5)
        want = product_moment(spec)
        hits = 0
        for run in range(50):
            est = mc_product_moment(spec, McConfig(10 ** 5,
                                                   derive_seed(555, run)))
            if abs(est.value - want) <= 3 * est.error_estimate:
                hits += 1
        assert hits >= 45


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        seen = {derive_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000
        assert all(0 <= s < 2 ** 64 for s in seen)

    def test_master_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
