"""Tests for the gap bounds, their closed-form specializations, and check_point."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgap import bounds, moments, special, verify
from gaussgap.bounds import (GapBound, check_point, gap_bound,
                             pair_bound_int_int, pair_bound_int_one,
                             pair_bound_small)
from gaussgap.errors import DomainError, SeriesDivergenceError
from gaussgap.moments import gap
from gaussgap.types import MomentSpec

import reference_routes

SAME_SIGN_ALPHAS = (-0.9, -0.5, -0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5)
RHOS = (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95)
SIGMAS = (0.5, 1.0, 2.0)


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestGapLowerBound:
    def test_absolute_pair(self):
        b = gap_bound(MomentSpec(1, 1, 1, 1, 0.5))
        assert rel_err(b.lower, 0.25 / math.pi) < 1e-14
        assert b.case_tag == "SameSignMain"

    def test_abs_square_pair(self):
        b = gap_bound(MomentSpec(1, 1, 1, 2, 0.5))
        want = math.sqrt(2.0) * 0.25 / math.sqrt(math.pi)
        assert rel_err(b.lower, want) < 1e-14
        assert b.case_tag == "SameSignMain"

    def test_mixed_magnitude_branch(self):
        b = gap_bound(MomentSpec(1, 1, 3, 1, 0.5))
        assert rel_err(b.lower, 0.375) < 1e-14
        assert b.case_tag == "MixedMagnitude"

    def test_square_pair_any_scale(self):
        for s1, s2, rho in [(1, 1, 0.3), (0.5, 2, 0.9), (2, 2, 0.1)]:
            b = gap_bound(MomentSpec(s1, s2, 2, 2, rho))
            assert rel_err(b.lower, 2 * s1 ** 2 * s2 ** 2 * rho ** 2) < 1e-13

    def test_boundary_two_uses_main_branch(self):
        # (alpha1 > 2, alpha2 = 2) belongs to the main branch, where the
        # bound is attained exactly
        spec = MomentSpec(1, 1, 4.5, 2.0, 0.5)
        b = gap_bound(spec)
        assert b.case_tag == "SameSignMain"
        assert abs(gap(spec) - b.lower) <= 1e-12 * abs(b.lower)

    def test_branch_continuity_at_two(self):
        a1 = 3.7
        main = gap_bound(MomentSpec(1, 1, a1, 2.0, 0.5)).lower
        approached = [gap_bound(MomentSpec(1, 1, a1, 2.0 - e, 0.5)).lower
                      for e in (1e-4, 1e-6, 1e-8)]
        gaps = [abs(v - main) for v in approached]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-6

    def test_zero_rho_gives_zero(self):
        assert gap_bound(MomentSpec(1, 1, 1.3, 0.4, 0.0)).lower == 0.0

    @given(st.sampled_from(SAME_SIGN_ALPHAS), st.sampled_from(SAME_SIGN_ALPHAS),
           st.floats(-0.99, 0.99), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    @settings(max_examples=80)
    def test_nonnegative(self, a1, a2, rho, s1, s2):
        if a1 * a2 < 0:
            return
        value = gap_bound(MomentSpec(s1, s2, a1, a2, rho)).lower
        assert value >= 0.0
        # zero exactly when rho^2 is zero (rho so small it underflows
        # squares to the same fixed point as rho = 0)
        assert (value == 0.0) == (rho * rho == 0.0)


class TestGapDominatesBound:
    def test_full_grid(self):
        for a1 in SAME_SIGN_ALPHAS:
            for a2 in SAME_SIGN_ALPHAS:
                if a1 * a2 < 0:
                    continue
                for rho in RHOS:
                    for s1 in SIGMAS:
                        for s2 in SIGMAS:
                            spec = MomentSpec(s1, s2, a1, a2, rho)
                            g = gap(spec)
                            f = gap_bound(spec).lower
                            assert g >= f - 1e-9 * max(1.0, abs(g)), spec


class TestGapEnvelope:
    def test_terminating_positive_exponent_two(self):
        env = gap_bound(MomentSpec(1, 1, -0.5, 2, 0.5))
        want = -0.21500999683112988
        assert rel_err(env.lower, want) < 1e-13
        assert rel_err(env.upper, want) < 1e-13
        assert env.finite_lower
        # the gap hits both endpoints in this terminating case
        assert rel_err(gap(MomentSpec(1, 1, -0.5, 2, 0.5)), want) < 1e-13

    def test_vacuous_lower(self):
        env = gap_bound(MomentSpec(1, 1, -0.5, 1, 0.5))
        assert not env.finite_lower
        assert env.lower == -math.inf
        assert env.upper <= 0.0

    def test_zero_rho_collapses(self):
        env = gap_bound(MomentSpec(1, 1, -0.5, 2, 0.0))
        assert env.lower == env.upper == 0.0

    def test_swap_normalization(self):
        fwd = gap_bound(MomentSpec(1, 2, -0.5, 3, 0.5))
        rev = gap_bound(MomentSpec(2, 1, 3, -0.5, 0.5))
        assert rev.swapped and not fwd.swapped
        assert rev.lower == pytest.approx(fwd.lower, rel=1e-14)
        assert rev.upper == pytest.approx(fwd.upper, rel=1e-14)

    def test_ordering_invariants(self):
        for a1 in (-0.9, -0.5, -0.1):
            for a2 in (0.5, 1.0, 2.0, 3.0, 4.5):
                for rho in RHOS:
                    env = gap_bound(MomentSpec(1, 1, a1, a2, rho))
                    assert env.upper <= 0.0
                    if env.finite_lower:
                        assert env.lower <= env.upper

    def test_sandwich_on_grid(self):
        for a1 in (-0.9, -0.5, -0.1):
            for a2 in (0.5, 1.0, 2.0, 3.0, 4.5):
                for rho in RHOS:
                    for s1 in SIGMAS:
                        for s2 in SIGMAS:
                            spec = MomentSpec(s1, s2, a1, a2, rho)
                            g = gap(spec)
                            env = gap_bound(spec)
                            scale = max(1.0, abs(g))
                            assert g <= env.upper + 1e-9 * scale, spec
                            if env.finite_lower:
                                assert env.lower - 1e-9 * scale <= g, spec


class TestPairBounds:
    def test_small_values(self):
        assert rel_err(pair_bound_small(1, 1, 1, 1, 0.5), 0.25 / math.pi) < 1e-14
        assert rel_err(pair_bound_small(1, 2, 1, 1, 0.5),
                       math.sqrt(2) * 0.25 / math.sqrt(math.pi)) < 1e-14
        assert pair_bound_small(2, 2, 1, 1, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_small_mirrored(self):
        assert pair_bound_small(2, 1, 1.5, 0.5, 0.3) == pytest.approx(
            pair_bound_small(1, 2, 0.5, 1.5, 0.3), rel=1e-14)

    def test_small_domain(self):
        with pytest.raises(DomainError):
            pair_bound_small(1, 3, 1, 1, 0.5)

    def test_int_one_values(self):
        assert pair_bound_int_one(3, 1, 1, 0.5) == pytest.approx(0.375, rel=1e-15)
        assert rel_err(pair_bound_int_one(4, 1, 1, 0.5),
                       2.0 / math.sqrt(2 * math.pi)) < 1e-14
        assert pair_bound_int_one(5, 1, 1, 0.0) == 0.0

    def test_int_one_domain(self):
        for bad in (2, 1, 0, 2.5):
            with pytest.raises(DomainError):
                pair_bound_int_one(bad, 1, 1, 0.5)

    def test_int_int_values(self):
        assert pair_bound_int_int(4, 4, 1, 1, 0.5) == pytest.approx(18.0,
                                                                    rel=1e-14)
        assert rel_err(pair_bound_int_int(3, 3, 1, 1, 0.5), 9.0 / math.pi) < 1e-14
        assert rel_err(pair_bound_int_int(3, 4, 1, 1, 0.5),
                       18.0 / math.sqrt(2 * math.pi)) < 1e-14

    def test_int_int_domain(self):
        with pytest.raises(DomainError):
            pair_bound_int_int(2, 4, 1, 1, 0.5)

    def test_int_one_overflow_is_domain_error(self):
        # 398!! is an exact int too large to convert to a float
        with pytest.raises(DomainError, match="overflows"):
            pair_bound_int_one(400, 2.0, 2.0, 0.5)
        # a float product past the range, with no exception of its own
        with pytest.raises(DomainError, match="overflows"):
            pair_bound_int_one(170, 10.0, 1.0, 0.5)

    def test_int_int_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            pair_bound_int_int(400, 400, 2.0, 2.0, 0.5)

    def test_agree_with_general_bound(self):
        for s1, s2, rho in [(1, 1, 0.5), (0.5, 2, 0.95), (2, 0.5, 0.25)]:
            for a1 in (1, 2):
                for a2 in (1, 2):
                    want = gap_bound(MomentSpec(s1, s2, a1, a2, rho)).lower
                    got = pair_bound_small(a1, a2, s1, s2, rho)
                    assert abs(got - want) <= 1e-13 * abs(want or 1.0)
            for m in range(3, 9):
                want = gap_bound(MomentSpec(s1, s2, m, 1, rho)).lower
                got = pair_bound_int_one(m, s1, s2, rho)
                assert abs(got - want) <= 1e-13 * abs(want)
                for n in range(3, 9):
                    want = gap_bound(MomentSpec(s1, s2, m, n, rho)).lower
                    got = pair_bound_int_int(m, n, s1, s2, rho)
                    assert abs(got - want) <= 1e-13 * abs(want)


class TestCheckPoint:
    def test_satisfied_same_sign(self):
        rep = check_point(MomentSpec(1, 1, 1, 1, 0.5))
        assert rep.regime == "same-sign"
        assert rep.satisfied
        assert rep.slack == pytest.approx(
            0.08137578972087737 - 0.25 / math.pi, rel=1e-10)

    def test_equality_witness_slack_zero(self):
        rep = check_point(MomentSpec(1, 1, 2, 2, 0.77))
        assert rep.satisfied
        assert abs(rep.slack) < 1e-13

    def test_zero_rho_trivial_slack(self):
        rep = check_point(MomentSpec(1, 1, 1.2, 3.4, 0.0))
        assert rep.satisfied and rep.slack == 0.0

    def test_opposite_sign_terminating(self):
        rep = check_point(MomentSpec(1, 1, -0.5, 2, 0.5))
        assert rep.regime == "opposite-sign"
        assert rep.satisfied
        assert abs(rep.slack) < 1e-12

    def test_vacuous_lower_flagged(self):
        rep = check_point(MomentSpec(1, 1, -0.5, 1, 0.5))
        assert rep.satisfied
        assert "vacuous-lower" in rep.flags
        assert rep.bound.case_tag is None
        assert not rep.bound.finite_lower

    def test_zero_exponent_trivial(self):
        rep = check_point(MomentSpec(1, 1, 0.0, 1.3, 0.5))
        assert rep.regime == "trivial"
        assert rep.satisfied and rep.gap == 0.0

    def test_error_becomes_report(self):
        # the prefactor overflows float64 at exponents (200, 200)
        rep = check_point(MomentSpec(1, 1, 200, 200, 0.5))
        assert rep.regime == "error"
        assert not rep.satisfied
        assert any(f.startswith("error:") for f in rep.flags)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_overflowing_exponents_become_domain_error(self, rho):
        # exp of the log prefactor leaves float range at alpha = 200
        rep = check_point(MomentSpec(1, 1, 200, 200, rho))
        assert rep.regime == "error"
        assert not rep.satisfied
        assert rep.flags[0].startswith("error:DomainError:")

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_overflowing_degenerate_gap_becomes_domain_error(self, rho):
        rep = check_point(MomentSpec(1, 1, 2000.5, 2000.5, rho))
        assert rep.regime == "error"
        assert rep.flags[0].startswith("error:DomainError:")

    def test_overflowing_bounds_raise_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            gap_bound(MomentSpec(1, 1, 200, 200, 0.5))
        with pytest.raises(DomainError, match="overflows"):
            gap_bound(MomentSpec(1, 1, -0.5, 400, 0.5))
        # a finite rho-free scale whose product with a1 a2 rho^2 is not:
        # the envelope coefficient, then a same-sign lower end
        for spec in (MomentSpec(1, 4, -0.5, 200, 0.5),
                     MomentSpec(1, 32, 100, 100, 0.5)):
            assert math.isfinite(bounds.bound_factors(spec)[0])
            with pytest.raises(DomainError, match="overflows"):
                gap_bound(spec)

    def test_zero_exponent_has_no_bound(self):
        for a1, a2 in ((0.0, 1.3), (-0.5, 0.0), (0.0, 0.0)):
            with pytest.raises(DomainError, match="zero exponent"):
                gap_bound(MomentSpec(1, 1, a1, a2, 0.5))

    def test_degenerate_infinite_gap_vacuous(self):
        rep = check_point(MomentSpec(1, 1, -0.6, -0.5, 1.0))
        assert rep.satisfied
        assert "gap-infinite" in rep.flags
        assert rep.gap == math.inf

    def test_degenerate_valid_case(self):
        rep = check_point(MomentSpec(1, 1, 2, 3, 1.0))
        assert rep.regime == "same-sign"
        assert rep.satisfied
        assert rep.bound.upper == math.inf


# Points of every outcome of the bound test, some with int exponents,
# whose overflow message prints them as given.
_ONE_POINTS = [
    MomentSpec(1, 1, 1, 1, 0.5), MomentSpec(1, 1, 2, 2, -0.77),
    MomentSpec(1, 1, 3.0, 1.0, 0.5), MomentSpec(0.5, 2, -0.5, -0.5, 0.25),
    MomentSpec(1, 2, 3, -0.5, -0.5), MomentSpec(1, 1, -0.5, 1, 0.5),
    MomentSpec(1, 1, -0.5, 2, 0.0), MomentSpec(1, 1, 1.2, 3.4, 0.0),
    MomentSpec(1, 1, 0.0, 1.3, 0.5), MomentSpec(1, 1, -0.6, -0.5, 1.0),
    MomentSpec(1, 1, 2, 3, -1.0), MomentSpec(1, 1, 200, 200, 0.5),
    MomentSpec(1, 1, 200, 200, 0.0), MomentSpec(1, 32, 100, 100, 0.5),
    MomentSpec(1, 4, -0.5, 200, 0.5), MomentSpec(1, 4, -0.5, 200.0, -0.5),
    MomentSpec(1, 1, 2000.5, 2000.5, 1.0)]


@pytest.mark.parametrize("spec", _ONE_POINTS)
def test_one_point_calls_are_the_scalar_reference(spec):
    # by repr, so that -0.0, nan and the message texts count
    assert repr(check_point(spec)) == repr(reference_routes.check_point(spec))
    try:
        want = reference_routes.interval(bounds.bound_factors(spec), spec)
    except (DomainError, TypeError) as exc:  # TypeError: None factors
        with pytest.raises(DomainError) as got:
            gap_bound(spec)
        if isinstance(exc, DomainError):
            assert str(got.value) == str(exc)
    else:
        assert repr(gap_bound(spec)) == repr(want)


class TestCheckPointTolerance:
    """A gap half the tolerance TOLERANCE * max(1, |gap|) past its bound is
    accepted; one twice that far is not."""

    @pytest.mark.parametrize("spec, end", [
        (MomentSpec(1, 1, 1, 1, 0.5), "lower"),  # same-sign, 0.080
        (MomentSpec(2, 2, 2, 2, 0.9), "lower"),  # same-sign, 25.9
        (MomentSpec(1, 1, -0.5, 3, 0.5), "lower"),  # -0.51
        (MomentSpec(1, 1, -0.5, 3, 0.5), "upper"),  # -0.15
        (MomentSpec(1, 4, -0.5, 3, 0.9), "lower"),  # -106.7
        (MomentSpec(1, 4, -0.5, 3, 0.9), "upper"),  # -32.0
    ])
    @pytest.mark.parametrize("multiple, satisfied", [(0.5, True),
                                                     (2.0, False)])
    def test_margin(self, spec, end, multiple, satisfied, monkeypatch):
        edge = getattr(gap_bound(spec), end)
        outward = -1.0 if end == "lower" else 1.0
        g = edge + outward * multiple * bounds.TOLERANCE * max(1.0, abs(edge))
        monkeypatch.setattr(moments, "gap", lambda s: g)
        assert check_point(spec).satisfied is satisfied


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestRhoFreeFactorCaches:
    """A sweep's ``verify.row_cores`` computes the rho-free factors once
    per (sigma1, sigma2, alpha1, alpha2) and gives the bits of
    ``gap_bound``."""

    @staticmethod
    def _bounds(specs):
        cores = verify.row_cores(specs)
        return [verify.evaluate_point(spec, 0, verify.SweepConfig(), cores)
                for spec in specs]

    def test_lower_bound_scale_shared_across_rho(self, monkeypatch):
        calls = _count_calls(monkeypatch, bounds, "bound_factors")
        specs = [MomentSpec(0.5, 2.0, 3.0, 1.5, rho)
                 for rho in (0.25, -0.25, 0.5, 0.95, 1.0)]
        rows = self._bounds(specs)
        assert calls == [(specs[0],)]
        for spec, row in zip(specs, rows):
            assert row.case_tag == "MixedMagnitude"
            assert row.bound_lower == gap_bound(spec).lower

    def test_lower_bound_value_is_the_uncached_float(self):
        # the rho-dependent multiply keeps its left-to-right order
        a1, a2, s1, s2, rho = 1.5, 1.0, 0.5, 2.0, -0.75
        log_scale = (0.5 * (a1 + a2) * math.log(2.0)
                     + a1 * math.log(s1) + a2 * math.log(s2))
        log_scale += (math.lgamma(0.5 * (a1 + 1.0))
                      + math.lgamma(0.5 * (a2 + 1.0))
                      - math.log(2.0 * math.pi))
        want = a1 * a2 * rho * rho * math.exp(log_scale)
        spec = MomentSpec(s1, s2, a1, a2, rho)
        assert gap_bound(spec) == GapBound(want, math.inf, "SameSignMain",
                                           False)
        assert self._bounds([spec, spec])[1].bound_lower == want

    def test_envelope_factors_shared_across_rho(self, monkeypatch):
        spec = MomentSpec(0.5, 2.0, -0.5, 3.0, 0.5)
        first = gap_bound(spec)
        # the mirrored orientation is its own key but gives the same bits
        mirrored = MomentSpec(2.0, 0.5, 3.0, -0.5, 0.5)
        assert gap_bound(mirrored) == first._replace(swapped=True)
        calls = _count_calls(monkeypatch, bounds, "bound_factors")
        rows = self._bounds([spec, mirrored,
                             MomentSpec(0.5, 2.0, -0.5, 3.0, -0.95)])
        assert calls == [(spec,), (mirrored,)]
        assert [(r.bound_lower, r.bound_upper) for r in rows[:2]] == \
            [(first.lower, first.upper)] * 2
        assert ["swapped" in r.flags for r in rows] == [False, True, False]

    def test_divergent_value_cached_as_vacuous(self, monkeypatch):
        calls = _count_calls(monkeypatch, special, "hyp2f1_at_one")
        rows = self._bounds([MomentSpec(1, 1, -0.9, 0.5, rho)
                             for rho in (0.25, 0.5, -0.75)])
        for row in rows:
            assert row.bound_lower == -math.inf and not row.finite_lower
            assert "vacuous-lower" in row.flags
        assert calls == [(1.45, 0.75, 1.5)]
        with pytest.raises(SeriesDivergenceError):
            special.hyp2f1_at_one(1.45, 0.75, 1.5)
