"""Reference routes that the tests check the package against.

They are slower than the package's own routes and take no part in its
results, so they live beside the tests rather than in ``gaussgap``:

* ``hyp_integral_rep``, an independent route to 3F2 for the series
  evaluators;
* the composition of a report row, one point at a time
  (``point_row``): the gap and moment from P and the series factors,
  the bound interval and the bound test, with their order of errors.
  The package composes the same numbers once per row core of a sweep
  (``moments.scaled``, ``bounds.interval`` and ``bounds.check_gap``),
  with the same IEEE operations in the same order, so the two agree
  bit for bit; these copies keep the tests independent of that code.
"""

import math

from scipy.integrate import quad

from gaussgap import bounds, moments
from gaussgap.bounds import BoundReport, GapBound
from gaussgap.errors import AccuracyError, DomainError, GaussGapError
from gaussgap.special import hyp2f1
from gaussgap.types import Estimate, MomentSpec
from gaussgap.verify import ReportRow


def hyp_integral_rep(a1: float, a2: float, a3: float, b1: float, b2: float,
                     z: float) -> float:
    """3F2 via its standard integral representation over a 2F1 kernel.

    3F2(a1, a2, a3; b1, b2; z) =
        Gamma(b2) / (Gamma(a3) Gamma(b2 - a3)) *
        integral_0^1 t^(a3-1) (1-t)^(b2-a3-1) F(a1, a2; b1; z t) dt,
    valid for b2 > a3 > 0.  This is an independent route used to validate
    the direct series summation.
    """
    if not (b2 > a3 > 0):
        raise DomainError(f"integral representation requires b2 > a3 > 0, "
                          f"got a3 = {a3}, b2 = {b2}")
    if b1 <= 0 and float(b1).is_integer():
        raise DomainError(f"inner 2F1 lower parameter must not be a "
                          f"non-positive integer, got {b1}")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp_integral_rep requires z in [0, 1), got {z}")

    log_norm = math.lgamma(b2) - math.lgamma(a3) - math.lgamma(b2 - a3)
    norm = math.exp(log_norm)

    def integrand(t: float) -> float:
        weight = t ** (a3 - 1.0) * (1.0 - t) ** (b2 - a3 - 1.0)
        return weight * hyp2f1(a1, a2, b1, z * t).value

    res = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-9,
               limit=200, full_output=1)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        raise AccuracyError(f"integral representation quadrature failed: {res[3]}",
                            estimate=norm * value, achieved_error=norm * abserr)
    return norm * value


def _times(p: float, factor: float) -> float:
    """p * factor, raising ``DomainError`` where a finite factor overflows."""
    value = p * factor
    if math.isinf(value) and math.isfinite(factor):
        raise DomainError(f"P * {factor:.6g} overflows float64")
    return value


def product_moment(spec: MomentSpec) -> Estimate:
    """P * F with P times the truncation bound of F as its error; P
    first, so where it overflows F is not summed."""
    p = moments.product_of_marginals(spec)
    series = moments.series_factor(spec, False)
    return Estimate(_times(p, series.value),
                    _times(p, series.truncation_error_estimate))


def gap(spec: MomentSpec) -> float:
    """P * (F - 1), exactly 0 at rho = 0 without P."""
    if spec.rho == 0.0:
        return 0.0
    return _times(moments.product_of_marginals(spec),
                  moments.series_factor(spec, True).value)


def _finite_bound(value: float, exponents: tuple[float, float]) -> float:
    if not math.isfinite(value):
        raise DomainError(f"closed-form bound for exponents {exponents} "
                          "overflows float64; exponents are too large")
    return value


def interval(factors, spec: MomentSpec) -> GapBound:
    """The interval of ``gap_bound`` from the point's ``bound_factors``."""
    scale, case, g_at_one, swapped = factors
    a1, a2 = spec.alpha1, spec.alpha2
    coeff = _finite_bound(a1 * a2 * spec.rho * spec.rho * scale + 0.0,
                          (a1, a2))
    if case is not None:
        return GapBound(coeff, math.inf, case)
    if g_at_one is None:
        return GapBound(-math.inf, coeff, None, swapped)
    far = _finite_bound(coeff * g_at_one, (a1, a2))
    if max(a1, a2) <= 2.0:
        return GapBound(far, coeff, None, swapped)
    return GapBound(coeff, min(far, 0.0), None, swapped)


def error_report(g: float, exc: GaussGapError) -> BoundReport:
    return BoundReport(g, "error", None, False, math.nan,
                       (bounds.error_flag(exc),))


def check_point(spec: MomentSpec) -> BoundReport:
    """The gap against its interval at one point; the gap's error first,
    then the factors', then an end's overflow."""
    try:
        g = gap(spec)
    except GaussGapError as exc:
        return error_report(math.nan, exc)
    try:
        factors = bounds.bound_factors(spec)
        if factors is None:
            return BoundReport(g, "trivial", None, True, 0.0, ())
        bound = interval(factors, spec)
    except GaussGapError as exc:
        return error_report(g, exc)
    regime = "same-sign" if bound.upper == math.inf else "opposite-sign"
    if math.isinf(g):
        return BoundReport(g, regime, bound, True, math.inf, ("gap-infinite",))
    tol = bounds.TOLERANCE * max(1.0, abs(g))
    return BoundReport(g, regime, bound,
                       bound.lower - tol <= g <= bound.upper + tol,
                       min(bound.upper - g, g - bound.lower),
                       () if bound.finite_lower else ("vacuous-lower",))


def point_row(spec: MomentSpec, index: int) -> ReportRow:
    """The row of one point, without oracles, from ``check_point`` and
    ``product_moment`` alone."""
    report = check_point(spec)
    flags = report.flags
    try:
        moment = product_moment(spec).value
    except GaussGapError as exc:
        moment = None
        flags += (bounds.error_flag(exc),)
    bound = report.bound
    case_tag = lower = upper = finite_lower = None
    if bound is not None:
        case_tag, lower = bound.case_tag, bound.lower
        finite_lower = bound.finite_lower
        upper = bound.upper if bound.upper < math.inf else None
        if bound.swapped:
            flags += ("swapped",)
    return ReportRow(index, spec.sigma1, spec.sigma2, spec.alpha1,
                     spec.alpha2, spec.rho, report.regime, case_tag, moment,
                     report.gap, lower, upper, finite_lower, report.satisfied,
                     report.slack, None, None, None, None, None, None, flags)
