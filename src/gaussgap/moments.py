"""Closed-form absolute moments of centered Gaussians and the product-moment gap.

For a centered bivariate Gaussian (X1, X2) with standard deviations
sigma1, sigma2 and correlation rho, the absolute product moment has the
hypergeometric closed form

    E[|X1|^a1 |X2|^a2] = P * F(-a1/2, -a2/2; 1/2; rho^2),
    P = 2^((a1+a2)/2) sigma1^a1 sigma2^a2
        Gamma((a1+1)/2) Gamma((a2+1)/2) / pi,

valid for a1, a2 > -1 and |rho| <= 1.  At |rho| = 1, X2 = +-(sigma2/sigma1) X1
for any scales, and F(1) is Gauss's Gamma ratio (the Chu-Vandermonde
product for an even-integer exponent), or +inf when a1 + a2 <= -1.  The
"gap" is the excess of that product moment over the product of the
marginal moments, P * (F - 1), with F - 1 summed directly from its first
term, never as a difference of two large moments.

Sigma enters only through the prefactor P (``product_of_marginals``)
and rho only through rho^2 (``series_factors``).  These functions compute
both afresh at every call; each chunk of a sweep (``verify.row_cores``)
computes P once per (sigma1, sigma2, alpha1, alpha2) and F once per
(alpha1, alpha2, rho^2), all of its series in one ``series_factors``
batch, and composes each point's gap and moment with ``scaled``, the
overflow rule of ``product_moment`` and ``gap``.

Prefactors are assembled in log space so large exponents (alpha ~ 50)
survive without overflow; beyond float range they raise ``DomainError``,
before F is summed, as does a log-Gamma past it (alpha above about
5e305).
"""

from __future__ import annotations

import math

from . import special
from .errors import DomainError, GaussGapError, SeriesDivergenceError
from .types import Estimate, MomentSpec

_LOG_PI = math.log(math.pi)


def series_factors(keys) -> list:
    """F(-alpha1/2, -alpha2/2; 1/2; z), or F - 1 where ``minus_one``, at
    each key ``(alpha1, alpha2, z, minus_one)`` with z = rho^2 in [0, 1].

    This is the whole rho dependence of the moment.  Each entry is a
    ``special.SeriesResult`` or the ``GaussGapError`` it failed with,
    without a traceback.  At z = 1 it is the exact
    ``special.hyp2f1_at_one``, or +inf where that diverges (alpha1 +
    alpha2 <= -1); every other key is a row of one batch summed through
    the ``special._sum_pfq`` module attribute.
    """
    results = [None] * len(keys)
    summed, rows = [], []
    for i, (alpha1, alpha2, z, minus_one) in enumerate(keys):
        a, b = -0.5 * alpha1, -0.5 * alpha2
        if z != 1.0:
            summed.append(i)
            rows.append(((a, b), (0.5,), z, minus_one))
            continue
        try:
            value = special.hyp2f1_at_one(a, b, 0.5)
        except SeriesDivergenceError:
            value = math.inf
        except GaussGapError as exc:
            results[i] = exc.with_traceback(None)
            continue
        results[i] = special.SeriesResult(value - 1.0 if minus_one else value,
                                          0, 0.0, True)
    for i, result in zip(summed, special._sum_pfq(rows)):
        results[i] = result
    return results


def series_factor(spec: MomentSpec, minus_one: bool) -> special.SeriesResult:
    """The one ``series_factors`` key of ``spec``, at z = rho^2, raising
    its error."""
    (result,) = series_factors([(spec.alpha1, spec.alpha2,
                                 spec.rho * spec.rho, minus_one)])
    if isinstance(result, GaussGapError):
        raise result
    return result


def abs_moment_1d(sigma: float, alpha: float) -> float:
    """E[|X|^alpha] for X ~ N(0, sigma^2), finite for alpha > -1."""
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not alpha > -1:
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    log_val = (0.5 * alpha * math.log(2.0) + alpha * math.log(sigma)
               + special.log_gamma(0.5 * (alpha + 1.0)) - 0.5 * _LOG_PI)
    return special.exp_of_log(log_val)


def product_of_marginals(spec: MomentSpec) -> float:
    """P = E[|X1|^alpha1] * E[|X2|^alpha2], independent of rho, from its
    log; ``DomainError`` past the float range."""
    a1, a2 = spec.alpha1, spec.alpha2
    return special.exp_of_log(0.5 * (a1 + a2) * math.log(2.0)
                              + a1 * math.log(spec.sigma1)
                              + a2 * math.log(spec.sigma2)
                              + special.log_gamma(0.5 * (a1 + 1.0))
                              + special.log_gamma(0.5 * (a2 + 1.0))
                              - _LOG_PI)


def scaled(p: float, factor: float) -> float:
    """P times a factor of the moment, ``DomainError`` where a finite
    factor overflows float64."""
    value = p * factor
    if math.isinf(value) and math.isfinite(factor):
        raise DomainError(f"P * {factor:.6g} overflows float64")
    return value


def product_moment(spec: MomentSpec) -> Estimate:
    """E[|X1|^alpha1 |X2|^alpha2] = P * F for |rho| <= 1.

    The error estimate is P times the truncation bound of F.  At
    |rho| = 1 the value is +inf when alpha1 + alpha2 <= -1.  P is
    computed first, so where it overflows F is not summed.
    """
    p = product_of_marginals(spec)
    series = series_factor(spec, False)
    return Estimate(scaled(p, series.value),
                    scaled(p, series.truncation_error_estimate))


def gap(spec: MomentSpec) -> float:
    """E[|X1|^a1 |X2|^a2] - E[|X1|^a1] E[|X2|^a2] = P * (F - 1).

    Exactly 0 at rho = 0, without P.  At |rho| = 1 the result is +inf
    when alpha1 + alpha2 <= -1.
    """
    if spec.rho == 0.0:
        return 0.0
    return scaled(product_of_marginals(spec), series_factor(spec, True).value)


def gap_via_3f2(spec: MomentSpec) -> float:
    """The gap for |rho| < 1 through the equivalent 3F2 form, an
    independent code path.

    Uses F(-a1/2, -a2/2; 1/2; rho^2) - 1 =
    (rho^2 a1 a2 / 2) * 3F2(1 - a1/2, 1 - a2/2, 1; 3/2, 2; rho^2).
    """
    if spec.rho == 0.0:
        return 0.0
    z = spec.rho * spec.rho
    series = special.hyp3f2(1.0 - 0.5 * spec.alpha1, 1.0 - 0.5 * spec.alpha2,
                            1.0, 1.5, 2.0, z)
    bracket = 0.5 * z * spec.alpha1 * spec.alpha2 * series.value
    return product_of_marginals(spec) * bracket
