"""Closed-form absolute moments of centered Gaussians and the product-moment gap.

For a centered bivariate Gaussian (X1, X2) with standard deviations
sigma1, sigma2 and correlation rho, the absolute product moment has the
hypergeometric closed form

    E[|X1|^a1 |X2|^a2] = P * F(-a1/2, -a2/2; 1/2; rho^2),
    P = 2^((a1+a2)/2) sigma1^a1 sigma2^a2
        Gamma((a1+1)/2) Gamma((a2+1)/2) / pi,

valid for |rho| < 1 and a1, a2 > -1; at |rho| = 1 the coordinates
coincide up to sign and the moment is one one-dimensional moment.  The
"gap" is the excess of that product moment over the product of the
marginal moments; it is computed as P * (F - 1) with the F - 1 series
summed directly from its first term, never as a difference of two large
moments.

Sigma enters only through the prefactor P and rho only through rho^2, so
the series factor is summed once per (alpha1, alpha2, rho^2) per process
(``correlation_factor``) and reused across scales and correlation signs,
and P is computed once per (sigma1, sigma2, alpha1, alpha2)
(``prefactor``) and reused across correlations.

Prefactors are assembled in log space so large exponents (alpha ~ 50)
survive without overflow; beyond float range they raise ``DomainError``.
"""

from __future__ import annotations

import functools
import math

from . import special
from .errors import DomainError
from .types import MomentSpec

_LOG_PI = math.log(math.pi)


def exp_of_log(log_value: float) -> float:
    """exp(log_value), raising ``DomainError`` past the float64 range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"value exp({log_value:.6g}) overflows float64; "
                          "exponents are too large") from None


# Bounded, so a caller streaming distinct keys cannot grow it without
# limit; the default verify grid uses 900 keys.
@functools.lru_cache(maxsize=4096)
def correlation_factor(alpha1: float, alpha2: float, z: float,
                       minus_one: bool) -> special.SeriesResult:
    """F(-alpha1/2, -alpha2/2; 1/2; z), or F - 1 when ``minus_one``.

    This is the whole rho dependence of the moment, with z = rho^2 < 1.
    Results are memoized per argument tuple (pass all four positionally,
    so equal keys hash alike); a miss sums through the ``special`` module
    attribute, and exceptions are not cached.
    """
    summed = special.hyp2f1_minus_one if minus_one else special.hyp2f1
    return summed(-0.5 * alpha1, -0.5 * alpha2, 0.5, z)


def abs_moment_1d(sigma: float, alpha: float) -> float:
    """E[|X|^alpha] for X ~ N(0, sigma^2), finite for alpha > -1."""
    if not sigma > 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not alpha > -1:
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    log_val = (0.5 * alpha * math.log(2.0) + alpha * math.log(sigma)
               + math.lgamma(0.5 * (alpha + 1.0)) - 0.5 * _LOG_PI)
    return exp_of_log(log_val)


# Bounded like ``correlation_factor``; the default grid uses 900 keys.
@functools.lru_cache(maxsize=4096)
def prefactor(sigma1: float, sigma2: float, alpha1: float,
              alpha2: float) -> float:
    """P = E[|X1|^alpha1] * E[|X2|^alpha2], from its log.

    Memoized per (sigma1, sigma2, alpha1, alpha2), passed positionally;
    a ``DomainError`` past the float range is not cached.
    """
    return exp_of_log(0.5 * (alpha1 + alpha2) * math.log(2.0)
                      + alpha1 * math.log(sigma1)
                      + alpha2 * math.log(sigma2)
                      + math.lgamma(0.5 * (alpha1 + 1.0))
                      + math.lgamma(0.5 * (alpha2 + 1.0))
                      - _LOG_PI)


def product_of_marginals(spec: MomentSpec) -> float:
    """E[|X1|^alpha1] * E[|X2|^alpha2], independent of rho."""
    return prefactor(spec.sigma1, spec.sigma2, spec.alpha1, spec.alpha2)


def product_moment(spec: MomentSpec) -> float:
    """E[|X1|^alpha1 |X2|^alpha2] for |rho| <= 1.

    |rho| = 1 goes to ``product_moment_rho_one``.
    """
    if spec.degenerate:
        return product_moment_rho_one(spec)
    series = correlation_factor(spec.alpha1, spec.alpha2, spec.rho * spec.rho,
                                False)
    return product_of_marginals(spec) * series.value


def _require_equal_scales(spec: MomentSpec) -> None:
    """|rho| = 1 makes X2 = +-X1, so both must have the same scale."""
    if spec.sigma1 != spec.sigma2:
        raise DomainError("|rho| = 1 forces equal scales; got "
                          f"sigma1 = {spec.sigma1}, sigma2 = {spec.sigma2}")


def product_moment_rho_one(spec: MomentSpec) -> float:
    """E[|X1|^alpha1 |X2|^alpha2] in the degenerate case |rho| = 1.

    With |rho| = 1 the coordinates coincide up to sign, which forces
    sigma1 = sigma2 and reduces the product moment to
    E[|X1|^(alpha1+alpha2)].  When alpha1 + alpha2 <= -1 that moment is
    infinite and +inf is returned.
    """
    if not spec.degenerate:
        raise DomainError(f"product_moment_rho_one requires |rho| = 1, "
                          f"got rho = {spec.rho}")
    _require_equal_scales(spec)
    total = spec.alpha1 + spec.alpha2
    if total <= -1.0:
        return math.inf
    return abs_moment_1d(spec.sigma1, total)


def gap(spec: MomentSpec) -> float:
    """E[|X1|^a1 |X2|^a2] - E[|X1|^a1] E[|X2|^a2].

    Exactly 0 at rho = 0.  At |rho| = 1 the degenerate route applies and
    the result is +inf when alpha1 + alpha2 <= -1.
    """
    if spec.rho == 0.0:
        return 0.0
    if spec.degenerate:
        _require_equal_scales(spec)
        if spec.alpha1 + spec.alpha2 <= -1.0:
            return math.inf
        f_at_one = special.hyp2f1_at_one(-0.5 * spec.alpha1,
                                         -0.5 * spec.alpha2, 0.5)
        return product_of_marginals(spec) * (f_at_one - 1.0)
    tail = correlation_factor(spec.alpha1, spec.alpha2, spec.rho * spec.rho,
                              True)
    return product_of_marginals(spec) * tail.value


def gap_via_3f2(spec: MomentSpec) -> float:
    """The gap through the equivalent 3F2 form, an independent code path.

    Uses F(-a1/2, -a2/2; 1/2; rho^2) - 1 =
    (rho^2 a1 a2 / 2) * 3F2(1 - a1/2, 1 - a2/2, 1; 3/2, 2; rho^2).
    """
    if spec.degenerate:
        raise DomainError("gap_via_3f2 requires |rho| < 1")
    if spec.rho == 0.0:
        return 0.0
    z = spec.rho * spec.rho
    series = special.hyp3f2(1.0 - 0.5 * spec.alpha1, 1.0 - 0.5 * spec.alpha2,
                            1.0, 1.5, 2.0, z)
    bracket = 0.5 * z * spec.alpha1 * spec.alpha2 * series.value
    return product_of_marginals(spec) * bracket
