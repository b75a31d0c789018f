"""Reference routes that the tests check the series evaluators against.

They are slower than the evaluators and take no part in the package's
results, so they live beside the tests rather than in ``gaussgap``.
"""

import math

from scipy.integrate import quad

from gaussgap.errors import AccuracyError, DomainError
from gaussgap.special import hyp2f1


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
