"""Shared domain types."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


@dataclass(frozen=True)
class MomentSpec:
    """Parameters of one bivariate centered Gaussian moment problem.

    sigma1, sigma2 are the standard deviations of the two coordinates,
    alpha1, alpha2 the exponents applied to their absolute values, and rho
    the correlation coefficient.  Scales and exponents must be finite, and
    exponents must exceed -1 for the moments to be finite.  |rho| = 1 is
    admitted; operations that need |rho| < 1 enforce it themselves.
    """

    sigma1: float
    sigma2: float
    alpha1: float
    alpha2: float
    rho: float

    def __post_init__(self):
        if not (0 < self.sigma1 < math.inf and 0 < self.sigma2 < math.inf):
            raise DomainError(f"standard deviations must be finite and "
                              f"positive, got ({self.sigma1}, {self.sigma2})")
        if not (-1 < self.alpha1 < math.inf and -1 < self.alpha2 < math.inf):
            raise DomainError(f"exponents must be finite and exceed -1, got "
                              f"({self.alpha1}, {self.alpha2})")
        if not abs(self.rho) <= 1:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.rho}")


class Estimate(NamedTuple):
    """A moment value plus a one-sided error bound or standard error."""

    value: float
    error_estimate: float
