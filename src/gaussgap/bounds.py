"""Explicit bounds on the Gaussian product-moment gap.

Two regimes, split by the signs of the exponents:

* same sign (both in (-1, 0) or both positive): the gap is bounded below
  by an explicit nonnegative Gamma closed form, ``gap_lower_bound``.  The
  closed form has two branches; the second applies when exactly one
  exponent exceeds 2 while the other sits strictly inside (0, 2).
* opposite signs: the gap is negative and sandwiched by ``gap_envelope``,
  whose endpoints share a common negative coefficient, one side scaled by
  a hypergeometric value at z = 1.  When that value diverges
  (alpha1 + alpha2 <= 1) the lower endpoint is a vacuous -inf sentinel.

``check_point`` applies whichever regime matches and reports the outcome
with the fixed absolute-plus-relative tolerance ``TOLERANCE * max(1, |gap|)``,
so checks behave sensibly across many orders of magnitude.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from . import moments, special
from .errors import DomainError, GaussGapError, SeriesDivergenceError
from .types import MomentSpec

# Absolute-plus-relative tolerance of ``check_point``.
TOLERANCE = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_4_SQRT_PI = math.log(4.0) + 0.5 * math.log(math.pi)


class BoundCase(enum.Enum):
    """Which branch of the same-sign closed form applied."""

    SAME_SIGN_MAIN = "SameSignMain"
    MIXED_MAGNITUDE = "MixedMagnitude"


@dataclass(frozen=True)
class GapLowerBound:
    """Nonnegative lower bound on the gap for same-sign exponents."""

    value: float
    case_tag: BoundCase


@dataclass(frozen=True)
class GapEnvelope:
    """Two-sided bound on the (negative) gap for opposite-sign exponents.

    ``swapped`` records that the inputs arrived as (positive, negative)
    and were normalized to the canonical (negative, positive) orientation.
    """

    lower: float
    upper: float
    finite_lower: bool
    swapped: bool = False


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one parameter point against its bounds."""

    gap: float
    regime: str  # "same-sign" | "opposite-sign" | "trivial" | "error"
    bound: GapLowerBound | GapEnvelope | None
    satisfied: bool
    slack: float
    flags: tuple[str, ...] = ()


def _same_sign(a1: float, a2: float) -> bool:
    return (-1 < a1 < 0 and -1 < a2 < 0) or (a1 > 0 and a2 > 0)


def _mixed_magnitude(a1: float, a2: float) -> bool:
    return (a1 > 2 and 0 < a2 < 2) or (a2 > 2 and 0 < a1 < 2)


@functools.lru_cache(maxsize=4096)
def _lower_bound_scale(sigma1: float, sigma2: float, a1: float,
                       a2: float) -> tuple[float, BoundCase]:
    """The rho-free factor of ``gap_lower_bound`` and its branch."""
    log_scale = (0.5 * (a1 + a2) * math.log(2.0)
                 + a1 * math.log(sigma1) + a2 * math.log(sigma2))
    if _mixed_magnitude(a1, a2):
        case = BoundCase.MIXED_MAGNITUDE
        log_scale += math.lgamma(0.5 * (a1 + a2 - 1.0)) - _LOG_4_SQRT_PI
    else:
        case = BoundCase.SAME_SIGN_MAIN
        log_scale += (math.lgamma(0.5 * (a1 + 1.0))
                      + math.lgamma(0.5 * (a2 + 1.0)) - _LOG_2PI)
    return special.exp_of_log(log_scale), case


def gap_lower_bound(spec: MomentSpec) -> GapLowerBound:
    """Explicit Gamma-form lower bound on the gap for same-sign exponents.

    Zero exactly when rho = 0.  The boundary pair (one exponent equal to
    2, the other above 2) takes the main branch, where the bound is in
    fact attained with equality.
    """
    a1, a2 = spec.alpha1, spec.alpha2
    if not _same_sign(a1, a2):
        raise DomainError(
            "gap_lower_bound needs both exponents in (-1, 0) or both "
            f"positive, got ({a1}, {a2}); use gap_envelope for mixed signs")
    scale, case = _lower_bound_scale(spec.sigma1, spec.sigma2, a1, a2)
    return GapLowerBound(a1 * a2 * spec.rho * spec.rho * scale, case)


@functools.lru_cache(maxsize=4096)
def _envelope_scale(sigma1: float, sigma2: float, a1: float,
                    a2: float) -> float:
    """The rho-free factor of the envelope coefficient, in canonical order.

    Summed in one pass, not as ``_lower_bound_scale``'s main branch: the
    two associate differently and may differ in the last bit.
    """
    return special.exp_of_log(0.5 * (a1 + a2) * math.log(2.0)
                              + a1 * math.log(sigma1) + a2 * math.log(sigma2)
                              + math.lgamma(0.5 * (a1 + 1.0))
                              + math.lgamma(0.5 * (a2 + 1.0)) - _LOG_2PI)


@functools.lru_cache(maxsize=4096)
def _envelope_g_at_one(a1: float, a2: float) -> float | None:
    """F(1 - a1/2, 1 - a2/2; 3/2; 1), or None where it diverges."""
    try:
        return special.hyp2f1_at_one(1.0 - 0.5 * a1, 1.0 - 0.5 * a2, 1.5)
    except SeriesDivergenceError:
        return None


def gap_envelope(spec: MomentSpec) -> GapEnvelope:
    """Two-sided gap bounds for one negative and one positive exponent."""
    s1, s2, a1, a2 = spec.sigma1, spec.sigma2, spec.alpha1, spec.alpha2
    swapped = a2 < 0 < a1
    if swapped:
        s1, s2, a1, a2 = s2, s1, a2, a1
    if not (-1 < a1 < 0 and a2 > 0):
        raise DomainError(
            "gap_envelope needs exponents of opposite signs, "
            f"got ({spec.alpha1}, {spec.alpha2})")

    # The shared coefficient of both endpoints; negative for rho != 0.
    scale = _envelope_scale(s1, s2, a1, a2)
    coeff = a1 * a2 * spec.rho * spec.rho * scale + 0.0
    g_at_one = _envelope_g_at_one(a1, a2)
    if g_at_one is None:
        # Only reachable in the alpha2 <= 2 case, where the diverging side
        # is the lower endpoint: the bound degrades to a vacuous -inf.
        return GapEnvelope(-math.inf, coeff, False, swapped)
    if a2 <= 2.0:
        return GapEnvelope(coeff * g_at_one, coeff, True, swapped)
    return GapEnvelope(coeff, min(coeff * g_at_one, 0.0), True, swapped)


def _finite_bound(value: float, exponents: tuple[int, int]) -> float:
    """``value``, or ``DomainError`` when an integer closed form overflowed
    float64 (a float overflow, or an exact factorial too large to convert)."""
    if not math.isfinite(value):
        raise DomainError(f"closed-form bound for exponents {exponents} "
                          "overflows float64; exponents are too large")
    return value


def pair_bound_small(alpha1: float, alpha2: float, sigma1: float,
                     sigma2: float, rho: float) -> float:
    """Closed-form gap lower bound for exponent pairs drawn from {1, 2}."""
    key = (alpha1, alpha2)
    r2 = rho * rho
    if key == (1, 1):
        return sigma1 * sigma2 * r2 / math.pi
    if key == (1, 2):
        return math.sqrt(2.0) * sigma1 * sigma2 ** 2 * r2 / math.sqrt(math.pi)
    if key == (2, 1):
        return math.sqrt(2.0) * sigma1 ** 2 * sigma2 * r2 / math.sqrt(math.pi)
    if key == (2, 2):
        return 2.0 * sigma1 ** 2 * sigma2 ** 2 * r2
    raise DomainError(f"exponents must lie in {{1, 2}}, got {key}")


def pair_bound_int_one(m: int, sigma1: float, sigma2: float,
                       rho: float) -> float:
    """Closed-form gap lower bound for exponents (m, 1) with integer m > 2."""
    if not (float(m).is_integer() and m > 2):
        raise DomainError(f"m must be an integer greater than 2, got {m}")
    m = int(m)
    try:
        base = (special.double_factorial(m - 2) * m * sigma1 ** m * sigma2
                * rho * rho)
    except OverflowError:
        base = math.inf
    denom = math.sqrt(2.0 * math.pi) if m % 2 == 0 else 2.0
    return _finite_bound(base / denom, (m, 1))


def pair_bound_int_int(m: int, n: int, sigma1: float, sigma2: float,
                       rho: float) -> float:
    """Closed-form gap lower bound for integer exponents m, n > 2."""
    for v in (m, n):
        if not (float(v).is_integer() and v > 2):
            raise DomainError(f"exponents must be integers greater than 2, "
                              f"got ({m}, {n})")
    m, n = int(m), int(n)
    if m % 2 == 0 and n % 2 == 0:
        denom = 2.0
    elif m % 2 == 1 and n % 2 == 1:
        denom = math.pi
    else:
        denom = math.sqrt(2.0 * math.pi)
    try:
        value = (special.double_factorial(m - 1)
                 * special.double_factorial(n - 1)
                 * m * n * sigma1 ** m * sigma2 ** n * rho * rho / denom)
    except OverflowError:
        value = math.inf
    return _finite_bound(value, (m, n))


def check_point(spec: MomentSpec) -> BoundReport:
    """Compare the gap against its applicable bound(s) at one point.

    Computation errors become a failed-with-reason report instead of an
    exception so grid sweeps can keep going.
    """
    flags: list[str] = []
    try:
        g = moments.gap(spec)
    except GaussGapError as exc:
        return BoundReport(math.nan, "error", None, False, math.nan,
                           (f"error:{type(exc).__name__}:{exc}",))

    a1, a2 = spec.alpha1, spec.alpha2
    if a1 == 0.0 or a2 == 0.0:
        # |X|^0 = 1 makes the two sides coincide; nothing to bound.
        return BoundReport(g, "trivial", None, True, 0.0, ())

    scale = max(1.0, abs(g)) if math.isfinite(g) else 1.0
    try:
        if a1 * a2 > 0:
            bound = gap_lower_bound(spec)
            if math.isinf(g):
                # Degenerate |rho| = 1 with a non-integrable exponent sum:
                # the product moment is +inf and the bound holds vacuously.
                flags.append("gap-infinite")
                return BoundReport(g, "same-sign", bound, True,
                                   math.inf, tuple(flags))
            satisfied = g >= bound.value - TOLERANCE * scale
            return BoundReport(g, "same-sign", bound, satisfied,
                               g - bound.value, tuple(flags))
        env = gap_envelope(spec)
        upper_ok = g <= env.upper + TOLERANCE * scale
        if env.finite_lower:
            lower_ok = env.lower - TOLERANCE * scale <= g
            slack = min(env.upper - g, g - env.lower)
        else:
            flags.append("vacuous-lower")
            lower_ok = True
            slack = env.upper - g
        return BoundReport(g, "opposite-sign", env,
                           upper_ok and lower_ok, slack, tuple(flags))
    except GaussGapError as exc:
        return BoundReport(g, "error", None, False, math.nan,
                           (f"error:{type(exc).__name__}:{exc}",))
