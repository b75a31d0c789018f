"""Explicit bounds on the Gaussian product-moment gap.

Both results say the gap lies in an explicit interval, a ``GapBound``
from ``gap_bound``; the signs of the exponents pick its shape:

* same sign (both in (-1, 0) or both positive): ``[f, +inf)`` with ``f``
  a nonnegative Gamma closed form with two branches, tagged "SameSignMain"
  and "MixedMagnitude"; the second applies when exactly one exponent
  exceeds 2 while the other sits strictly inside (0, 2).
* opposite signs: the gap is negative and sandwiched by a two-sided
  envelope whose ends share a common negative coefficient, one end
  scaled by a hypergeometric value G(1) at z = 1.  When G(1) diverges
  (alpha1 + alpha2 <= 1) the lower end is a vacuous -inf.

``interval`` gives the two ends from the rho-free ``bound_factors``, and
``check_gap`` tests a gap against them with the fixed
absolute-plus-relative tolerance ``TOLERANCE * max(1, |gap|)``, so
checks behave sensibly across many orders of magnitude.  It is the one
bound test: a sweep calls it once per row core, and ``check_point`` on
one point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import moments, special
from .errors import (DomainError, GaussGapError, SeriesDivergenceError,
                     outcome)
from .types import MomentSpec

# Absolute-plus-relative tolerance of the bound test (``check_gap``).
TOLERANCE = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_4_SQRT_PI = math.log(4.0) + 0.5 * math.log(math.pi)


class GapBound(NamedTuple):
    """The interval ``[lower, upper]`` that holds the gap at one point.

    ``upper`` is +inf for same-sign exponents and ``lower`` is -inf only
    where G(1) diverges.  ``case_tag`` names the branch of the same-sign
    closed form, "SameSignMain" or "MixedMagnitude", None for opposite
    signs.  ``swapped`` records that opposite-sign inputs arrived as
    (positive, negative) and were normalized to (negative, positive).
    """

    lower: float
    upper: float
    case_tag: str | None = None
    swapped: bool = False

    @property
    def finite_lower(self) -> bool:
        return self.lower > -math.inf


class BoundReport(NamedTuple):
    """Outcome of checking one parameter point against its bounds."""

    gap: float
    regime: str  # "same-sign" | "opposite-sign" | "trivial" | "error"
    bound: GapBound | None
    satisfied: bool
    slack: float
    flags: tuple[str, ...] = ()


def _mixed_magnitude(a1: float, a2: float) -> bool:
    return (a1 > 2 and 0 < a2 < 2) or (a2 > 2 and 0 < a1 < 2)


def bound_factors(spec: MomentSpec
                  ) -> tuple[float, str | None, float | None, bool] | None:
    """The rho-free part of ``gap_bound``: (scale, case tag, G(1), swapped),
    a function of (sigma1, sigma2, alpha1, alpha2) alone.

    The regime is decided here.  A zero exponent leaves no gap to bound:
    None.  Same sign: the scale of the Gamma closed form and the tag of
    its branch, no G(1).  Opposite signs, in the canonical orientation:
    the scale of the envelope coefficient, no tag, and
    G(1) = F(1 - a1/2, 1 - a2/2; 3/2; 1), or None where it diverges.  The
    envelope scale sums its logs in one pass, the main branch groups the
    Gamma terms: they may differ in the last bit.  Raises ``DomainError``
    where a log-Gamma, the scale or G(1) overflows float64, the first of
    them in that order.
    """
    sigma1, sigma2, a1, a2 = spec.sigma1, spec.sigma2, spec.alpha1, spec.alpha2
    if a1 == 0.0 or a2 == 0.0:
        return None
    swapped = a2 < 0 < a1
    if swapped:
        sigma1, sigma2, a1, a2 = sigma2, sigma1, a2, a1
    log_scale = (0.5 * (a1 + a2) * math.log(2.0)
                 + a1 * math.log(sigma1) + a2 * math.log(sigma2))
    lg1 = special.log_gamma(0.5 * (a1 + 1.0))
    lg2 = special.log_gamma(0.5 * (a2 + 1.0))
    if a1 * a2 < 0:
        # the scale first: where it overflows, G(1) (a product of about
        # a1/2 factors for an even a1) is not computed
        scale = special.exp_of_log(log_scale + lg1 + lg2 - _LOG_2PI)
        try:
            g_at_one = special.hyp2f1_at_one(1.0 - 0.5 * a1, 1.0 - 0.5 * a2,
                                             1.5)
        except SeriesDivergenceError:
            g_at_one = None
        return scale, None, g_at_one, swapped
    if _mixed_magnitude(a1, a2):
        case = "MixedMagnitude"
        log_scale += (special.log_gamma(0.5 * (a1 + a2 - 1.0))
                      - _LOG_4_SQRT_PI)
    else:
        case = "SameSignMain"
        log_scale += lg1 + lg2 - _LOG_2PI
    return special.exp_of_log(log_scale), case, None, False


def gap_bound(spec: MomentSpec) -> GapBound:
    """The explicit interval that holds the gap, for nonzero exponents.

    Same sign: ``[f, +inf)`` with ``f >= 0``, zero exactly when rho = 0.
    The boundary pair (one exponent equal to 2, the other above 2) takes
    the main branch, where the bound is in fact attained with equality.
    Opposite signs: the two-sided envelope, ``lower`` -inf where G(1)
    diverges.  Raises ``DomainError`` where an end overflows float64.
    """
    factors = bound_factors(spec)
    if factors is None:
        raise DomainError(f"a zero exponent leaves no gap to bound, got "
                          f"({spec.alpha1}, {spec.alpha2})")
    return GapBound(*interval(factors, spec.alpha1, spec.alpha2, spec.rho),
                    factors[1], factors[3])


def _finite_bound(value: float, exponents: tuple[float, float]) -> float:
    """``value``, or ``DomainError`` when a closed form overflowed float64
    (a float overflow, or an exact factorial too large to convert)."""
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


def error_flag(exc: GaussGapError) -> str:
    """The ``error:<Type>:<message>`` flag of a report row."""
    return f"error:{type(exc).__name__}:{exc}"


def interval(factors, a1: float, a2: float, rho: float
             ) -> tuple[float, float]:
    """The ends (lower, upper) of the ``gap_bound`` interval at exponents
    ``a1``, ``a2`` and correlation ``rho``, from the point's
    ``bound_factors`` tuple; each step is even in rho, bit for bit.
    Raises ``DomainError`` where an end overflows float64."""
    scale, case, g_at_one, _ = factors
    # a1 a2 rho^2 times the scale: the same-sign lower end, and the
    # envelope's shared coefficient (negative for rho != 0)
    coeff = a1 * a2 * rho * rho * scale + 0.0
    far = coeff if g_at_one is None else coeff * g_at_one
    if not math.isfinite(far):
        # the far end is not finite where the coefficient is not
        _finite_bound(far, (a1, a2))  # raises
    if case is not None:
        return coeff, math.inf
    # Without G(1) (only with the positive exponent at most 2) the
    # diverging side is the lower end: it degrades to -inf.
    if g_at_one is None:
        return -math.inf, coeff
    if max(a1, a2) <= 2.0:
        return far, coeff
    return coeff, min(far, 0.0)


def _failed(g: float, exc: GaussGapError) -> tuple:
    """The ``check_gap`` values of a point whose check raised ``exc``."""
    return ("error", None, g, None, None, None, False, math.nan,
            (error_flag(exc),), False)


def check_gap(g, factors, a1: float, a2: float, rho: float) -> tuple:
    """The one bound test, at one point: the gap ``g``, or the
    ``GaussGapError`` computing it raised, against its ``gap_bound``
    interval at ``a1``, ``a2``, ``rho`` from ``factors``, the point's
    ``bound_factors`` or the error computing them raised.

    An error (the gap's first, then the factors', then an end's
    overflow) fails the point with its reason, and a failed gap reads
    nan.  None factors leave nothing to bound ("trivial").  The rest are
    tested with the tolerance ``TOLERANCE * max(1, |gap|)``; an infinite
    gap (|rho| = 1, a non-integrable exponent sum) holds its bound
    vacuously.  Returns the ``ReportRow`` fields from ``regime`` to
    ``flags`` but the moment, as plain values (an upper end +inf is
    None), and whether the interval was swapped.
    """
    if isinstance(g, GaussGapError):
        return _failed(math.nan, g)
    if factors is None:
        # |X|^0 = 1 makes the two sides coincide; nothing to bound.
        return "trivial", None, g, None, None, None, True, 0.0, (), False
    if isinstance(factors, GaussGapError):
        return _failed(g, factors)
    try:
        lower, upper = interval(factors, a1, a2, rho)
    except GaussGapError as exc:
        return _failed(g, exc)
    if math.isinf(g):
        satisfied, slack, flags = True, math.inf, ("gap-infinite",)
    else:  # max(1, |g|) and min(below, above), spelled out: they run per core
        size = abs(g)
        tol = TOLERANCE * (size if size > 1.0 else 1.0)
        satisfied = lower - tol <= g <= upper + tol
        above, below = g - lower, upper - g
        slack = above if above < below else below
        flags = () if lower > -math.inf else ("vacuous-lower",)
    same = upper == math.inf
    return ("same-sign" if same else "opposite-sign", factors[1], g, lower,
            None if same else upper, lower > -math.inf, satisfied, slack,
            flags, factors[3])


def check_point(spec: MomentSpec) -> BoundReport:
    """Test the gap against its ``gap_bound`` interval at one point
    (``check_gap``).  An error becomes a failed-with-reason report, so
    sweeps keep going; the gap's comes first, and then the bound's
    factors are not computed."""
    g = outcome(moments.gap, spec)
    factors = (None if isinstance(g, GaussGapError)
               else outcome(bound_factors, spec))
    (regime, case, g, lower, upper, _, satisfied, slack, flags,
     swapped) = check_gap(g, factors, spec.alpha1, spec.alpha2, spec.rho)
    bound = None if lower is None else GapBound(
        lower, math.inf if upper is None else upper, case, swapped)
    return BoundReport(g, regime, bound, satisfied, slack, flags)
