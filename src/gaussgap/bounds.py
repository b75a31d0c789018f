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

``intervals`` builds a column of those intervals, and ``check_gaps``
tests a column of gaps against them with the fixed absolute-plus-relative
tolerance ``TOLERANCE * max(1, |gap|)``, so checks behave sensibly across
many orders of magnitude.  It is the one bound test: a sweep's chunk
calls it once for all its rows, and ``check_point`` is its one-point
call, as ``gap_bound`` is that of ``intervals``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import moments, special
from .errors import (DomainError, GaussGapError, SeriesDivergenceError,
                     keep_first)
from .types import MomentSpec

# Absolute-plus-relative tolerance of the bound test (``check_gaps``).
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
    errors = [None]
    (lower,), (upper,) = intervals(
        np.array([spec.alpha1]), np.array([spec.alpha2]),
        np.array([spec.rho]), [factors], errors)[:2]
    for error in filter(None, errors):
        raise error
    return GapBound(lower.item(), upper.item(), factors[1], factors[3])


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


# The factors of an entry without a ``bound_factors`` tuple, and the
# regimes and flags of the bound test by their codes.
_NO_FACTORS = (0.0, None, None, False)
_REGIMES = np.array(("same-sign", "opposite-sign", "trivial", "error"),
                    dtype=object)
_FLAGS = ((), ("vacuous-lower",), ("gap-infinite",))


def _or_none(values: np.ndarray, none) -> list:
    """``values`` as Python objects, None where ``none`` holds."""
    return np.where(none, None, values.astype(object)).tolist()


@np.errstate(over="ignore", invalid="ignore")
def intervals(a1, a2, rho, factors, errors: list) -> tuple:
    """The ``gap_bound`` intervals, by column: at ``a1[i]``, ``a2[i]``,
    ``rho[i]`` (float64 columns; each step is even in rho, bit for bit)
    from ``factors[i]``, the point's ``bound_factors`` or the error
    computing them raised.  Returns the lower and upper ends, whatever
    an entry without an interval holds, and the factors' case tags and
    swapped marks.  An entry keeps its first error in ``errors`` (see
    ``errors.keep_first``): its own, the factors', then an end's
    overflow."""
    keep_first(errors, np.array([isinstance(f, GaussGapError)
                                 for f in factors]), factors.__getitem__)
    scale, case, g_at_one, swapped = zip(
        *(f if type(f) is tuple else _NO_FACTORS for f in factors))
    # a1 a2 rho^2 times the scale: the same-sign lower end, and the
    # envelope's shared coefficient (negative for rho != 0)
    coeff = a1 * a2 * rho * rho * np.array(scale) + 0.0
    g_at_one = np.array(g_at_one, dtype=float)  # nan: no G(1)
    far, no_far = coeff * g_at_one, np.isnan(g_at_one)
    # the far end is not finite where the coefficient is not
    keep_first(errors, ~np.isfinite(np.where(no_far, coeff, far)),
               lambda i: DomainError(
                   f"closed-form bound for exponents "
                   f"{(a1[i].item(), a2[i].item())} overflows float64; "
                   "exponents are too large"))
    # Without G(1) (only with the positive exponent at most 2) the
    # diverging side is the lower end: it degrades to -inf.
    same = np.array([c is not None for c in case])
    near = np.maximum(a1, a2) <= 2.0
    lower = np.where(same, coeff, np.where(
        no_far, -math.inf, np.where(near, far, coeff)))
    upper = np.where(same, math.inf, np.where(
        no_far | near, coeff, np.where(0.0 < far, 0.0, far)))
    return lower, upper, case, swapped


@np.errstate(over="ignore", invalid="ignore")
def check_gaps(gaps, a1, a2, rho, factors, errors: list) -> tuple:
    """The one bound test, by column: each gap ``gaps[i]`` against its
    interval from ``intervals(a1, a2, rho, factors, errors)``, where
    ``errors[i]`` holds the gap's error or None.

    An entry with an error (the gap's first) fails with its reason.
    None factors leave nothing to bound ("trivial").  The rest are
    tested with the tolerance ``TOLERANCE * max(1, |gap|)``; an infinite
    gap (|rho| = 1, a non-integrable exponent sum) holds its bound
    vacuously.  Returns the ``ReportRow`` columns from ``regime`` to
    ``flags`` but the moment and gap, as lists of Python values (an
    upper end +inf is None), and whether each interval was swapped.
    """
    lower, upper, case, swapped = intervals(a1, a2, rho, factors, errors)
    same = upper == math.inf
    tol = TOLERANCE * np.maximum(1.0, np.abs(gaps))
    infinite = np.isinf(gaps)
    above, below = gaps - lower, upper - gaps
    satisfied = ((lower - tol <= gaps) & (gaps <= upper + tol)) | infinite
    slack = np.where(infinite, math.inf, np.where(above < below, above,
                                                  below))
    failed = np.array([e is not None for e in errors])
    regime = np.where(failed, 3,
                      np.where([f is None for f in factors], 2, ~same))
    none = regime >= 2
    flags = [(error_flag(e),) if e else _FLAGS[c] for e, c in zip(errors, (
        np.where(none, 0, np.where(infinite, 2, lower == -math.inf))
        .tolist()))]
    return (_REGIMES[regime].tolist(),
            _or_none(np.array(case, dtype=object), none),
            _or_none(lower, none), _or_none(upper, none | same),
            _or_none(lower > -math.inf, none),
            np.where(none, ~failed, satisfied).tolist(),
            np.where(none, np.where(failed, math.nan, 0.0), slack).tolist(),
            flags, (np.array(swapped) & ~none).tolist())


def _check_one(g: float, spec: MomentSpec, factors, error) -> BoundReport:
    """``check_gaps`` at one point, as its ``BoundReport``."""
    regime, case, lower, upper, _, satisfied, slack, flags, swapped = (
        column[0] for column in check_gaps(
            np.array([g]), np.array([spec.alpha1]), np.array([spec.alpha2]),
            np.array([spec.rho]), [factors], [error]))
    bound = None if lower is None else GapBound(
        lower, math.inf if upper is None else upper, case, swapped)
    return BoundReport(g, regime, bound, satisfied, slack, flags)


def check_point(spec: MomentSpec) -> BoundReport:
    """Test the gap against its ``gap_bound`` interval at one point (a
    one-point ``check_gaps``).  An error becomes a failed-with-reason
    report, so sweeps keep going; the gap's comes first, and then the
    bound's factors are not computed."""
    try:
        g = moments.gap(spec)
    except GaussGapError as exc:
        return _check_one(math.nan, spec, None, exc)
    try:
        factors = bound_factors(spec)
    except GaussGapError as exc:
        factors = exc
    return _check_one(g, spec, factors, None)
