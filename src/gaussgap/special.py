"""Hypergeometric series evaluation.

The series evaluators sum the defining power series directly with a
relative stopping rule (next term below ``SERIES_EPS`` times the partial
sum, and shrinking).  No connection formulas are used, so convergence near
z = 1 is genuinely slow: the closer z gets to 1 and the smaller the
balance c - a - b, the more terms are needed.  Blocks are evaluated with
numpy so even multi-million-term sums stay fast, but arguments too close
to 1 still exhaust the term cap and raise ``ConvergenceError`` rather than
silently returning a low-accuracy value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (AccuracyError, ConvergenceError, DomainError,
                     SeriesDivergenceError)

SERIES_EPS = 1e-15
# Generous cap: direct summation of borderline-convergent series at
# z = 1 - 1e-6 can legitimately need ~1.5e7 terms before the stopping
# rule is met.
MAX_TERMS = 50_000_000

_BLOCK_START = 64
_BLOCK_MAX = 65536


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one truncated series summation.

    ``terminated`` is True when a numerator Pochhammer factor hit zero,
    in which case the partial sum is exact and
    ``truncation_error_estimate`` is 0.  Otherwise the estimate is the
    geometric tail bound |t_next| / (1 - r) built from the first omitted
    term and the last observed term ratio r.
    """

    value: float
    terms_used: int
    truncation_error_estimate: float
    terminated: bool


def _is_nonpos_int(x: float) -> bool:
    return x <= 0 and math.isfinite(x) and float(x).is_integer()


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-pole arguments."""
    if x > 0:
        return 1.0
    return -1.0 if math.ceil(-x) % 2 else 1.0


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    if n < -1:
        raise DomainError(f"double_factorial requires n >= -1, got {n}")
    return math.prod(range(n, 1, -2))


def _terminating_sum(nums, dens, z: float, last_n: int,
                     skip_first: bool = False) -> SeriesResult:
    """Exact finite sum of a pFq whose numerator hits zero after index last_n.

    With ``skip_first`` the n = 0 term is left out, summing F - 1 without
    subtraction.
    """
    total = 0.0 if skip_first else 1.0
    term = 1.0
    for k in range(last_n):
        term *= z / (k + 1.0)
        for p in nums:
            term *= p + k
        for q in dens:
            term /= q + k
        total += term
    return SeriesResult(total, last_n if skip_first else last_n + 1, 0.0, True)


def _sum_pfq(nums, dens, z: float, *,
             skip_first: bool = False) -> SeriesResult:
    """Sum a generalized hypergeometric series with the library stopping rule.

    ``skip_first=True`` sums only the tail from n = 1, which evaluates
    F - 1 without the cancellation of computing F and subtracting.
    """
    stop_points = [int(-p) for p in nums if _is_nonpos_int(p)]
    if stop_points:
        m = min(stop_points)
        if not skip_first:
            if z == 0.0:
                return SeriesResult(1.0, 1, 0.0, False)
            return _terminating_sum(nums, dens, z, m)
        if m == 0:
            return SeriesResult(0.0, 0, 0.0, True)
        return _terminating_sum(nums, dens, z, m, skip_first=True)

    if z == 0.0:
        if skip_first:
            return SeriesResult(0.0, 0, 0.0, False)
        return SeriesResult(1.0, 1, 0.0, False)

    if skip_first:
        term = z
        for p in nums:
            term *= p
        for q in dens:
            term /= q
        total = term
        n_next = 2
    else:
        term = 1.0
        total = 1.0
        n_next = 1

    block = _BLOCK_START
    while n_next <= MAX_TERMS:
        hi = min(n_next + block, MAX_TERMS + 1)
        idx = np.arange(n_next, hi, dtype=np.float64)
        ratio = np.full(idx.shape, z)
        for p in nums:
            ratio *= p + (idx - 1.0)
        for q in dens:
            ratio /= q + (idx - 1.0)
        ratio /= idx
        terms = term * np.cumprod(ratio)
        sums = total + np.cumsum(terms)
        t_all = np.concatenate(([term], terms))
        s_all = np.concatenate(([total], sums))
        small = np.abs(t_all[1:]) < SERIES_EPS * np.abs(s_all[:-1])
        shrinking = np.abs(t_all[1:]) < np.abs(t_all[:-1])
        hits = np.nonzero(small & shrinking)[0]
        if hits.size:
            j = int(hits[0])
            t_last = float(t_all[j])
            t_next = float(t_all[j + 1])
            r = abs(t_next) / abs(t_last) if t_last != 0.0 else 0.0
            tail = abs(t_next) / (1.0 - r) if r < 1.0 else math.inf
            return SeriesResult(float(s_all[j]), n_next + j, tail, False)
        if not (math.isfinite(float(terms[-1])) and math.isfinite(float(sums[-1]))):
            raise ConvergenceError(
                "series summation produced a non-finite term",
                partial_value=float(total), terms_used=n_next - 1)
        term = float(terms[-1])
        total = float(sums[-1])
        n_next = hi
        block = min(block * 2, _BLOCK_MAX)

    raise ConvergenceError(
        f"series did not meet the stopping criterion within {MAX_TERMS} terms "
        f"(z = {z} too close to 1)",
        partial_value=total, terms_used=MAX_TERMS)


def _check_lower(params, label: str) -> None:
    for q in params:
        if _is_nonpos_int(q):
            raise DomainError(f"{label} parameter must not be a non-positive "
                              f"integer, got {q}")


def hyp2f1(a: float, b: float, c: float, z: float) -> SeriesResult:
    """Gauss hypergeometric series F(a, b; c; z) for z in [0, 1)."""
    _check_lower((c,), "hyp2f1 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1 requires z in [0, 1), got {z}; "
                          "use hyp2f1_at_one for z = 1")
    return _sum_pfq((a, b), (c,), z)


def hyp2f1_minus_one(a: float, b: float, c: float, z: float) -> SeriesResult:
    """F(a, b; c; z) - 1 summed directly from the n = 1 term.

    Avoids the catastrophic cancellation of evaluating F and subtracting 1
    when z (and hence F - 1) is small.
    """
    _check_lower((c,), "hyp2f1 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1_minus_one requires z in [0, 1), got {z}")
    return _sum_pfq((a, b), (c,), z, skip_first=True)


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """F(a, b; c; 1) by finite sum (terminating) or the Gamma ratio form.

    For non-terminating parameters the value exists only when
    c - a - b > 0; otherwise ``SeriesDivergenceError`` is raised and
    callers map it to an infinite-bound sentinel.
    """
    _check_lower((c,), "hyp2f1 lower")
    stop_points = [int(-p) for p in (a, b) if _is_nonpos_int(p)]
    if stop_points:
        return _terminating_sum((a, b), (c,), 1.0, min(stop_points)).value
    s = c - a - b
    if s <= 0:
        raise SeriesDivergenceError(
            f"F(a, b; c; 1) diverges for c - a - b = {s} <= 0")
    # c and s are safely off the Gamma poles here: c was validated and
    # s > 0, but c - a or c - b may land on a pole, where the ratio is 0.
    sign = _gamma_sign(c) * _gamma_sign(s)
    log_val = math.lgamma(c) + math.lgamma(s)
    for x in (c - a, c - b):
        if _is_nonpos_int(x):
            return 0.0
        sign *= _gamma_sign(x)
        log_val -= math.lgamma(x)
    return sign * math.exp(log_val)


def hyp2f1_derivative(a: float, b: float, c: float, z: float) -> float:
    """d/dz F(a, b; c; z) = (a b / c) F(a+1, b+1; c+1; z)."""
    _check_lower((c,), "hyp2f1 lower")
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z).value


def euler_transform(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a, b; c; z) through the Euler transformation.

    Computes (1 - z)^(c - a - b) F(c - a, c - b; c; z), which equals
    F(a, b; c; z) identically; the two routes cross-check each other.
    """
    if not 0.0 <= z < 1.0:
        raise DomainError(f"euler_transform requires z in [0, 1), got {z}")
    return (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z).value


def hyp3f2(a1: float, a2: float, a3: float, b1: float, b2: float,
           z: float) -> SeriesResult:
    """Generalized hypergeometric series 3F2(a1, a2, a3; b1, b2; z).

    z = 1 is admitted only when the series terminates or the standard
    convergence condition b1 + b2 - a1 - a2 - a3 > 0 holds.
    """
    _check_lower((b1, b2), "hyp3f2 lower")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"hyp3f2 requires z in [0, 1], got {z}")
    if z == 1.0:
        terminating = any(_is_nonpos_int(p) for p in (a1, a2, a3))
        if not terminating and not b1 + b2 - a1 - a2 - a3 > 0:
            raise SeriesDivergenceError(
                "3F2 at z = 1 requires termination or "
                f"sum(lower) - sum(upper) > 0, got {b1 + b2 - a1 - a2 - a3}")
    return _sum_pfq((a1, a2, a3), (b1, b2), z)


def hyp_integral_rep(a1: float, a2: float, a3: float, b1: float, b2: float,
                     z: float, rel_err: float = 1e-9) -> float:
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
    _check_lower((b1,), "inner 2F1 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp_integral_rep requires z in [0, 1), got {z}")

    log_norm = math.lgamma(b2) - math.lgamma(a3) - math.lgamma(b2 - a3)
    norm = math.exp(log_norm)

    def integrand(t: float) -> float:
        weight = t ** (a3 - 1.0) * (1.0 - t) ** (b2 - a3 - 1.0)
        return weight * _sum_pfq((a1, a2), (b1,), z * t).value

    res = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=rel_err,
               limit=200, full_output=1)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        raise AccuracyError(f"integral representation quadrature failed: {res[3]}",
                            estimate=norm * value, achieved_error=norm * abserr)
    return norm * value
