"""Hypergeometric series evaluation.

Every series evaluator sums the defining power series directly, in one
loop (``_sum_pfq``) that evaluates blocks of terms with numpy.  A
numerator parameter that is a non-positive integer -m makes the series a
polynomial of degree m; the loop then runs in exact mode and stops at the
first term that is exactly zero.  Any other series stops by a relative
rule (next term at most ``SERIES_EPS`` times the partial sum, and
shrinking), so a sum whose ``SERIES_EPS`` multiple underflows to 0 stops
at its first underflowed term.  No connection formulas are used, so
convergence near z = 1 is genuinely slow: the closer z gets to 1 and the
smaller the balance c - a - b, the more terms are needed.  A long sum
costs about 15 ns a term (a 50M-term sum takes 0.77 s on a 2-CPU Xeon
host), and arguments too close to 1 exhaust the term cap and raise
``ConvergenceError`` rather than silently returning a low-accuracy value;
an overflowing term raises ``DomainError``.

The block schedule (``_BLOCK_START`` terms, doubling to ``_BLOCK_MAX``)
and the order of the floating-point operations within a block are part
of the output: each block multiplies its term ratios into a running
product and adds the terms into a running sum, starting afresh from the
carried term and partial sum, so changing either moves the last bits of
every sum longer than one block.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class SeriesResult(NamedTuple):
    """Outcome of one series summation.

    ``terminated`` is True when the series is a polynomial (a numerator
    parameter is a non-positive integer), summed in exact mode up to its
    first zero term, or when a closed form gave the value; then nothing
    is truncated and ``truncation_error_estimate`` is 0.  Otherwise the
    estimate is the geometric tail bound |t_next| / (1 - r) built from the
    first omitted term and the last observed term ratio r.
    ``terms_used`` counts the terms in the returned sum: from n = 0 for F,
    from n = 1 for F - 1.
    """

    value: float
    terms_used: int
    truncation_error_estimate: float
    terminated: bool


def exp_of_log(log_value: float) -> float:
    """exp(log_value), raising ``DomainError`` past the float64 range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"value exp({log_value:.6g}) overflows float64; "
                          "exponents are too large") from None


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


def _first_stop(terms, sums, term: float, total: float, exact: bool,
                screen: bool, work) -> int | None:
    """Index of the first term of a block that stops the sum, or None.

    Term i is stopped against the term and partial sum before it; for
    i = 0 those are the carried scalars ``term`` and ``total``.  With
    ``screen``, a block whose smallest |t| exceeds ``SERIES_EPS`` times its
    largest |S| is passed without the elementwise test: rounding is
    monotone, so no term in it can meet the relative rule.  ``work`` is
    scratch space of the block's size.
    """
    if exact:
        hits = np.flatnonzero(terms == 0.0)
        return int(hits[0]) if hits.size else None
    size = np.abs(terms, out=work)
    # NaN in sums makes both ends NaN and the comparison False
    if screen and size.min() > SERIES_EPS * max(sums.max(), -sums.min(),
                                                abs(total)):
        return None
    if size[0] <= SERIES_EPS * abs(total) and size[0] < abs(term):
        return 0
    hits = np.flatnonzero((size[1:] <= SERIES_EPS * np.abs(sums[:-1]))
                          & (size[1:] < size[:-1]))
    return int(hits[0]) + 1 if hits.size else None


def _sum_pfq(nums, dens, z: float, *,
             skip_first: bool = False) -> SeriesResult:
    """Sum a generalized hypergeometric series in numpy blocks of terms,
    in exact mode or by the relative rule (see the module docstring).

    ``skip_first=True`` sums only the tail from n = 1, which evaluates
    F - 1 without the cancellation of computing F and subtracting; a zero
    n = 1 term gives 0 at once.
    """
    exact = any(_is_nonpos_int(p) for p in nums)
    first = 1 if skip_first else 0
    if skip_first:
        term = z
        for p in nums:
            term *= p
        for q in dens:
            term /= q
        if term == 0.0:
            return SeriesResult(0.0, 0, 0.0, exact)
        total = term
        n_next = 2
    else:
        term = 1.0
        total = 1.0
        n_next = 1

    # Each block of m terms after n_next - 1 is summed as
    #   ratio_i = z (p0 + k) (p1 + k) ... / (q0 + k) / ... / n,  k = n - 1,
    #   t_i = term * cumprod(ratio)_i,  S_i = total + cumsum(t)_i,
    # with the factors multiplied in that order (see the module docstring).
    # Blocks of the steady size reuse their buffers, advance n by m, which
    # is exact below 2**53, and screen the stop rule; a short sum stops in
    # its first blocks, where the screen would be wasted.
    block = _BLOCK_START
    idx = np.empty(0)
    while n_next <= MAX_TERMS:
        m = min(block, MAX_TERMS + 1 - n_next)
        steady = idx.size == m
        if steady:
            idx += m
            k += m
        else:
            idx = np.arange(n_next, n_next + m, dtype=np.float64)
            k = idx - 1.0
            terms, sums, work = np.empty(m), np.empty(m), np.empty(m)
        # overflow is caught below as a non-finite term or sum
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(k, nums[0], out=terms)
            terms *= z
            for p in nums[1:]:
                terms *= np.add(k, p, out=work)
            for q in dens:
                terms /= np.add(k, q, out=work)
            terms /= idx
            np.multiply.accumulate(terms, out=terms)
            terms *= term
            np.add.accumulate(terms, out=sums)
            sums += total
        j = _first_stop(terms, sums, term, total, exact, steady, work)
        if j is not None:
            tail = 0.0
            if not exact:
                # geometric tail bound; the stop rule makes t_next < t_last
                t_last = abs(float(terms[j - 1]) if j else term)
                t_next = abs(float(terms[j]))
                tail = t_next / (1.0 - t_next / t_last)
            value = float(sums[j - 1]) if j else total
            return SeriesResult(value, n_next + j - first, tail, exact)
        if not (math.isfinite(float(terms[-1])) and math.isfinite(float(sums[-1]))):
            raise DomainError("series term or partial sum overflows float64; "
                              "exponents are too large")
        term = float(terms[-1])
        total = float(sums[-1])
        n_next += m
        block = min(block * 2, _BLOCK_MAX)

    raise ConvergenceError(
        f"series did not meet the stopping criterion within {MAX_TERMS} terms "
        f"(z = {z} too close to 1)",
        partial_value=total, terms_used=n_next - first)


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
    """F(a, b; c; 1) in closed form.

    Terminating parameters, a = -m for an integer m >= 0 (or b, with the
    smaller m), take the Chu-Vandermonde product (c - b)_m / (c)_m
    (DLMF 15.4.24): exactly 1.0 at m = 0, and free of the cancellation of
    the alternating finite sum.
    Otherwise Gauss's Gamma ratio (DLMF 15.4.20) applies where
    c - a - b > 0; elsewhere ``SeriesDivergenceError`` is raised and
    callers map it to an infinite sentinel.  A value past the float64
    range raises ``DomainError``.
    """
    _check_lower((c,), "hyp2f1 lower")
    stop_points = [int(-p) for p in (a, b) if _is_nonpos_int(p)]
    if stop_points:
        m = min(stop_points)
        other = b if a == -m else a
        value = math.prod((c - other + k) / (c + k) for k in range(m))
        if not math.isfinite(value):
            raise DomainError(f"F({a}, {b}; {c}; 1) overflows float64")
        return value
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
    return sign * exp_of_log(log_val)


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
    """Hypergeometric series 3F2(a1, a2, a3; b1, b2; z) for z in [0, 1)."""
    _check_lower((b1, b2), "hyp3f2 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp3f2 requires z in [0, 1), got {z}")
    return _sum_pfq((a1, a2, a3), (b1, b2), z)


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
    _check_lower((b1,), "inner 2F1 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp_integral_rep requires z in [0, 1), got {z}")

    log_norm = math.lgamma(b2) - math.lgamma(a3) - math.lgamma(b2 - a3)
    norm = math.exp(log_norm)

    def integrand(t: float) -> float:
        weight = t ** (a3 - 1.0) * (1.0 - t) ** (b2 - a3 - 1.0)
        return weight * _sum_pfq((a1, a2), (b1,), z * t).value

    res = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-9,
               limit=200, full_output=1)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        raise AccuracyError(f"integral representation quadrature failed: {res[3]}",
                            estimate=norm * value, achieved_error=norm * abserr)
    return norm * value
