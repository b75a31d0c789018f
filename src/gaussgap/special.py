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
smaller the balance c - a - b, the more terms are needed.  On a 2-CPU
Xeon host a long sum costs 13-15 ns a term alone and 10.5-12.5 ns as a
row of a pair (below).  A series too close to 1 hits the term cap, or
provably would (``_cap_certain``), and ends in ``ConvergenceError``
rather than a low-accuracy value; an overflowing term or partial sum, a
non-positive integer denominator parameter, or a first term ratio that
loses precision midway (``_first_ratio``), ends it in ``DomainError``.

The loop sums a batch of series as the rows of 2-D blocks: a sweep sums
all of a chunk's series in one call, and ``hyp2f1``, ``hyp2f1_minus_one``
and ``hyp3f2`` are one-row batches.  The rows are held in units of one z
and parameters with at most one F row and one F - 1 row (``skip_first``),
as the moment and the gap at one key need.  A unit's n is its F row's;
the F - 1 row is one term ahead, so its term ratios are the F row's
shifted by one, computed once for both.  Each round takes every unit one
block on, all at the batch's one n, in groups of at most ``_BLOCK_MAX``
terms (units times block length), so one unit to a group at the steady
size; a unit whose rows are certified to reach the cap ends in the first
round at that size.  A row leaves when it stops; one that fails gets its
own ``ConvergenceError`` or ``DomainError``.

The block schedule (``_BLOCK_START`` terms, doubling to ``_BLOCK_MAX``)
and the order of the floating-point operations within a block are part
of the output: each block multiplies its term ratios into a running
product and adds the terms into a running sum, starting afresh from the
carried term and partial sum, so changing either moves the last bits of
every sum longer than one block.  Row-wise ``np.multiply.accumulate`` and
``np.add.accumulate`` along axis 1 are the 1-D calls bit for bit, and a
unit's ratios are the same IEEE operations on the same numbers as a lone
row's, so a series has the same bits in any batch, paired or not.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, GaussGapError,
                     SeriesDivergenceError)

SERIES_EPS = 1e-15
# Generous cap: a borderline-convergent series near z = 1 can need tens of
# millions of terms (42.7M for a near-one F - 1 at z = 1 - 2.0e-7).
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


def log_gamma(x: float) -> float:
    """log|Gamma(x)|, raising ``DomainError`` past the float64 range
    (x above about 2.6e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"lgamma({x:.6g}) overflows float64; exponents "
                          "are too large") from None


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


def _first_stops(terms, sums, exact, screen: bool, work):
    """For each row of a block, whether each term stops the row's sum, or
    None when no term of the block does.

    Column 0 of ``terms`` and ``sums`` holds the term and partial sum
    carried into the block, and term i is stopped against the term and
    partial sum before it.  ``exact`` is a list of the rows' flags; an
    exact row stops only at a term that is exactly zero.  With
    ``screen``, a block in which every row's terms share one sign and the
    smallest |t| exceeds ``SERIES_EPS`` times the larger |S| at the
    block's two ends is passed without the elementwise test.  Such a
    row's partial sums are monotone, rounding included, so their largest
    |S| is at an end; and as rounding is monotone, no term can meet the
    relative rule, and none is zero.  ``work`` is scratch space of the
    block's shape.
    """
    if screen:
        t = terms[:, 1:]
        low, high = t.min(axis=1), t.max(axis=1)
        # positive only where a row's terms share one sign; NaN in a row
        # makes its ends or its terms NaN and the comparison False
        least = np.where(low > 0.0, low, -high)
        ends = np.maximum(np.abs(sums[:, 0]), np.abs(sums[:, -1]))
        if (least > SERIES_EPS * ends).all():
            return None
    size = np.abs(terms, out=work)
    term = size[:, 1:]
    hit = term <= SERIES_EPS * np.abs(sums[:, :-1])
    hit &= term < size[:, :-1]
    if any(exact):
        hit[exact] = terms[exact, 1:] == 0.0
    return hit


def _end(results, place, u, kind, result) -> None:
    """End unit u's F (``kind`` 0) or F - 1 row with ``result``, emptying
    its slot in ``place``."""
    results[place[u][kind]] = result
    place[u][kind] = None


def _cap_certain(nums, dens, z: float) -> bool:
    """Whether the F and F - 1 rows of a series provably reach the cap.

    Only 2F1(a, b; c; z) with 0 < z < 1, 0 < c <= 1, -1 < a, b <= c,
    c - a - b > 0 and z a b a normal float is certified.  There every ratio
    z (a + k) (b + k) / ((c + k) (k + 1)) with k >= 1 lies in (0, z], so
    the terms from n = 1 on share one sign and shrink, the least examined
    being t_N, N = ``MAX_TERMS``, whose log is from ``math.lgamma`` (DLMF
    5.2.5).  The terms at z = 1 share that sign, so every partial sum of F
    or F - 1 is at most 1 + |F(1) - 1| in size, F(1) Gauss's (DLMF
    15.4.20).  Where |t_N| exceeds 2 ``SERIES_EPS`` times that bound no
    term meets the relative rule; the 2 covers the rounding of terms and
    sums, about 9 N u (5e-8) as z a b and the later products are normal,
    and lgamma's error, about 1e-6 in the log.  ``_sum_pfq`` asks it once
    per unit, in the batch's first round at the steady size.
    """
    if len(nums) != 2 or len(dens) != 1:
        return False
    (a, b), (c,) = nums, dens
    if not (0.0 < z < 1.0 and 0.0 < c <= 1.0 and -1.0 < a <= c
            and -1.0 < b <= c and c - a - b > 0.0
            and abs(z * a * b) >= np.finfo(float).tiny):
        return False
    try:
        bound = 1.0 + abs(hyp2f1_at_one(a, b, c) - 1.0)
    except DomainError:  # F(1) overflows float64
        return False
    n = MAX_TERMS
    log_term = (n * math.log(z) + math.lgamma(a + n) - math.lgamma(a)
                + math.lgamma(b + n) - math.lgamma(b) - math.lgamma(c + n)
                + math.lgamma(c) - math.lgamma(n + 1.0))
    return log_term > math.log(2.0 * SERIES_EPS * bound)


# A float of at least this size is rounded within SERIES_EPS of itself:
# a subnormal is rounded by up to half the least one.
_PRECISE_MIN = math.ulp(0.0) / (2.0 * SERIES_EPS)


def _in_order(x: float, nums, dens) -> tuple[float, bool]:
    """x p0 p1 ... / q0 / q1 ..., in that order, and whether every
    partial product is finite and at least ``_PRECISE_MIN`` in size."""
    precise = True
    for p in nums:
        x *= p
        precise = precise and _PRECISE_MIN <= abs(x) < math.inf
    for q in dens:
        x /= q
        precise = precise and _PRECISE_MIN <= abs(x) < math.inf
    return x, precise


def _first_ratio(nums, dens, z: float, skip_first: bool) -> float:
    """The first term ratio z p0 p1 ... / q0 / q1 ..., in the blocks'
    order of operations, or ``DomainError`` where it loses precision: z
    and every numerator parameter are nonzero, a partial product rounds
    below ``_PRECISE_MIN`` (to 0 included) or to inf, and the ratio's
    magnitude, summed in logs, lies in the normal float64 range (for an
    F row, whose sum carries the ratio only in proportion to its size,
    in [``SERIES_EPS``, the largest float]).  The row's sum would be
    off by more than ``SERIES_EPS`` and reported as converged.

    An F - 1 row (``skip_first``), whose first term is this ratio, takes
    it as (p0 p1 ... / q0 / ...) z where that order keeps every partial
    product, z's included, precise: a tiny z (rho near 1e-155) would lose
    it in z p0 first.
    """
    ratio, precise = _in_order(z, nums, dens)
    if not precise and skip_first:
        other, exact = _in_order(1.0, nums, dens)
        other *= z
        if exact and _PRECISE_MIN <= abs(other) < math.inf:
            return other
    if not precise and z and all(nums):
        log_size = (math.fsum(math.log(abs(x)) for x in (z, *nums))
                    - math.fsum(math.log(abs(q)) for q in dens))
        least = sys.float_info.min if skip_first else SERIES_EPS
        if math.log(least) <= log_size <= math.log(sys.float_info.max):
            raise DomainError(
                f"the first term ratio of hyp{len(nums)}f{len(dens)} at "
                f"z = {z} loses precision midway (a partial product rounds "
                f"below {_PRECISE_MIN:.3g} or to inf); parameters too "
                "small or too large")
    return ratio


# overflow is caught as a non-finite term or sum
@np.errstate(over="ignore", invalid="ignore")
def _sum_pfq(series) -> list:
    """Sum generalized hypergeometric series as the rows of one batch, in
    numpy blocks of terms, each row in exact mode or by the relative rule
    (see the module docstring).

    ``series`` holds one ``(nums, dens, z, skip_first)`` per row, and the
    rows share their numbers of numerator and of denominator parameters.
    The result holds, in the same order, each row's ``SeriesResult`` or
    the ``ConvergenceError`` or ``DomainError`` that ended it, never
    raised and so without a traceback.  ``skip_first`` sums only the tail
    from n = 1, which evaluates F - 1 without the cancellation of
    computing F and subtracting; a zero n = 1 term gives 0 at once.
    """
    results = [None] * len(series)
    # Per unit of one z and parameters: the positions in ``series`` of its
    # F and F - 1 rows (None once a row ends), its exactness and a column
    # of ``state``: each row's carried term and partial sum, z and the
    # parameters.  Rows equal as floats are equal bit for bit, as floats
    # differ only as 0.0 and -0.0 and an F - 1 row with a zero z or
    # numerator parameter joins no unit: its first term is 0.
    place, exact, state = [], [], []
    free = ({}, {})  # the units without an F row, without an F - 1 row
    for r, (nums, dens, z, skip_first) in enumerate(series):
        try:
            if not 0.0 < min(dens, default=1.0):  # > 0: no entry is <= 0
                _check_lower(dens, f"hyp{len(nums)}f{len(dens)} lower")
            ratio = _first_ratio(nums, dens, z, skip_first)
        except DomainError as error:
            results[r] = error.with_traceback(None)
            continue
        is_exact = any(map(_is_nonpos_int, nums))
        term = 1.0
        if skip_first:
            term = ratio
            if term == 0.0:
                results[r] = SeriesResult(0.0, 0, 0.0, is_exact)
                continue
        kind = int(skip_first)
        params = (z, *nums, *dens)
        u = free[kind].pop(params, None)
        if u is None:
            u = free[1 - kind][params] = len(place)
            place.append([None, None])
            exact.append(is_exact)
            state.append([1.0, 1.0, 1.0, 1.0, *params])
        place[u][kind] = r
        state[u][2 * kind] = state[u][2 * kind + 1] = term
    if not place:
        return results
    state = np.array(state, dtype=np.float64).T
    n_nums = len(series[0][0])

    # A unit's block of w terms from its F row's next n builds the w + 1
    #   ratio_i = z (p0 + k) (p1 + k) ... / (q0 + k) / ... / n,  k = n - 1,
    # and each row adds up its own, t_i = term * cumprod(ratio)_i and
    # S_i = total + cumsum(t)_i, in that order: the F row ratios 0 to
    # w - 1, the F - 1 row 1 to w' (w' = w - 1 at the cap, else w).  Each
    # round drops the units left without a row and sorts the rest stably
    # by kind, read from their rows, to [F - 1 only | pairs | F only], so
    # each kind's rows in a group are one slice.  n is exact below 2**53;
    # the steady blocks screen the stop rule, which short sums would
    # waste.  Column 0 of a kind's terms and sums holds the carried term
    # and partial sum.
    n, block, shape = 1, _BLOCK_START, None
    while True:
        # -1: F - 1 only, 0: no row, 1: a pair, 2: F only
        kinds = [2 * (f is not None) - (g is not None) for f, g in place]
        keep = sorted(filter(kinds.__getitem__, range(len(kinds))),
                      key=kinds.__getitem__)
        if not keep:
            return results
        state = state[:, keep]
        place, exact = ([xs[u] for u in keep] for xs in (place, exact))
        # the F rows are units a and on, the F - 1 rows those before b
        a = kinds.count(-1)
        b = a + kinds.count(1)
        steady = block == _BLOCK_MAX
        per = _BLOCK_MAX // block
        for lo in range(0, len(place), per):
            hi = min(lo + per, len(place))
            # the group's z and parameters as views of shape (units, 1)
            zc, p0, *rest = state[4:, lo:hi, None]
            # in the first steady round, a unit certain to reach the cap
            # takes no term to end there
            certain = steady and n <= 1 + _BLOCK_MAX - _BLOCK_START and (
                _cap_certain(state[5:5 + n_nums, lo].tolist(),
                             state[5 + n_nums:, lo].tolist(),
                             float(state[4, lo])))
            w = 0 if certain else min(block, MAX_TERMS + 1 - n)
            if shape != (hi - lo, w):
                # all the old buffers go before the new ones are taken: a
                # buffer kept across shapes would pin the C heap above the
                # freed blocks after the call
                idx = k = ratios = scratch = terms = sums = None
                bufs = [None, None]
                shape, base = (hi - lo, w), n
                idx = np.arange(n, n + w + 1, dtype=np.float64)[None]
                k = idx - 1.0
                ratios = np.empty((hi - lo, w + 1))
                scratch = np.empty(ratios.shape)
            if base != n:
                idx += n - base
                k += n - base
                base = n
            np.add(k, p0, out=ratios)
            ratios *= zc
            for j, pj in enumerate(rest, 1):
                np.add(k, pj, out=scratch)
                if j < n_nums:
                    ratios *= scratch
                else:
                    ratios /= scratch
            ratios /= idx
            for x, y, kind, width in ((max(lo, a), hi, 0, w),
                                      (lo, min(hi, b), 1,
                                       min(w, MAX_TERMS - n))):
                if x >= y:
                    continue
                if width <= 0:  # the rows reached the term cap
                    for u in range(x, y):
                        error = ConvergenceError(
                            f"series did not meet the stopping criterion "
                            f"within {MAX_TERMS} terms (z = "
                            f"{float(zc[u - lo, 0])} too close to 1)",
                            partial_value=None if certain else float(
                                state[2 * kind + 1, u]),
                            terms_used=MAX_TERMS + 1 - kind)
                        _end(results, place, u, kind, error)
                    continue
                if bufs[kind] is None:
                    # two arrays, not one block of both: a freed block of
                    # twice the size moves the C heap after the call
                    bufs[kind] = (np.empty(ratios.shape),
                                  np.empty(ratios.shape))
                terms, sums = (v[:y - x, :width + 1] for v in bufs[kind])
                # the rows' carried terms and partial sums
                tq = state[2 * kind, x:y, None]
                sq = state[2 * kind + 1, x:y, None]
                terms[:, :1] = tq
                sums[:, :1] = sq
                np.multiply.accumulate(
                    ratios[x - lo:y - lo, kind:kind + width], axis=1,
                    out=terms[:, 1:])
                terms[:, 1:] *= tq
                np.add.accumulate(terms[:, 1:], axis=1, out=sums[:, 1:])
                sums[:, 1:] += sq
                hit = _first_stops(terms, sums, exact[x:y], steady,
                                   scratch[:y - x, :width + 1])
                stopped = None if hit is None else hit.any(axis=1)
                stops = ([] if stopped is None
                         else stopped.nonzero()[0].tolist())
                failed = []
                for i in stops:
                    j = int(hit[i].argmax())
                    value = sums.item(i, j)
                    if not math.isfinite(value):
                        # the partial sum overflowed before the stop
                        failed.append(i)
                        continue
                    # geometric tail bound; the stop rule makes
                    # t_next < t_last
                    t_last = abs(terms.item(i, j))
                    t_next = abs(terms.item(i, j + 1))
                    tail = (0.0 if exact[x + i]
                            else t_next / (1.0 - t_next / t_last))
                    _end(results, place, x + i, kind,
                         SeriesResult(value, n + j, tail, exact[x + i]))
                if len(stops) < y - x:
                    going = (np.isfinite(terms[:, -1])
                             & np.isfinite(sums[:, -1]))
                    if not going.all():
                        if stopped is not None:
                            going |= stopped
                        failed += (~going).nonzero()[0].tolist()
                    tq[:, 0] = terms[:, -1]
                    sq[:, 0] = sums[:, -1]
                for i in failed:
                    _end(results, place, x + i, kind, DomainError(
                        "series term or partial sum overflows float64; "
                        "exponents are too large"))
        n += min(block, MAX_TERMS + 1 - n)
        block = min(block * 2, _BLOCK_MAX)


def _sum_one(nums, dens, z: float, skip_first: bool = False) -> SeriesResult:
    """One series, the one-row batch of ``_sum_pfq``, raising its error."""
    (result,) = _sum_pfq([(nums, dens, z, skip_first)])
    if isinstance(result, GaussGapError):
        raise result
    return result


def _check_lower(params, label: str) -> None:
    for q in params:
        if _is_nonpos_int(q):
            raise DomainError(f"{label} parameter must not be a non-positive "
                              f"integer, got {q}")


def hyp2f1(a: float, b: float, c: float, z: float) -> SeriesResult:
    """Gauss hypergeometric series F(a, b; c; z) for z in [0, 1)."""
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1 requires z in [0, 1), got {z}; "
                          "use hyp2f1_at_one for z = 1")
    return _sum_one((a, b), (c,), z)


def hyp2f1_minus_one(a: float, b: float, c: float, z: float) -> SeriesResult:
    """F(a, b; c; z) - 1 summed directly from the n = 1 term.

    Avoids the catastrophic cancellation of evaluating F and subtracting 1
    when z (and hence F - 1) is small.
    """
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1_minus_one requires z in [0, 1), got {z}")
    return _sum_one((a, b), (c,), z, skip_first=True)


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
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp3f2 requires z in [0, 1), got {z}")
    return _sum_one((a1, a2, a3), (b1, b2), z)
