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
Xeon host a long sum costs about 15 ns a term alone and about 13 ns a
term as one row of a pair (below): F and F - 1 at one key, both to the
50M-term cap, take 1.31 s as a pair against 1.53 s apart.  Arguments
too close to 1 exhaust the term cap and raise ``ConvergenceError``
rather than silently returning a low-accuracy value; an overflowing term
raises ``DomainError``.

The loop sums a batch of series as the rows of 2-D blocks: a sweep sums
all of a chunk's series in one call, and ``hyp2f1``, ``hyp2f1_minus_one``
and ``hyp3f2`` are one-row batches.  The rows go through the short
blocks in step, split into groups of at most ``_BLOCK_MAX`` terms (rows
times block length), so a batch holds no more buffers than one pair of
steady blocks, plus a column for the carried term and partial sum.  A
row leaves the batch when it stops.  At the steady size each row runs on
alone, except a pair: an F row and the F - 1 row of the same z and
parameters (``skip_first``), as the moment and the gap at one key need.
The F - 1 row is one term ahead, so its term ratios are the F row's
shifted by one: the pair computes them once, and each row multiplies up
its own view of them and adds its own terms.  When one row of a pair
stops, the other runs on alone.  A row that fails gets its own
``ConvergenceError`` or ``DomainError`` and the others go on.

The block schedule (``_BLOCK_START`` terms, doubling to ``_BLOCK_MAX``)
and the order of the floating-point operations within a block are part
of the output: each block multiplies its term ratios into a running
product and adds the terms into a running sum, starting afresh from the
carried term and partial sum, so changing either moves the last bits of
every sum longer than one block.  Row-wise ``np.multiply.accumulate`` and
``np.add.accumulate`` along axis 1 are the 1-D calls bit for bit, and a
pair's ratios are the same IEEE operations on the same numbers as each
row's alone, so a series has the same bits in any batch, paired or not.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .errors import (AccuracyError, ConvergenceError, DomainError,
                     GaussGapError, SeriesDivergenceError)

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
    partial sum before it.  ``exact`` is None where no row is in exact
    mode, True where every row is, else the rows' flags; an exact row
    stops only at a term that is exactly zero.  With ``screen``, a block
    in which every row's terms share one sign and the smallest |t|
    exceeds ``SERIES_EPS`` times the larger |S| at the block's two ends
    is passed without the elementwise test.  Such a row's partial sums
    are monotone, rounding included, so their largest |S| is at an end;
    and as rounding is monotone, no term can meet the relative rule, and
    none is zero.  ``work`` is scratch space of the block's shape.
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
    if exact is True:
        return terms[:, 1:] == 0.0
    hit = size[:, 1:] <= SERIES_EPS * np.abs(sums[:, :-1])
    hit &= size[:, 1:] < size[:, :-1]
    if exact is not None:
        hit[exact] = terms[exact, 1:] == 0.0
    return hit


def _pairs(state, first) -> tuple[list, list]:
    """The order of a batch's rows for its steady blocks, and whether each
    row in that order leads a pair.

    A pair is an F row (``first`` 0) and an F - 1 row whose z and
    parameters are the same, bit for bit, and which is one term ahead of
    it, so that its term ratios are the F row's shifted by one.  The F row
    goes first, then its F - 1 row, and the pairs go before the lone rows,
    so that groups of one shape follow each other and share buffers.
    """
    keys = [(row[0] - f, row[3:].tobytes()) for row, f in zip(state, first)]
    heads = {}
    for i, f in enumerate(first):
        if not f:
            heads.setdefault(keys[i], i)
    order = []
    for j, f in enumerate(first):
        if f and keys[j] in heads:
            order += (heads.pop(keys[j]), j)
    lead = [True, False] * (len(order) // 2)
    paired = set(order)
    order += [i for i in range(len(first)) if i not in paired]
    return order, lead + [False] * (len(order) - len(lead))


def _rows(rows, state, *lists):
    """``state`` and each of ``lists`` cut to ``rows``, in that order."""
    return (state[rows], *([xs[i] for i in rows] for xs in lists))


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
    # The rows still summing: their positions, first summed n and exact
    # flags, and one row of ``state`` each, with the next n, the carried
    # term and partial sum, z and the parameters.
    place, first, exact, state = [], [], [], []
    for r, (nums, dens, z, skip_first) in enumerate(series):
        is_exact = any(map(_is_nonpos_int, nums))
        term = 1.0
        if skip_first:
            term = z
            for p in nums:
                term *= p
            for q in dens:
                term /= q
            if term == 0.0:
                results[r] = SeriesResult(0.0, 0, 0.0, is_exact)
                continue
        place.append(r)
        first.append(int(skip_first))
        exact.append(is_exact)
        state.append((first[-1] + 1, term, term, z, *nums, *dens))
    if not place:
        return results
    n_nums = len(series[0][0])
    state = np.array(state, dtype=np.float64)
    # an upper bound on the next n: a round moves each row on by at most
    # its block
    far = max(first) + 1

    # Each row's block of m terms after n_next - 1 is summed as
    #   ratio_i = z (p0 + k) (p1 + k) ... / (q0 + k) / ... / n,  k = n - 1,
    #   t_i = term * cumprod(ratio)_i,  S_i = total + cumsum(t)_i,
    # with the factors multiplied in that order (see the module docstring).
    # The rows go through the short blocks in step, one round per block
    # length, in groups of equal length and at most _BLOCK_MAX terms in
    # all, and leave as they stop; a group of the last group's shape
    # reuses its buffers, whose column 0 holds the carried term and partial
    # sum.  At the steady size each row, or each pair of an F row and its
    # F - 1 row (see ``_pairs``), runs on alone, advancing n by m, which is
    # exact below 2**53, and screening the stop rule; a short sum stops in
    # its first blocks, where the screen would be wasted.  A pair builds
    # the m + 1 ratios from its F row's next n once, and each of its rows
    # multiplies up its own m of them: the F row the first m, the F - 1
    # row the last m.
    block = _BLOCK_START
    shape = None
    while True:
        if block == _BLOCK_MAX:
            order, lead = _pairs(state, first)
            if order != list(range(len(order))):
                state, place, first, exact = _rows(order, state, place,
                                                   first, exact)
        # each column of the state as a view of shape (rows, 1)
        columns = list(state.T[:, :, None])
        n_exact = sum(exact)
        # runs of rows with the same block length: shorter for the rows
        # that reach the term cap, and at most 0 for those past it
        if far <= MAX_TERMS + 1 - block:
            runs = [(0, len(place), block)]
        else:
            widths = np.minimum(MAX_TERMS + 1 - state[:, 0], block)
            cuts = [0, *(np.diff(widths).nonzero()[0] + 1).tolist(),
                    len(place)]
            runs = [(a, b, int(widths[a])) for a, b in zip(cuts, cuts[1:])]
        ended = []  # the rows that leave the batch in this round
        for start, end, m in runs:
            if m <= 0:
                ended.extend(range(start, end))
                for i in range(start, end):
                    n_next, _, total, z = state[i, :4].tolist()
                    results[place[i]] = ConvergenceError(
                        f"series did not meet the stopping criterion within "
                        f"{MAX_TERMS} terms (z = {z} too close to 1)",
                        partial_value=total,
                        terms_used=int(n_next) - first[i])
                continue
            per, lo = _BLOCK_MAX // m, start
            while lo < end:
                # a steady group is a row, or a pair with both rows in
                # the run
                hi = min(lo + (per if m < _BLOCK_MAX else 1 + lead[lo]), end)
                if shape != (hi - lo, m):
                    # the old buffers go before the new ones are taken
                    idx = k = ratios = scratch = parts = None
                    terms = sums = work = t = s = view = None
                    shape = (hi - lo, m)
                    pair = m == _BLOCK_MAX and hi - lo == 2
                    # A group's rows share its buffers.  Each row of a pair
                    # has its own, a lone row's size: freeing a larger one
                    # raises the C allocator's threshold for mapping memory
                    # (glibc's is dynamic), which changes the cost of every
                    # later allocation of that size in the process.  Each
                    # part, the group or a row of the pair, has its terms,
                    # sums and scratch space, whose column 0 holds the
                    # carried term and partial sum, their views past it,
                    # and its view of the term ratios: a pair's m + 1 from
                    # its F row's next n, of which row j takes j to j + m.
                    rows = 1 if pair else hi - lo
                    steps = np.arange(m + pair, dtype=np.float64)
                    idx = np.empty((rows, m + pair))
                    k = np.empty(idx.shape)
                    ratios = np.empty((1, m + 1)) if pair else None
                    parts = []
                    for j in range(1 + pair):
                        terms, sums, work = (np.empty((rows, m + 1))
                                             for _ in range(3))
                        t = terms[:, 1:]
                        parts.append((terms, sums, work, t, sums[:, 1:],
                                      ratios[:, j:j + m] if pair else t))
                    if pair:
                        scratch = parts[0][2]
                    else:
                        # a group's ratios are worked out in its terms
                        ratios, scratch = parts[0][3], parts[0][2][:, 1:]
                # the group's columns of the state, views that follow it
                nc, tc, sc, zc, p0, *ps = (
                    columns if hi - lo == len(place)
                    else [c[lo:hi] for c in columns])
                n0 = nc
                ex = (None if not n_exact else True if n_exact == len(place)
                      else np.array(exact[lo:hi]))
                # each part's first row, columns and buffers
                members = [(lo, nc, tc, sc, parts[0])]
                if pair:
                    # the ratios are the F row's, the group's first; the
                    # two rows share their exactness
                    n0, zc, p0, *ps = (c[:1] for c in (nc, zc, p0, *ps))
                    members = [(lo + j, nc[j:j + 1], tc[j:j + 1], sc[j:j + 1],
                                parts[j]) for j in (0, 1)]
                    ex = True if exact[lo] else None
                np.add(steps, n0, out=idx)
                np.subtract(idx, 1.0, out=k)
                while True:
                    np.add(k, p0, out=ratios)
                    ratios *= zc
                    for j, pj in enumerate(ps, 1):
                        np.add(k, pj, out=scratch)
                        if j < n_nums:
                            ratios *= scratch
                        else:
                            ratios /= scratch
                    ratios /= idx
                    for a, nq, tq, sq, (terms, sums, work, t, s,
                                        view) in members:
                        terms[:, :1] = tq
                        sums[:, :1] = sq
                        np.multiply.accumulate(view, axis=1, out=t)
                        t *= tq
                        np.add.accumulate(t, axis=1, out=s)
                        s += sq
                        hit = _first_stops(terms, sums, ex, m == _BLOCK_MAX,
                                           work)
                        stopped = None if hit is None else hit.any(axis=1)
                        stops = ([] if stopped is None
                                 else stopped.nonzero()[0].tolist())
                        for i in stops:
                            j = int(hit[i].argmax())
                            # geometric tail bound; the stop rule makes
                            # t_next < t_last
                            t_last = abs(float(terms[i, j]))
                            t_next = abs(float(terms[i, j + 1]))
                            value = float(sums[i, j])
                            used = int(nq[i, 0]) + j
                            i += a
                            ended.append(i)
                            results[place[i]] = SeriesResult(
                                value, used - first[i],
                                0.0 if exact[i]
                                else t_next / (1.0 - t_next / t_last),
                                exact[i])
                        if len(stops) == len(terms):
                            continue
                        going = (np.isfinite(terms[:, -1])
                                 & np.isfinite(sums[:, -1]))
                        if not going.all():
                            if stopped is not None:
                                going |= stopped
                            for i in (~going).nonzero()[0].tolist():
                                ended.append(a + i)
                                results[place[a + i]] = DomainError(
                                    "series term or partial sum overflows "
                                    "float64; exponents are too large")
                        tq[:, 0] = terms[:, -1]
                        sq[:, 0] = sums[:, -1]
                        nq += m
                    # A group of the steady size, one row or a pair, runs
                    # on while its blocks stay whole and none of its rows
                    # leaves.
                    if (m < _BLOCK_MAX or (ended and ended[-1] >= lo)
                            or nc[-1, 0] + m > MAX_TERMS + 1):
                        break
                    idx += m
                    k += m
                    far += m
                lo = hi
        if len(ended) == len(place):
            return results
        if ended:
            gone = set(ended)
            state, place, first, exact = _rows(
                [i for i in range(len(place)) if i not in gone],
                state, place, first, exact)
        far += block
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
    _check_lower((c,), "hyp2f1 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp2f1 requires z in [0, 1), got {z}; "
                          "use hyp2f1_at_one for z = 1")
    return _sum_one((a, b), (c,), z)


def hyp2f1_minus_one(a: float, b: float, c: float, z: float) -> SeriesResult:
    """F(a, b; c; z) - 1 summed directly from the n = 1 term.

    Avoids the catastrophic cancellation of evaluating F and subtracting 1
    when z (and hence F - 1) is small.
    """
    _check_lower((c,), "hyp2f1 lower")
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
    _check_lower((b1, b2), "hyp3f2 lower")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"hyp3f2 requires z in [0, 1), got {z}")
    return _sum_one((a1, a2, a3), (b1, b2), z)


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
        return weight * _sum_one((a1, a2), (b1,), z * t).value

    res = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-9,
               limit=200, full_output=1)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        raise AccuracyError(f"integral representation quadrature failed: {res[3]}",
                            estimate=norm * value, achieved_error=norm * abserr)
    return norm * value
