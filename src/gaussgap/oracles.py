"""Independent numerical estimates of the Gaussian absolute moments.

Everything here integrates or samples the Gaussian density directly and
deliberately avoids the hypergeometric code paths it exists to validate.
The only closed forms used are elementary Gamma integrals inside the
tail-mass error bounds (``moments.abs_moment_1d`` and a widened-Gaussian
moment), where a mistake could at worst misstate an e^-30-scale error
term, never a value.

Quadrature uses adaptive Gauss-Kronrod panels (QUADPACK) after the
per-axis substitution u = x^(1+alpha), which turns the integrable origin
singularity of x^alpha for alpha in (-1, 0) into a bounded integrand:
x^alpha dx = d(x^(1+alpha)) / (1+alpha) exactly.  Domains are truncated at
``TAIL_RADIUS_SIGMAS`` standard deviations and the neglected mass is
bounded analytically and folded into the reported error estimate.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import AccuracyError, DomainError, InfiniteVarianceError
from .moments import abs_moment_1d
from .types import Estimate, MomentSpec

_MASK64 = (1 << 64) - 1
_BREAK_SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# Quadrature settings: truncation radius in standard deviations, relative
# error target, and QUADPACK subdivision limits of the outer and the
# inner (per outer node) integrals.
TAIL_RADIUS_SIGMAS = 12.0
TARGET_REL_ERR = 1e-9
MAX_SUBDIVISIONS = 2 ** 15
INNER_SUBDIVISIONS = MAX_SUBDIVISIONS // 64
# Fewest Monte Carlo samples a run may draw.
MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class McConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        check_sample_count(self.n_samples, "n_samples")
        check_seed(self.seed)


def check_sample_count(n: int, name: str) -> None:
    """Raise ``DomainError`` unless the count ``name`` = ``n`` is an
    integer of at least ``MIN_MC_SAMPLES``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < MIN_MC_SAMPLES:
        raise DomainError(f"{name} must be at least {MIN_MC_SAMPLES}, "
                          f"got {n}")


def check_seed(seed: int) -> None:
    """Raise ``DomainError`` unless ``seed`` is an integer in [0, 2^64)."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed <= _MASK64):
        raise DomainError("seed must be a 64-bit unsigned integer")


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-point seed from (master seed, grid index).

    SplitMix64 finalizer: well mixed, platform independent, reproducible.
    """
    x = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _tail_1d(sigma: float, beta: float, radius: float) -> float:
    """Upper bound on E[|X|^beta ; |X| > radius*sigma] for beta > -1."""
    if beta <= 0:
        # |x|^beta is decreasing, so bound it by its value at the cut and
        # pay only the Gaussian tail probability (Mills ratio bound).
        p_tail = 2.0 * math.exp(-0.5 * radius * radius) / (
            radius * math.sqrt(2.0 * math.pi))
        return (radius * sigma) ** beta * p_tail
    # Chernoff-style: |x|^beta <= e^(x^2/(4 sigma^2)) * moment of a
    # widened Gaussian; E[|X|^beta e^(X^2/(4 sigma^2))] has a closed form.
    log_m = (math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
             + beta * math.log(2.0) + beta * math.log(sigma)
             + math.lgamma(0.5 * (beta + 1.0)))
    return math.exp(log_m - 0.25 * radius * radius)


def _strip_bound(s_cut: float, a_cut: float, s_other: float, a_other: float,
                 rho: float, radius: float) -> float:
    """Bound E[|X|^a_cut |Y|^a_other ; |X| > radius*s_cut].

    Conditioning on X: the conditional law of Y is Gaussian with mean
    rho*s_other*x/s_cut and sd s_other*sqrt(1-rho^2).  For a_other <= 0
    the centered conditional moment dominates (moving mass away from 0
    only shrinks a negative moment); for a_other > 0 the mean term is
    folded into a higher moment of X.
    """
    s_cond = s_other * math.sqrt(1.0 - rho * rho)
    if a_other <= 0:
        return (abs_moment_1d(s_cond, a_other)
                * _tail_1d(s_cut, a_cut, radius))
    scale = 2.0 ** a_other
    mean_part = ((abs(rho) * s_other / s_cut) ** a_other
                 * _tail_1d(s_cut, a_cut + a_other, radius))
    centered_part = (abs_moment_1d(s_cond, a_other)
                     * _tail_1d(s_cut, a_cut, radius))
    return scale * (mean_part + centered_part)


def _run_quad(fn, lo: float, hi: float, breakpoints, *, epsabs: float,
              epsrel: float, limit: int):
    """quad() wrapper: clip breakpoints into the open interval, no warnings."""
    pts = sorted(p for p in breakpoints if lo < p < hi)
    res = quad(fn, lo, hi, points=pts or None, epsabs=epsabs, epsrel=epsrel,
               limit=limit, full_output=1)
    value, abserr = res[0], res[1]
    message = res[3] if len(res) > 3 else None
    return value, abserr, message


def _overflow_is_domain_error(fn):
    """Raise ``DomainError`` where ``fn`` overflows float64.

    The substituted limits (radius * sigma)^(1 + alpha) and the tail-mass
    bounds leave the float range for exponents in the hundreds.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise DomainError(f"{fn.__name__} overflows float64; "
                              "exponents are too large") from None
    return wrapper


@_overflow_is_domain_error
def quad_product_moment(spec: MomentSpec) -> Estimate:
    """Quadrature estimate of E[|X1|^alpha1 |X2|^alpha2] for |rho| < 1.

    Folds the plane into the first quadrant, substitutes per axis, and
    integrates the two mirror-image density sheets with nested adaptive
    panels.  The reported error combines the outer quadrature bound, the
    worst observed relative error of inner integrals, and the analytic
    truncation-tail bound.
    """
    if abs(spec.rho) == 1.0:
        raise DomainError("quad_product_moment requires |rho| < 1")
    radius = TAIL_RADIUS_SIGMAS
    s1, s2, a1, a2, rho = (spec.sigma1, spec.sigma2, spec.alpha1,
                           spec.alpha2, spec.rho)
    p1, p2 = 1.0 + a1, 1.0 + a2
    u_hi = (radius * s1) ** p1
    v_hi = (radius * s2) ** p2
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * s1 * s2 * math.sqrt(det))
    s_cond = s2 * math.sqrt(det)
    inv_2cond = 1.0 / (2.0 * s_cond * s_cond)
    v_breaks_static = [(k * s2) ** p2 for k in _BREAK_SIGMAS]
    inv_p1, inv_p2 = 1.0 / p1, 1.0 / p2
    exp = math.exp
    # Track the largest inner error and the largest inner value actually
    # seen (both weighted by the outer marginal factor): their ratio is a
    # realistic relative-noise level for the outer integrand.
    max_weighted_err = 0.0
    max_weighted_val = 0.0

    def inner(u: float) -> float:
        nonlocal max_weighted_err, max_weighted_val
        x = u ** inv_p1
        marginal = exp(-x * x / (2.0 * s1 * s1))
        if marginal == 0.0:
            return 0.0
        mu = rho * s2 * x / s1

        if mu == 0.0:
            # the two sheets coincide: twice one term is their sum exactly
            def fy(v: float) -> float:
                y = v ** inv_p2
                return 2.0 * exp(-y * y * inv_2cond)
        else:
            def fy(v: float) -> float:
                y = v ** inv_p2
                below, above = y - mu, y + mu
                return (exp(-below * below * inv_2cond)
                        + exp(-above * above * inv_2cond))

        # Realistic scale of this inner integral: a Gaussian bump of width
        # s_cond centered near mu, mapped through the v = y^p2 substitution.
        bump = (math.sqrt(2.0 * math.pi) * s_cond * p2
                * (abs(mu) + 4.0 * s_cond + s2) ** (p2 - 1.0))
        cap = 2.0 * min(v_hi, bump)
        breaks = v_breaks_static + [abs(mu) ** p2]
        val, abserr, _ = _run_quad(
            fy, 0.0, v_hi, breaks,
            epsabs=1e-13 * marginal * cap, epsrel=1e-11,
            limit=INNER_SUBDIVISIONS)
        max_weighted_err = max(max_weighted_err, marginal * abserr)
        max_weighted_val = max(max_weighted_val, marginal * val)
        return marginal * val

    u_breaks = [(k * s1) ** p1 for k in _BREAK_SIGMAS]
    raw, abserr, message = _run_quad(inner, 0.0, u_hi, u_breaks,
                                     epsabs=0.0, epsrel=TARGET_REL_ERR / 2,
                                     limit=MAX_SUBDIVISIONS)
    prefactor = 2.0 * norm / (p1 * p2)
    value = prefactor * raw
    tail = (_strip_bound(s1, a1, s2, a2, rho, radius)
            + _strip_bound(s2, a2, s1, a1, rho, radius))
    inner_noise = (max_weighted_err / max_weighted_val * abs(value)
                   if max_weighted_val > 0.0 else 0.0)
    err = prefactor * abserr + inner_noise + tail
    if message is not None or err > TARGET_REL_ERR * abs(value):
        raise AccuracyError(
            f"product-moment quadrature missed its target: {message or 'error bound too large'}",
            estimate=value, achieved_error=err)
    return Estimate(value, err)


def sample_bivariate(spec: MomentSpec, n: int, seed: int) -> np.ndarray:
    """Draw n correlated Gaussian pairs, shape (n, 2).

    Uses the counter-based Philox generator keyed by ``seed``: the same
    seed reproduces the same stream regardless of how many other samplers
    run concurrently.  x1 = sigma1 * z0 and
    x2 = sigma2 * (rho * z0 + sqrt(1 - rho^2) * z1) are composed in place
    in the (2, n) buffer of the normals (z0, z1), with one n-length
    temporary for rho * z0; the result is that buffer's transposed view,
    and its ``.T`` the buffer itself.  Raises ``DomainError`` for n < 1
    or where the buffer cannot be allocated.
    """
    if n <= 0:
        raise DomainError(f"sample count must be positive, got {n}")
    gen = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    try:
        # numpy refuses a buffer of more than sys.maxsize bytes with a
        # ValueError; refuse it here as the allocation it could not make
        if n > sys.maxsize // 16:
            raise MemoryError
        xy = gen.standard_normal((2, n))
        x1, x2 = xy
        rho_x1 = spec.rho * x1
    except MemoryError:
        raise DomainError(f"{n} sample pairs do not fit in memory") from None
    x2 *= math.sqrt(1.0 - spec.rho * spec.rho)
    x2 += rho_x1
    x2 *= spec.sigma2
    x1 *= spec.sigma1
    return xy.T


def mc_product_moment(spec: MomentSpec, cfg: McConfig) -> Estimate:
    """Monte Carlo estimate of E[|X1|^alpha1 |X2|^alpha2].

    Requires min(alpha1, alpha2) > -1/2: below that the estimator has
    infinite variance and the quadrature oracle must be used instead.
    Raises ``DomainError`` where a sample, the mean or the variance leaves
    the float64 range, as it does for exponents in the hundreds, and
    where the samples do not fit in memory.  The estimate is finished in
    place in the (2, n) buffer of ``sample_bivariate``, so its peak is 3n
    floats: the buffer and one n-length temporary.
    """
    if min(spec.alpha1, spec.alpha2) <= -0.5:
        raise InfiniteVarianceError(
            f"exponents ({spec.alpha1}, {spec.alpha2}) give the sample mean "
            "infinite variance; use quad_product_moment")
    try:
        with np.errstate(over="raise", divide="raise"):
            xy = sample_bivariate(spec, cfg.n_samples, cfg.seed).T
            vals, x2 = np.abs(xy, out=xy)
            vals **= spec.alpha1
            x2 **= spec.alpha2
            vals *= x2
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(cfg.n_samples))
    except FloatingPointError:
        raise DomainError("Monte Carlo estimate overflows float64; "
                          "exponents are too large") from None
    return Estimate(mean, stderr)
