"""Built-in identity suites: fast end-to-end checks of the library's math.

Each suite exercises an identity that holds exactly in real arithmetic,
so any failure indicates an implementation bug rather than a modeling
choice.  Suites call through the module namespaces (``special.hyp2f1``,
not a bound local), which lets a test harness inject faults by patching
a module attribute and confirm the selftest notices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, moments, special
from .types import MomentSpec
from .verify import DEFAULT_ALPHAS, DEFAULT_RHOS, DEFAULT_SEED, DEFAULT_SIGMAS


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failed: int = 0
    worst: float = 0.0
    failures: list[str] = field(default_factory=list)

    def record(self, measure: float, limit: float, label: str) -> None:
        self.checked += 1
        self.worst = max(self.worst, measure)
        if not measure <= limit:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {measure:.3e} > {limit:.0e}")

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _same_sign_pairs():
    for a1 in DEFAULT_ALPHAS:
        for a2 in DEFAULT_ALPHAS:
            if a1 * a2 > 0:
                yield a1, a2


def euler_transform_suite(n: int = 200,
                          seed: int = DEFAULT_SEED) -> SuiteResult:
    """F(a,b;c;z) must equal (1-z)^(c-a-b) F(c-a,c-b;c;z) to 1e-10."""
    res = SuiteResult("euler-transform")
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn < n:
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.5, 5.0))
        z = float(rng.uniform(0.0, 0.9))
        direct = special.hyp2f1(a, b, c, z).value
        if abs(direct) < 1e-3:
            continue  # relative comparison is meaningless near a zero of F
        drawn += 1
        other = special.euler_transform(a, b, c, z)
        rel = abs(direct - other) / abs(direct)
        res.record(rel, 1e-10, f"(a={a:.3f},b={b:.3f},c={c:.3f},z={z:.3f})")
    return res


def gauss_summation_suite(n: int = 20,
                          seed: int = DEFAULT_SEED) -> SuiteResult:
    """Summation just below z = 1 must approach the closed z = 1 value.

    F(1) - F(1 - eps) scales like F'(1) * eps plus a (eps)^(c-a-b) boundary
    term, so agreement at a fixed tolerance is only testable where that
    predicted deviation is small: balance c - a - b comfortably above 1
    and a moderate derivative at the endpoint.  Draws outside the
    predictable regime are rejected; inside it, any excess deviation is an
    implementation bug.
    """
    res = SuiteResult("gauss-summation")
    rng = np.random.default_rng(seed)
    eps = 1e-6
    z = 1.0 - eps
    drawn = 0
    while drawn < n:
        a = float(rng.uniform(-1.5, 1.5))
        b = float(rng.uniform(-1.5, 1.5))
        s = float(rng.uniform(1.2, 2.5))
        c = a + b + s
        if c < 0.05:
            continue  # keep the lower parameter comfortably positive
        limit_value = special.hyp2f1_at_one(a, b, c)
        if abs(limit_value) < 1e-3:
            continue
        slope = a * b / c * special.hyp2f1_at_one(a + 1.0, b + 1.0, c + 1.0)
        if abs(slope) * eps > 2e-5 * abs(limit_value):
            continue  # endpoint slope too steep for the 1e-4 tolerance
        drawn += 1
        near = special.hyp2f1(a, b, c, z).value
        rel = abs(near - limit_value) / abs(limit_value)
        res.record(rel, 1e-4, f"(a={a:.3f},b={b:.3f},c={c:.3f})")
    return res


def derivative_suite(n: int = 100, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Analytic dF/dz must match central finite differences to 1e-6."""
    res = SuiteResult("derivative")
    rng = np.random.default_rng(seed)
    h = 1e-6
    drawn = 0
    while drawn < n:
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.5, 5.0))
        z = float(rng.uniform(0.05, 0.85))
        analytic = special.hyp2f1_derivative(a, b, c, z)
        if abs(analytic) < 1e-4:
            continue
        drawn += 1
        fd = (special.hyp2f1(a, b, c, z + h).value
              - special.hyp2f1(a, b, c, z - h).value) / (2.0 * h)
        rel = abs(analytic - fd) / abs(analytic)
        res.record(rel, 1e-6, f"(a={a:.3f},b={b:.3f},c={c:.3f},z={z:.3f})")
    return res


def gap_dual_path_suite() -> SuiteResult:
    """The direct gap and its 3F2 reformulation must agree to 1e-10."""
    res = SuiteResult("gap-dual-path")
    for a1, a2 in _same_sign_pairs():
        for rho in DEFAULT_RHOS:
            for s1 in DEFAULT_SIGMAS:
                for s2 in DEFAULT_SIGMAS:
                    spec = MomentSpec(s1, s2, a1, a2, rho)
                    g1 = moments.gap(spec)
                    g2 = moments.gap_via_3f2(spec)
                    dev = abs(g1 - g2) / max(1.0, abs(g1))
                    res.record(dev, 1e-10,
                               f"(a=({a1},{a2}),rho={rho},sig=({s1},{s2}))")
    return res


def bound_consistency_suite() -> SuiteResult:
    """Specialized closed-form bounds must match the general form to 1e-13."""
    res = SuiteResult("bound-consistency")
    sig_rho = [(1.0, 1.0, 0.5), (0.5, 2.0, 0.25), (2.0, 0.5, 0.95),
               (1.0, 2.0, 0.75)]
    for s1, s2, rho in sig_rho:
        for a1 in (1, 2):
            for a2 in (1, 2):
                general = bounds.gap_lower_bound(
                    MomentSpec(s1, s2, a1, a2, rho)).value
                closed = bounds.pair_bound_small(a1, a2, s1, s2, rho)
                rel = abs(general - closed) / max(abs(closed), 1e-300)
                res.record(rel, 1e-13, f"small({a1},{a2})")
        for m in range(3, 9):
            general = bounds.gap_lower_bound(MomentSpec(s1, s2, m, 1, rho)).value
            closed = bounds.pair_bound_int_one(m, s1, s2, rho)
            rel = abs(general - closed) / max(abs(closed), 1e-300)
            res.record(rel, 1e-13, f"int-one({m})")
            for nn in range(3, 9):
                general = bounds.gap_lower_bound(
                    MomentSpec(s1, s2, m, nn, rho)).value
                closed = bounds.pair_bound_int_int(m, nn, s1, s2, rho)
                rel = abs(general - closed) / max(abs(closed), 1e-300)
                res.record(rel, 1e-13, f"int-int({m},{nn})")
    return res


def run_all(seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    return [
        euler_transform_suite(seed=seed),
        gauss_summation_suite(seed=seed),
        derivative_suite(seed=seed),
        gap_dual_path_suite(),
        bound_consistency_suite(),
    ]
