"""Grid verification sweeps and report serialization.

A sweep walks the cross product of the configured parameter lists, checks
every point against its applicable gap bound, optionally compares the
closed-form moment against the quadrature and Monte Carlo oracles, and
emits one ``ReportRow`` per point in deterministic grid order.  Rows
serialize to JSON lines or CSV with a fixed field set; missing oracle
values are explicit nulls and infinite sentinels become the strings
"+inf" / "-inf" so the output stays portable.
"""

from __future__ import annotations

import enum
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import oracles as oracles_mod
from .bounds import DEFAULT_TOLERANCE, GapEnvelope, GapLowerBound
from .errors import DomainError, GaussGapError
from .types import MomentSpec

# Exponent grid exercising every bound regime: three negative values,
# seven positive ones straddling the branch boundary at 2.
DEFAULT_ALPHAS = (-0.9, -0.5, -0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5)
DEFAULT_RHOS = (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95)
DEFAULT_SIGMAS = (0.5, 1.0, 2.0)
DEFAULT_MC_SAMPLES = 100_000
# Master seed of the Monte Carlo oracle and of the selftest draws.
DEFAULT_SEED = 20240913

CSV_COLUMNS = (
    "index", "sigma1", "sigma2", "alpha1", "alpha2", "rho", "regime",
    "case_tag", "moment", "gap", "bound_lower", "bound_upper",
    "finite_lower", "satisfied", "slack",
    "oracle_quad_value", "oracle_quad_error", "oracle_quad_dev",
    "oracle_mc_value", "oracle_mc_error", "oracle_mc_dev", "flags",
)


class OracleChoice(enum.Enum):
    NONE = "none"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "mc"
    BOTH = "both"

    @property
    def wants_quad(self) -> bool:
        return self in (OracleChoice.QUADRATURE, OracleChoice.BOTH)

    @property
    def wants_mc(self) -> bool:
        return self in (OracleChoice.MONTE_CARLO, OracleChoice.BOTH)


@dataclass(frozen=True)
class SweepConfig:
    alpha1_values: tuple[float, ...] = DEFAULT_ALPHAS
    alpha2_values: tuple[float, ...] = DEFAULT_ALPHAS
    rho_values: tuple[float, ...] = DEFAULT_RHOS
    sigma1_values: tuple[float, ...] = DEFAULT_SIGMAS
    sigma2_values: tuple[float, ...] = DEFAULT_SIGMAS
    tolerance: float = DEFAULT_TOLERANCE
    oracle: OracleChoice = OracleChoice.NONE
    mc_samples: int = DEFAULT_MC_SAMPLES
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not all(a > -1 for a in self.alpha1_values + self.alpha2_values):
            raise DomainError("all exponents must exceed -1")
        if not all(abs(r) <= 1 for r in self.rho_values):
            raise DomainError("all correlations must lie in [-1, 1]")
        if not all(s > 0 for s in self.sigma1_values + self.sigma2_values):
            raise DomainError("all scales must be positive")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")

    def grid(self) -> list[MomentSpec]:
        return [MomentSpec(s1, s2, a1, a2, r)
                for a1 in self.alpha1_values
                for a2 in self.alpha2_values
                for r in self.rho_values
                for s1 in self.sigma1_values
                for s2 in self.sigma2_values]


@dataclass(frozen=True)
class ReportRow:
    index: int
    spec: MomentSpec
    regime: str
    case_tag: str | None
    moment: float | None
    gap: float
    bound_lower: float | None
    bound_upper: float | None
    finite_lower: bool | None
    satisfied: bool
    slack: float
    oracle_quad_value: float | None = None
    oracle_quad_error: float | None = None
    oracle_quad_dev: float | None = None
    oracle_mc_value: float | None = None
    oracle_mc_error: float | None = None
    oracle_mc_dev: float | None = None
    flags: tuple[str, ...] = ()

    @property
    def errored(self) -> bool:
        return any(f.startswith("error:") for f in self.flags)

    @property
    def vacuous(self) -> bool:
        return "vacuous-lower" in self.flags


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "+inf" if value > 0 else "-inf"
    return value


def row_to_dict(row: ReportRow) -> dict:
    # Only the value columns can hold a non-finite float: MomentSpec
    # admits finite scales, exponents and correlations only.
    spec = row.spec
    return {
        "index": row.index,
        "sigma1": spec.sigma1, "sigma2": spec.sigma2,
        "alpha1": spec.alpha1, "alpha2": spec.alpha2, "rho": spec.rho,
        "regime": row.regime, "case_tag": row.case_tag,
        "moment": _jsonable(row.moment), "gap": _jsonable(row.gap),
        "bound_lower": _jsonable(row.bound_lower),
        "bound_upper": _jsonable(row.bound_upper),
        "finite_lower": row.finite_lower,
        "satisfied": row.satisfied, "slack": _jsonable(row.slack),
        "oracle_quad_value": _jsonable(row.oracle_quad_value),
        "oracle_quad_error": _jsonable(row.oracle_quad_error),
        "oracle_quad_dev": _jsonable(row.oracle_quad_dev),
        "oracle_mc_value": _jsonable(row.oracle_mc_value),
        "oracle_mc_error": _jsonable(row.oracle_mc_error),
        "oracle_mc_dev": _jsonable(row.oracle_mc_dev),
        "flags": list(row.flags),
    }


def row_to_csv_fields(row: ReportRow) -> list[str]:
    d = row_to_dict(row)
    d["flags"] = ";".join(row.flags)
    out = []
    for col in CSV_COLUMNS:
        v = d[col]
        if v is None:
            out.append("")
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        else:
            out.append(str(v))
    return out


def evaluate_point(spec: MomentSpec, index: int, tolerance: float,
                   oracle: OracleChoice, mc_samples: int,
                   master_seed: int) -> ReportRow:
    """Check one grid point and attach any requested oracle columns."""
    report = bounds_mod.check_point(spec, tolerance)
    flags = list(report.flags)

    moment = None
    try:
        moment = moments_mod.product_moment(spec)
    except GaussGapError as exc:
        flags.append(f"error:{type(exc).__name__}:{exc}")

    case_tag = None
    bound_lower = bound_upper = None
    finite_lower = None
    if isinstance(report.bound, GapLowerBound):
        case_tag = report.bound.case_tag.value
        bound_lower = report.bound.value
        finite_lower = True
    elif isinstance(report.bound, GapEnvelope):
        bound_lower = report.bound.lower
        bound_upper = report.bound.upper
        finite_lower = report.bound.finite_lower
        if report.bound.swapped:
            flags.append("swapped")

    quad_value = quad_error = quad_dev = None
    mc_value = mc_error = mc_dev = None
    if moment is not None and math.isfinite(moment):
        if oracle.wants_quad:
            try:
                est = oracles_mod.quad_product_moment(spec)
                quad_value, quad_error = est.value, est.error_estimate
                quad_dev = abs(est.value - moment)
                if quad_dev > max(1e-6 * abs(moment), 3.0 * est.error_estimate):
                    flags.append("oracle-quad-mismatch")
            except GaussGapError as exc:
                flags.append(f"oracle-quad-error:{type(exc).__name__}")
        if oracle.wants_mc:
            try:
                cfg = oracles_mod.McConfig(
                    mc_samples, oracles_mod.derive_seed(master_seed, index))
                est = oracles_mod.mc_product_moment(spec, cfg)
                mc_value, mc_error = est.value, est.error_estimate
                mc_dev = abs(est.value - moment)
                if mc_dev > 4.0 * est.error_estimate:
                    flags.append("oracle-mc-outside-4se")
            except GaussGapError as exc:
                flags.append(f"oracle-mc-refused:{type(exc).__name__}")

    return ReportRow(
        index=index, spec=spec, regime=report.regime, case_tag=case_tag,
        moment=moment, gap=report.gap, bound_lower=bound_lower,
        bound_upper=bound_upper, finite_lower=finite_lower,
        satisfied=report.satisfied, slack=report.slack,
        oracle_quad_value=quad_value, oracle_quad_error=quad_error,
        oracle_quad_dev=quad_dev, oracle_mc_value=mc_value,
        oracle_mc_error=mc_error, oracle_mc_dev=mc_dev,
        flags=tuple(flags),
    )


def run_sweep(config: SweepConfig, jobs: int = 1) -> tuple[list[ReportRow], dict]:
    """Evaluate the whole grid; rows come back in grid order regardless of
    execution order or worker count.

    One argument list over the grid, mapped by the process pool when
    ``jobs`` > 1 and by the built-in ``map`` otherwise.  If the pool or one
    of its workers cannot be started (``OSError``), one notice goes to
    stderr and the grid runs serially.
    """
    grid = config.grid()
    # A list, a range and endless repeats: the serial map can walk them
    # again after a pool failed part way.
    points = (grid, range(len(grid)), repeat(config.tolerance),
              repeat(config.oracle), repeat(config.mc_samples),
              repeat(config.master_seed))
    rows = None
    if jobs > 1 and len(grid) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                chunk = max(1, len(grid) // (jobs * 8))
                rows = list(pool.map(evaluate_point, *points, chunksize=chunk))
        except OSError as exc:
            print(f"gaussgap: no process pool ({exc}); evaluating "
                  f"{len(grid)} points serially", file=sys.stderr)
    if rows is None:
        rows = list(map(evaluate_point, *points))

    summary = {
        "checked": len(rows),
        "satisfied": sum(r.satisfied for r in rows),
        "violations": sum(1 for r in rows if not r.satisfied and not r.errored),
        "vacuous_lower": sum(r.vacuous for r in rows),
        "errored": sum(r.errored for r in rows),
        "oracle_mismatches": sum(
            1 for r in rows
            if "oracle-quad-mismatch" in r.flags
            or "oracle-mc-outside-4se" in r.flags),
    }
    return rows, summary
