"""Grid verification sweeps and report serialization.

A sweep walks the cross product of the configured parameter lists, checks
every point against its applicable gap bound, optionally compares the
closed-form moment against the quadrature and Monte Carlo oracles, and
emits one ``ReportRow`` per point in deterministic grid order.  The
fields of ``ReportRow`` are the output columns, in order: rows serialize
to JSON lines with every field, or to CSV with a chosen list of columns.
Missing oracle values are explicit nulls and infinite sentinels become
the strings "+inf" / "-inf" so the output stays portable.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import oracles as oracles_mod
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
    oracle: OracleChoice = OracleChoice.NONE
    mc_samples: int = DEFAULT_MC_SAMPLES
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        # Range checks live in MomentSpec, which grid() runs on every point
        # before any is evaluated.
        for name in ("alpha1", "alpha2", "rho", "sigma1", "sigma2"):
            if not getattr(self, f"{name}_values"):
                raise DomainError(f"the {name} list is empty")
        if (self.oracle.wants_mc
                and self.mc_samples < oracles_mod.MIN_MC_SAMPLES):
            raise DomainError(f"mc_samples must be at least "
                              f"{oracles_mod.MIN_MC_SAMPLES}, got "
                              f"{self.mc_samples}")

    def grid(self) -> list[MomentSpec]:
        return [MomentSpec(s1, s2, a1, a2, r)
                for a1 in self.alpha1_values
                for a2 in self.alpha2_values
                for r in self.rho_values
                for s1 in self.sigma1_values
                for s2 in self.sigma2_values]


class ReportRow(NamedTuple):
    """One output row; the fields, in order, are the output columns."""

    index: int
    sigma1: float
    sigma2: float
    alpha1: float
    alpha2: float
    rho: float
    regime: str
    case_tag: str | None
    moment: float | None
    gap: float
    bound_lower: float | None
    bound_upper: float | None
    finite_lower: bool | None
    satisfied: bool
    slack: float
    oracle_quad_value: float | None
    oracle_quad_error: float | None
    oracle_quad_dev: float | None
    oracle_mc_value: float | None
    oracle_mc_error: float | None
    oracle_mc_dev: float | None
    flags: tuple[str, ...]

    @property
    def errored(self) -> bool:
        return any(f.startswith("error:") for f in self.flags)

    @property
    def vacuous(self) -> bool:
        return "vacuous-lower" in self.flags


CSV_COLUMNS = ReportRow._fields


def _jsonable(value):
    """A JSON-ready value: non-finite floats become strings, tuples lists."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "+inf" if value > 0 else "-inf"
    if isinstance(value, tuple):
        return list(value)
    return value


def row_to_dict(row: ReportRow) -> dict:
    return dict(zip(ReportRow._fields, map(_jsonable, row)))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


def row_to_csv_fields(row: ReportRow, columns: tuple[str, ...]) -> list[str]:
    d = row_to_dict(row)
    return [_csv_cell(d[col]) for col in columns]


def evaluate_point(spec: MomentSpec, index: int,
                   oracle: OracleChoice = OracleChoice.NONE,
                   mc_samples: int = DEFAULT_MC_SAMPLES,
                   master_seed: int = DEFAULT_SEED) -> ReportRow:
    """Check one grid point and attach any requested oracle columns."""
    report = bounds_mod.check_point(spec)
    flags = list(report.flags)

    moment = None
    try:
        moment = moments_mod.product_moment(spec).value
    except GaussGapError as exc:
        flags.append(f"error:{type(exc).__name__}:{exc}")

    bound = report.bound
    case_tag = bound_lower = bound_upper = finite_lower = None
    if bound is not None:
        case_tag, bound_lower = bound.case_tag, bound.lower
        finite_lower = bound.finite_lower
        if bound.upper < math.inf:
            bound_upper = bound.upper
        if bound.swapped:
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
        index=index, sigma1=spec.sigma1, sigma2=spec.sigma2,
        alpha1=spec.alpha1, alpha2=spec.alpha2, rho=spec.rho,
        regime=report.regime, case_tag=case_tag,
        moment=moment, gap=report.gap, bound_lower=bound_lower,
        bound_upper=bound_upper, finite_lower=finite_lower,
        satisfied=report.satisfied, slack=report.slack,
        oracle_quad_value=quad_value, oracle_quad_error=quad_error,
        oracle_quad_dev=quad_dev, oracle_mc_value=mc_value,
        oracle_mc_error=mc_error, oracle_mc_dev=mc_dev,
        flags=tuple(flags),
    )


def run_sweep(config: SweepConfig, jobs: int = 1,
              grid: list[MomentSpec] | None = None
              ) -> tuple[list[ReportRow], dict]:
    """Evaluate the whole grid; rows come back in grid order regardless of
    execution order or worker count.  ``grid`` is ``config.grid()``, for
    a caller that has built it already.

    One argument list over the grid, mapped by a process pool of
    ``min(jobs, len(grid), os.cpu_count())`` workers when that exceeds 1
    and by the built-in ``map`` otherwise.  If the pool or one
    of its workers cannot be started (``OSError``), one notice goes to
    stderr and the grid runs serially.
    """
    if grid is None:
        grid = config.grid()
    # A list, a range and endless repeats: the serial map can walk them
    # again after a pool failed part way.
    points = (grid, range(len(grid)), repeat(config.oracle),
              repeat(config.mc_samples), repeat(config.master_seed))
    # The pool forks all its workers at once, so never more than there
    # are points or CPUs.
    workers = min(jobs, len(grid), os.cpu_count() or 1)
    rows = None
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, len(grid) // (workers * 8))
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
