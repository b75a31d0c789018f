"""Grid verification sweeps and report serialization.

A sweep walks the cross product of the configured parameter lists, checks
every point against its applicable gap bound, optionally compares the
closed-form moment against the quadrature and Monte Carlo oracles, and
emits one ``ReportRow`` per point in deterministic grid order.  A sweep
follows the closed form P(sigma, alpha) * F(-a1/2, -a2/2; 1/2; rho^2).
Each chunk of the grid composes its ``row_cores`` before any row: P and,
after the series, the bound's rho-free factors once per (sigma1, sigma2,
alpha1, alpha2), F - 1 and F once per (alpha1, alpha2, rho^2) in one
batched sum, then the rows' cores, everything but their index,
correlation and oracle columns, one per (sigma1, sigma2, alpha1, alpha2,
|rho|) and shared by both signs of rho, each by the one-point steps
(``moments.scaled`` and ``bounds.check_gap``); ``evaluate_point`` adds
the point's own columns.  A single point is a one-point sweep.

The fields of ``ReportRow`` are the output columns, in order: rows
serialize to JSON lines with every field, or to CSV with a chosen list of
columns.  Missing oracle values are explicit nulls and infinite sentinels
become the strings "+inf" / "-inf" so the output stays portable; CSV
cells holding a comma, a quote or a line break are quoted (RFC 4180).
``RowWriter`` streams rows in either format, one fixed layout per format,
a chunk of rows and a column at a time: each column encodes a distinct
value once per writer, keyed by the value while the column's numbers
keep one type (a chunk with another is encoded without the memo, one
of ints alone, the index, directly), and a chunk's lines are joined and
written at once.  Its bytes are those of ``row_to_dict`` and the compact
JSON encoder (or of the CSV cell rule) at a fraction of the cost: the
default grid writes about 76,000 floats, of which about 8,600 are
distinct in their column.  ``summarize`` counts a sweep's rows in one
pass.
"""

from __future__ import annotations

import enum
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from . import bounds as bounds_mod
from . import moments as moments_mod
from . import oracles as oracles_mod
from .errors import DomainError, GaussGapError, outcome
from .special import SeriesResult
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
        # The points' range checks live in MomentSpec, which grid() runs on
        # every point before any is evaluated.
        for name in ("alpha1", "alpha2", "rho", "sigma1", "sigma2"):
            if not getattr(self, f"{name}_values"):
                raise DomainError(f"the {name} list is empty")
        if self.oracle.wants_mc:
            oracles_mod.check_sample_count(self.mc_samples, "mc_samples")
        oracles_mod.check_seed(self.master_seed)

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


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json_text(value) -> str:
    """A row value as ``row_to_dict`` and the compact encoder write it;
    the encoder writes a finite float or an int as its ``repr``."""
    cls = type(value)
    if cls is int or cls is float and math.isfinite(value):
        return repr(value)
    return _JSON_ENCODER.encode(_jsonable(value))


def _csv_text(value) -> str:
    """A row value as a CSV cell: nulls empty, booleans lower case, flags
    joined by ";", and quoted (RFC 4180) where it holds a comma, a quote
    or a line break; an int or a finite float is its ``repr``, which
    holds none of them."""
    cls = type(value)
    if cls is int or cls is float and math.isfinite(value):
        return repr(value)
    value = _jsonable(value)
    if value is None:
        text = ""
    elif isinstance(value, bool):
        text = "true" if value else "false"
    elif isinstance(value, list):
        text = ";".join(value)
    else:
        text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reusable(value) -> bool:
    """Whether a value's text may be stored under its key: not a NaN,
    which equals no key, nor a tuple holding anything but strings, nor an
    int, which a sweep never repeats (the index).  A float zero is
    stored apart (see ``_Column``)."""
    if isinstance(value, float):
        return value == value
    if isinstance(value, tuple):
        return all(isinstance(v, str) for v in value)
    return type(value) is not int


# Types none of whose values equals a value of another type in a row.
_NEVER_EQUAL = frozenset((type(None), str, tuple))
_NUMBERS = frozenset((int, float, bool))


class _Column(dict):
    """The cells of one column in one writer: a value's text between what
    precedes it on the line (a comma or the line's opening, and in JSON
    the name) and what follows it (the line's end, in the last column),
    stored by the value for the writer's life (see ``_reusable``).

    True, 1 and 1.0 are one key with three texts, so the stored numbers
    keep one type: the first that a chunk holds alone among int, float
    and bool.  A chunk holding any other number type is encoded cell by
    cell without the memo, and one of ints alone (the index) directly.
    0.0 and -0.0 are one key too: it stores None, and the sign of each
    such cell's value picks one of the two texts.
    """

    def __init__(self, before: str, encode, after: str):
        super().__init__()
        self._before, self._encode, self._after = before, encode, after
        self._number = None  # the one number type stored, once pinned
        self._zeros = None  # the texts of 0.0 and -0.0, once one is met

    def cell(self, value) -> str:
        return self._before + self._encode(value) + self._after

    def __missing__(self, value):
        if value == 0.0 and type(value) is float:
            self._zeros = (self.cell(0.0), self.cell(-0.0))
            self[value] = None
            return None
        text = self.cell(value)
        if _reusable(value):
            self[value] = text
        return text

    def cells(self, values) -> list[str]:
        types = set(map(type, values))
        if types == {int}:  # an int's text is its repr in either format
            before, after = self._before, self._after
            return [f"{before}{v!r}{after}" for v in values]
        numbers = types - _NEVER_EQUAL
        if self._number is None and len(numbers) == 1 and numbers <= _NUMBERS:
            (self._number,) = numbers
        if numbers <= {self._number}:
            try:
                cells = list(map(self.__getitem__, values))
            except TypeError:  # an unhashable value
                pass
            else:
                i = -1
                for _ in range(cells.count(None) if self._zeros else 0):
                    i = cells.index(None, i + 1)
                    cells[i] = self._zeros[math.copysign(1.0, values[i]) < 0]
                return cells
        return list(map(self.cell, values))


# Rows that a writer encodes and writes at once: it bounds the text held.
WRITE_CHUNK = 512


class RowWriter:
    """Writes ``ReportRow``s to a text stream as JSON lines (every field,
    as ``row_to_dict`` and the compact JSON encoder give it) or as CSV
    (a header, then the chosen ``columns``).

    Rows go out ``WRITE_CHUNK`` at a time: the chunk is transposed, each
    column's values are mapped to their cells (see ``_Column``), which
    carry the commas, names and line ends, and the chunk's cells are
    joined and written at once.  A sweep repeats its scales, exponents,
    correlations and many results, so most cells are found ready.
    """

    def __init__(self, stream, fmt: str = "json",
                 columns: tuple[str, ...] = CSV_COLUMNS):
        self._stream = stream
        if fmt == "json":
            columns = CSV_COLUMNS
            names = [_JSON_ENCODER.encode(name) + ":" for name in columns]
            opening, encode, end = "{", _json_text, "}\n"
        else:
            names = [""] * len(columns)
            opening, encode, end = "", _csv_text, "\n"
            stream.write(",".join(columns) + "\n")
        last = len(columns) - 1
        self._columns = [_Column(("," if i else opening) + name, encode,
                                 end if i == last else "")
                         for i, name in enumerate(names)]
        # the positions of the columns, or None for the whole row
        self._pick = (None if columns == CSV_COLUMNS
                      else [CSV_COLUMNS.index(col) for col in columns])

    def write_rows(self, rows) -> None:
        """Write a sequence of rows, ``WRITE_CHUNK`` at a time."""
        for start in range(0, len(rows), WRITE_CHUNK):
            values = list(zip(*rows[start:start + WRITE_CHUNK]))
            if self._pick is not None:
                values = [values[i] for i in self._pick]
            cells = map(_Column.cells, self._columns, values)
            self._stream.write("".join(chain.from_iterable(zip(*cells))))


def row_cores(specs) -> dict:
    """The cores of the rows of ``specs``: each point's ``ReportRow``
    fields from ``regime`` to ``slack``, then its flags before any
    oracle's, keyed by (sigma1, sigma2, alpha1, alpha2, |rho|).

    P is computed once per (sigma1, sigma2, alpha1, alpha2), then F - 1
    and F once per (alpha1, alpha2, rho^2) in one
    ``moments.series_factors`` batch (only the distinct |rho| per P are
    held through it), then the bound factors once per P, only where P is
    finite or at rho = 0 (a gap of 0 without P), all through the
    modules' attributes; a failure is kept as its error.  Each core is
    composed as ``product_moment`` and ``check_point`` compose a point,
    with ``moments.scaled`` and ``bounds.check_gap``, and in their order
    of errors: P before F, the gap before its bound.  Each step is even
    in rho, bit for bit, but rho^2 rounds tiny correlations together (to
    0 below about 1.5e-162) where the bound's a1 * a2 * rho * rho does
    not: so the key holds |rho|.
    """
    quads, wanted = {}, {}
    for spec in specs:
        key = (spec.sigma1, spec.sigma2, spec.alpha1, spec.alpha2)
        if key not in quads:
            quads[key] = (outcome(moments_mod.product_of_marginals, spec),
                          spec, {})
        p, _, rhos = quads[key]
        rho = abs(spec.rho)
        if rho in rhos:
            continue
        rhos[rho] = None
        if not isinstance(p, GaussGapError):
            a1, a2, z = spec.alpha1, spec.alpha2, rho * rho
            if rho != 0.0:
                wanted[a1, a2, z, True] = None
            wanted[a1, a2, z, False] = None
    series = dict(zip(wanted, moments_mod.series_factors(list(wanted))))

    scaled, check_gap = moments_mod.scaled, bounds_mod.check_gap
    cores = {}
    for (s1, s2, a1, a2), (p, spec, rhos) in quads.items():
        p_failed = isinstance(p, GaussGapError)
        factors = (outcome(bounds_mod.bound_factors, spec)
                   if not p_failed or 0.0 in rhos else None)
        for rho in rhos:
            if p_failed:
                g = 0.0 if rho == 0.0 else p
                moment = p
            else:
                z = rho * rho
                g = 0.0 if rho == 0.0 else series[a1, a2, z, True]
                if isinstance(g, SeriesResult):
                    try:
                        g = scaled(p, g.value)
                    except GaussGapError as exc:
                        g = exc
                moment = full = series[a1, a2, z, False]
                if isinstance(full, SeriesResult):
                    try:
                        moment = scaled(p, full.value)
                        scaled(p, full.truncation_error_estimate)
                    except GaussGapError as exc:
                        moment = exc
            (regime, case_tag, g, lower, upper, finite_lower, satisfied, slack,
             flags, swapped) = check_gap(g, factors, a1, a2, rho)
            if isinstance(moment, GaussGapError):
                flags += (bounds_mod.error_flag(moment),)
                moment = None
            if swapped:
                flags += ("swapped",)
            cores[s1, s2, a1, a2, rho] = (
                regime, case_tag, moment, g, lower, upper, finite_lower,
                satisfied, slack, flags)
    return cores


def evaluate_point(spec: MomentSpec, index: int, config: SweepConfig,
                   cores: dict) -> ReportRow:
    """Check one grid point and attach the oracle columns that
    ``config.oracle`` asks for.

    The row holds ``bounds.check_point(spec)`` and
    ``moments.product_moment(spec).value``, from the point's core in
    ``cores`` (``row_cores`` over the point's chunk), and the point's own
    index, correlation and oracle columns.  Monte Carlo draws
    ``config.mc_samples`` samples, seeded from ``config.master_seed`` and
    ``index``; the grid lists are not read.
    """
    (regime, case_tag, moment, gap, bound_lower, bound_upper, finite_lower,
     satisfied, slack, flags) = cores[spec.sigma1, spec.sigma2, spec.alpha1,
                                      spec.alpha2, abs(spec.rho)]

    quad_value = quad_error = quad_dev = None
    mc_value = mc_error = mc_dev = None
    if (config.oracle is not OracleChoice.NONE and moment is not None
            and math.isfinite(moment)):
        if config.oracle.wants_quad:
            try:
                est = oracles_mod.quad_product_moment(spec)
                quad_value, quad_error = est.value, est.error_estimate
                quad_dev = abs(est.value - moment)
                if quad_dev > max(1e-6 * abs(moment), 3.0 * est.error_estimate):
                    flags += ("oracle-quad-mismatch",)
            except GaussGapError as exc:
                flags += (f"oracle-quad-error:{type(exc).__name__}",)
        if config.oracle.wants_mc:
            try:
                cfg = oracles_mod.McConfig(
                    config.mc_samples,
                    oracles_mod.derive_seed(config.master_seed, index))
                est = oracles_mod.mc_product_moment(spec, cfg)
                mc_value, mc_error = est.value, est.error_estimate
                mc_dev = abs(est.value - moment)
                if mc_dev > 4.0 * est.error_estimate:
                    flags += ("oracle-mc-outside-4se",)
            except GaussGapError as exc:
                flags += (f"oracle-mc-refused:{type(exc).__name__}",)

    # positional, in the order of the ReportRow fields
    return ReportRow(index, spec.sigma1, spec.sigma2, spec.alpha1,
                     spec.alpha2, spec.rho, regime, case_tag, moment, gap,
                     bound_lower, bound_upper, finite_lower, satisfied, slack,
                     quad_value, quad_error, quad_dev, mc_value, mc_error,
                     mc_dev, flags)


def _evaluate_chunk(specs: list[MomentSpec], start: int,
                    config: SweepConfig) -> list[ReportRow]:
    """Rows of consecutive grid points from index ``start`` on, from the
    ``row_cores`` of them all; each point goes through the
    ``evaluate_point`` module attribute with the sweep's ``config``."""
    cores = row_cores(specs)
    return [evaluate_point(spec, index, config, cores)
            for index, spec in enumerate(specs, start)]


def run_sweep(config: SweepConfig, jobs: int = 1,
              grid: list[MomentSpec] | None = None
              ) -> tuple[list[ReportRow], dict]:
    """Evaluate the whole grid; rows come back in grid order regardless of
    execution order or worker count.  ``grid`` is ``config.grid()``, for
    a caller that has built it already.

    Serially the grid is one chunk, whose ``row_cores`` are composed
    before its first row.  With ``min(jobs, len(grid), os.cpu_count())``
    workers above 1 a process pool maps about eight chunks per worker,
    each with cores of its own and the whole ``config``; the rows are the
    same bytes either way.  If the pool or one of its workers cannot be
    started (``OSError``), one notice goes to stderr and the grid runs
    serially.
    """
    if grid is None:
        grid = config.grid()
    # The pool forks all its workers at once, so never more than there
    # are points or CPUs.
    workers = min(jobs, len(grid), os.cpu_count() or 1)
    rows = None
    if workers > 1:
        size = max(1, len(grid) // (workers * 8))
        starts = range(0, len(grid), size)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = pool.map(_evaluate_chunk,
                                  [grid[i:i + size] for i in starts], starts,
                                  repeat(config))
                rows = [row for chunk in chunks for row in chunk]
        except OSError as exc:
            print(f"gaussgap: no process pool ({exc}); evaluating "
                  f"{len(grid)} points serially", file=sys.stderr)
    if rows is None:
        rows = _evaluate_chunk(grid, 0, config)

    return rows, summarize(rows)


_MISMATCH_FLAGS = frozenset(("oracle-quad-mismatch", "oracle-mc-outside-4se"))


def summarize(rows: list[ReportRow]) -> dict:
    """A sweep's counts, in one pass over its rows: all rows, the satisfied
    ones, the unsatisfied ones that did not error (violations), those
    flagged vacuous-lower, errored or with an oracle mismatch."""
    satisfied = violations = vacuous = errored = mismatches = 0
    for row in rows:
        row_errored = False
        if row.flags:  # most rows have none
            row_errored = row.errored
            errored += row_errored
            vacuous += row.vacuous
            mismatches += not _MISMATCH_FLAGS.isdisjoint(row.flags)
        if row.satisfied:
            satisfied += 1
        elif not row_errored:
            violations += 1
    return {"checked": len(rows), "satisfied": satisfied,
            "violations": violations, "vacuous_lower": vacuous,
            "errored": errored, "oracle_mismatches": mismatches}
