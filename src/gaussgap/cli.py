"""Command-line front end.

Subcommands: ``moment`` (one product moment by series, quadrature, or
Monte Carlo), ``gap`` (gap plus its bound report at one point, as a
one-point sweep), ``verify`` (grid sweep emitting JSON lines or CSV),
``curve`` (gap and bound values along a rho sweep, as CSV), and
``selftest`` (identity suites).

Exit codes: 0 success, 1 inequality or identity violation, 2 invalid
arguments, 3 numerical convergence or accuracy failure.  The error type
picks 2 or 3, whether it was raised or recorded in the ``verify.ReportRow``
rows that ``gap``, ``verify`` and ``curve`` emit; those three share one
rule, ``_exit_code``, on the sweep's rows and summary.  Diagnostics and
machine-readable error objects go to stderr; results go to stdout or the
``--output`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import moments, oracles, selftest, verify
from .errors import DomainError, GaussGapError, InfiniteVarianceError
from .types import MomentSpec
from .verify import (CSV_COLUMNS, OracleChoice, ReportRow, RowWriter,
                     SweepConfig, run_sweep)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3
# Library errors that mean invalid arguments; any other is a numerical failure.
BAD_ARGS_ERRORS = (DomainError, InfiniteVarianceError)


def _emit_error(exc: Exception) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(obj), file=sys.stderr)


def _json_line(obj) -> str:
    return verify._JSON_ENCODER.encode(obj)


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats; "" is the empty list, an empty token bad."""
    if not text.strip():
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _nonneg_int(text: str) -> int:
    """A count of at least 0, such as ``--jobs``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _output(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot open --output {path!r}: "
                          f"{exc.strerror}") from None


def _exit_code(rows: list[ReportRow], summary: dict) -> int:
    """1 if the sweep's ``summary`` counts a violation; 2 or 3 when every
    row errored, by the first row's ``error:<Type>:`` flag, the way
    ``main`` maps a raised error; otherwise 0."""
    if summary["violations"]:
        return EXIT_VIOLATION
    if summary["errored"] == summary["checked"]:
        first = next(f for f in rows[0].flags if f.startswith("error:"))
        bad_args = first.split(":")[1] in {e.__name__ for e in BAD_ARGS_ERRORS}
        return EXIT_BAD_ARGS if bad_args else EXIT_NO_CONVERGENCE
    return EXIT_OK


def _spec_from_args(args) -> MomentSpec:
    return MomentSpec(args.sigma1, args.sigma2, args.alpha1, args.alpha2,
                      args.rho)


def cmd_moment(args) -> int:
    oracles.check_seed(args.seed)
    spec = _spec_from_args(args)
    if args.method == "series":
        est = moments.product_moment(spec)
    elif args.method == "quadrature":
        est = oracles.quad_product_moment(spec)
    else:  # mc
        cfg = oracles.McConfig(args.mc_samples, args.seed)
        est = oracles.mc_product_moment(spec, cfg)
    print(f"{est.value:.10g}")
    print(_json_line({"value": verify._jsonable(est.value),
                      "method": args.method,
                      "error_estimate": verify._jsonable(est.error_estimate)}))
    return EXIT_OK


def cmd_gap(args) -> int:
    rows, summary = run_sweep(SweepConfig(), grid=[_spec_from_args(args)])
    row = rows[0]
    print(f"gap        = {row.gap:.10g}")
    print(f"regime     = {row.regime}"
          + (f" ({row.case_tag})" if row.case_tag else ""))
    if row.bound_lower is not None:
        print(f"bound_low  = {row.bound_lower:.10g}")
    if row.bound_upper is not None:
        print(f"bound_high = {row.bound_upper:.10g}")
    print(f"slack      = {row.slack:.10g}")
    print(f"satisfied  = {str(row.satisfied).lower()}"
          + (f"  flags={','.join(row.flags)}" if row.flags else ""))
    RowWriter(sys.stdout).write_rows(rows)
    return _exit_code(rows, summary)


def cmd_verify(args) -> int:
    config = SweepConfig(
        alpha1_values=args.alpha1, alpha2_values=args.alpha2,
        rho_values=args.rho, sigma1_values=args.sigma1,
        sigma2_values=args.sigma2, oracle=OracleChoice(args.oracle),
        mc_samples=args.mc_samples, master_seed=args.seed)
    jobs = args.jobs or os.cpu_count() or 1
    # Building the grid checks every point, so invalid arguments exit
    # before --output is created and an unopenable one before the sweep.
    grid = config.grid()
    with _output(args.output) as stream:
        rows, summary = run_sweep(config, jobs, grid)
        RowWriter(stream, args.format).write_rows(rows)

    summary_line = ("checked={checked} satisfied={satisfied} "
                    "violations={violations} vacuous_lower={vacuous_lower} "
                    "errored={errored} oracle_mismatches={oracle_mismatches}"
                    .format(**summary))
    print(summary_line, file=sys.stderr if args.output is None else sys.stdout)
    return _exit_code(rows, summary)


def cmd_curve(args) -> int:
    count = args.rho_count
    if count < 2:
        raise DomainError(f"rho count must be at least 2, got {count}")
    config = SweepConfig(
        alpha1_values=(args.alpha1,), alpha2_values=(args.alpha2,),
        rho_values=tuple(0.99 * i / (count - 1) for i in range(count)),
        sigma1_values=(args.sigma1,), sigma2_values=(args.sigma2,))
    grid = config.grid()
    with _output(args.output) as stream:
        rows, summary = run_sweep(config, grid=grid)
        RowWriter(stream, "csv", ("rho", "gap", "bound_lower",
                                  "bound_upper")).write_rows(rows)
    return _exit_code(rows, summary)


def cmd_selftest(args) -> int:
    results = selftest.run_all(args.seed)
    if args.json:
        payload = [{"suite": r.name, "checked": r.checked, "failed": r.failed,
                    "worst": verify._jsonable(r.worst),
                    "failures": r.failures} for r in results]
        print(_json_line(payload))
    else:
        for r in results:
            status = "ok" if r.passed else "FAIL"
            print(f"{r.name:18s} checked={r.checked:5d} failed={r.failed:3d} "
                  f"worst={r.worst:.3e}  {status}")
            for msg in r.failures:
                print(f"    {msg}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma1", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussgap",
        description="Bivariate Gaussian absolute product moments, gap "
                    "bounds, and numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moment", help="one absolute product moment")
    _add_spec_args(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--method", choices=("series", "quadrature", "mc"),
                   default="series")
    p.add_argument("--mc-samples", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("gap", help="gap and bound report at one point")
    _add_spec_args(p)
    p.add_argument("--rho", type=float, required=True)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser(
        "verify", help="sweep a parameter grid and check every bound",
        epilog="CSV column order: " + ", ".join(CSV_COLUMNS))
    p.add_argument("--alpha1", type=_float_list, default=verify.DEFAULT_ALPHAS,
                   help="comma-separated exponent list; write --alpha1=-0.5,1 "
                        "when the list starts with a negative number")
    p.add_argument("--alpha2", type=_float_list, default=verify.DEFAULT_ALPHAS)
    p.add_argument("--rho", type=_float_list, default=verify.DEFAULT_RHOS)
    p.add_argument("--sigma1", type=_float_list, default=verify.DEFAULT_SIGMAS)
    p.add_argument("--sigma2", type=_float_list, default=verify.DEFAULT_SIGMAS)
    p.add_argument("--oracle", choices=[c.value for c in OracleChoice],
                   default="none")
    p.add_argument("--mc-samples", type=int, default=verify.DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--jobs", type=_nonneg_int, default=0,
                   help="worker processes, at most one per core and per "
                        "point; 0 means all cores. Row order is grid order "
                        "regardless of scheduling.")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve",
                       help="gap and bounds along rho in [0, 0.99], CSV")
    _add_spec_args(p)
    p.add_argument("--rho-count", type=int, default=100)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("selftest", help="run the built-in identity suites")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BAD_ARGS_ERRORS as exc:
        _emit_error(exc)
        return EXIT_BAD_ARGS
    except GaussGapError as exc:
        _emit_error(exc)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
