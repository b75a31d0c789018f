"""Command-line front end.

Subcommands: ``moment`` (one product moment by series, quadrature, or
Monte Carlo), ``gap`` (gap plus its bound report at one point),
``verify`` (grid sweep emitting JSON lines or CSV), ``curve`` (gap and
bound values along a rho sweep, as CSV), and ``selftest`` (identity
suites).

Exit codes: 0 success, 1 inequality or identity violation, 2 invalid
arguments, 3 numerical convergence or accuracy failure (for ``verify``:
every row errored).  Diagnostics and
machine-readable error objects go to stderr; results go to stdout or the
``--output`` file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bounds, moments, oracles, selftest, verify
from .errors import DomainError, GaussGapError, InfiniteVarianceError
from .types import MomentSpec
from .verify import (CSV_COLUMNS, OracleChoice, SweepConfig, row_to_csv_fields,
                     row_to_dict, run_sweep)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3


def _emit_error(exc: Exception) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(obj), file=sys.stderr)


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json_line(obj) -> str:
    return _JSON_ENCODER.encode(obj)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _open_output(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _spec_from_args(args) -> MomentSpec:
    return MomentSpec(args.sigma1, args.sigma2, args.alpha1, args.alpha2,
                      args.rho)


def cmd_moment(args) -> int:
    spec = _spec_from_args(args)
    if args.method == "series":
        if spec.degenerate:
            value = moments.product_moment_rho_one(spec)
            error = 0.0
        else:
            series = moments.correlation_factor(
                spec.alpha1, spec.alpha2, spec.rho * spec.rho, False)
            prefactor = moments.product_of_marginals(spec)
            value = prefactor * series.value
            error = prefactor * series.truncation_error_estimate
    elif args.method == "quadrature":
        est = oracles.quad_product_moment(spec)
        value, error = est.value, est.error_estimate
    else:  # mc
        cfg = oracles.McConfig(args.mc_samples, args.seed)
        est = oracles.mc_product_moment(spec, cfg)
        value, error = est.value, est.error_estimate
    print(f"{value:.10g}")
    print(_json_line({"value": verify._jsonable(value), "method": args.method,
                      "error_estimate": verify._jsonable(error)}))
    return EXIT_OK


def cmd_gap(args) -> int:
    spec = _spec_from_args(args)
    row = verify.evaluate_point(spec, 0, args.tolerance, OracleChoice.NONE,
                                0, 0)
    d = row_to_dict(row)
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
    print(_json_line(d))
    if row.errored:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if row.satisfied else EXIT_VIOLATION


def cmd_verify(args) -> int:
    config = SweepConfig(
        alpha1_values=args.alpha1, alpha2_values=args.alpha2,
        rho_values=args.rho, sigma1_values=args.sigma1,
        sigma2_values=args.sigma2, tolerance=args.tolerance,
        oracle=OracleChoice(args.oracle), mc_samples=args.mc_samples,
        master_seed=args.seed)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    rows, summary = run_sweep(config, jobs)

    stream, close_it = _open_output(args.output)
    try:
        if args.format == "csv":
            stream.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                stream.write(",".join(row_to_csv_fields(row)) + "\n")
        else:
            for row in rows:
                stream.write(_json_line(row_to_dict(row)) + "\n")
    finally:
        if close_it:
            stream.close()

    summary_line = ("checked={checked} satisfied={satisfied} "
                    "violations={violations} vacuous_lower={vacuous_lower} "
                    "errored={errored} oracle_mismatches={oracle_mismatches}"
                    .format(**summary))
    print(summary_line, file=sys.stdout if close_it else sys.stderr)
    if summary["violations"]:
        return EXIT_VIOLATION
    if summary["errored"] == summary["checked"] > 0:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_curve(args) -> int:
    count = args.rho_count
    if count < 2:
        raise DomainError(f"rho count must be at least 2, got {count}")
    stream, close_it = _open_output(args.output)
    try:
        stream.write("rho,gap,bound_lower,bound_upper\n")
        for i in range(count):
            rho = 0.99 * i / (count - 1)
            row = verify.evaluate_point(
                MomentSpec(args.sigma1, args.sigma2, args.alpha1, args.alpha2,
                           rho),
                i, bounds.DEFAULT_TOLERANCE, OracleChoice.NONE, 0, 0)
            lo = "" if row.bound_lower is None else (
                "-inf" if row.bound_lower == -math.inf else repr(row.bound_lower))
            hi = "" if row.bound_upper is None else repr(row.bound_upper)
            stream.write(f"{rho!r},{row.gap!r},{lo},{hi}\n")
    finally:
        if close_it:
            stream.close()
    return EXIT_OK


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
    p.add_argument("--tolerance", type=float, default=bounds.DEFAULT_TOLERANCE)
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
    p.add_argument("--tolerance", type=float, default=bounds.DEFAULT_TOLERANCE)
    p.add_argument("--oracle", choices=[c.value for c in OracleChoice],
                   default="none")
    p.add_argument("--mc-samples", type=int, default=verify.DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes; 0 means all cores. Row order is "
                        "grid order regardless of scheduling.")
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
    except (DomainError, InfiniteVarianceError) as exc:
        _emit_error(exc)
        return EXIT_BAD_ARGS
    except GaussGapError as exc:
        _emit_error(exc)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
