#!/usr/bin/env python3
"""Run the standard verification sweeps and write reports under ./reports.

Produces one JSON-lines report for the bound check over the default grid
(no oracles, fast) and one CSV report for a smaller grid with both
oracles attached, then prints the two summary lines.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from gaussgap.cli import main as cli_main
from gaussgap.verify import DEFAULT_SEED


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rc = cli_main([
        "verify", "--jobs", str(args.jobs), "--seed", str(args.seed),
        "--format", "json", "--output", str(out / "bounds_full_grid.jsonl"),
    ])
    if rc:
        return rc

    return cli_main([
        "verify", "--jobs", str(args.jobs), "--seed", str(args.seed),
        "--alpha1=-0.9,-0.1,0.5,1,2,3",
        "--alpha2=-0.9,-0.1,0.5,1,2,3",
        "--rho", "0,0.5,0.95", "--sigma1", "1", "--sigma2", "0.5,2",
        "--oracle", "both", "--mc-samples", "200000",
        "--format", "csv", "--output", str(out / "bounds_with_oracles.csv"),
    ])


if __name__ == "__main__":
    sys.exit(run())
