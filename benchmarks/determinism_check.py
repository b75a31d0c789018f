#!/usr/bin/env python3
"""Check that the deterministic layer counts repeat across two traced runs.

    python3 benchmarks/determinism_check.py
    python3 benchmarks/determinism_check.py --workloads near-one --seed 2

Each workload runs twice with ``--trace 1``; special.terms, special.calls,
special.distinct_key_ratio, oracles.quad.neval and oracles.mc.samples must
be identical between the two runs, and both runs must pass the output
check.  These are counts of work done, to be compared as counts, never
read as speed-ups.  Exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import sys

from spread import ROOT, run_once

sys.path.insert(0, str(ROOT / "src"))
from tracing import DETERMINISTIC  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default="default-grid,oracle-small,oracle-grid,near-one")
    ap.add_argument("--seed", type=int, default=1)
    # One plain and one traced sweep per run is enough for counts.
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        first, second = (run_once(workload, args.seed, args.seconds, 1)
                         for _ in range(2))
        for run in (first, second):
            if not run["result"]["correct"]:
                ok = False
                print(f"{workload}: output check failed: "
                      f"{run['context']['problems']}")
        for name in DETERMINISTIC:
            a = first["result"]["metrics"][name]["value"]
            b = second["result"]["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload:13s} {name:28s} {a!r:>22} {b!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
