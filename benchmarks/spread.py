#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmarks/spread.py                         # seeds 1-10, all workloads
    python3 benchmarks/spread.py --seeds 1 --workloads near-one
    python3 benchmarks/spread.py --trace 1 --seeds 1,2 --out traced.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.  With
``--out`` it also writes every run's result and context as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"seed": seed, "result": json.loads(lines[-1]),
            "context": json.loads(lines[-2])["context"]}


def summarize(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": metric["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        table[name] = entry
    return table


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        table = summarize(runs, bounds)
        report["machine"] = runs[0]["context"]["machine"]
        report["workloads"][workload] = {"runs": runs, "metrics": table}
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed={sum(r['result']['failed'] for r in runs)}")
        for name, e in table.items():
            spread = e.get("spread")
            line = f"  {name:34s} {e['median']:<14.6g} {e['unit']:6s}"
            if spread is not None:
                line += f" spread {spread:.4f}"
            if "bound" in e and spread is not None:
                line += f" (bound/3 {e['bound'] / 3:.4f})"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
