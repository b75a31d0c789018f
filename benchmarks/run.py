#!/usr/bin/env python3
"""gaussgap benchmark: serial `gaussgap verify` sweeps, timed or traced.

Run from the repository root:

    python3 benchmarks/run.py --workload default-grid --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped except
one timer per ``verify.evaluate_point`` call, which also times the same
points with a frozen copy of the package, the yardstick for the shared
host's speed (see `timed_pass`).  ``--trace 1`` alternates
plain and span-traced sweeps and reports per-layer counts and self times
plus the tracing overhead.  Every sweep runs in its own forked child of a
process that has only imported the package, so nothing one sweep leaves
behind in the package's modules reaches the next.  The output of every
sweep is checked (see checks.py).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import functools
import gc
import importlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from checks import check_output, sha256_file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up launches per run, spread over the run's measuring time.
SETUP_LAUNCHES = 3
SETUP_TIMEOUT_S = 120
# Paired sweeps per run, at least.
MIN_SWEEPS = 3
# Tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 800, 750, 500)
MIN_BEYOND_TAIL = 10
# The yardstick for the host's speed: the package source as it was when
# the benchmark was defined (reference/, written by make_reference.py),
# unpacked under another top-level name.  See `timed_pass`.
FROZEN_PACKAGE = "gaussgap_frozen"
FROZEN_ARCHIVE = Path(__file__).resolve().parent / "reference" / "gaussgap-src.tar.gz"
FROZEN_DIR = OUT / "frozen"
FROZEN_TIMES = FROZEN_ARCHIVE.parent / "frozen-times.json"


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def tail_tenths(points: int) -> int:
    """Highest ladder percentile, in tenths of a percent, with at least ten
    of a sweep's points beyond its nearest rank."""
    return next((t for t in TAIL_LADDER
                 if points - -(-t * points // 1000) >= MIN_BEYOND_TAIL),
                TAIL_LADDER[-1])


def nearest_rank(sorted_values, tenths: int) -> tuple[float, int]:
    """Value at the nearest rank of a percentile, and how many lie beyond."""
    n = len(sorted_values)
    rank = max(1, -(-tenths * n // 1000))
    return sorted_values[rank - 1], n - rank


def frozen_goes_first(index: int) -> bool:
    """Whether the frozen copy evaluates grid point ``index`` before the
    package does.  A bit of a multiplicative hash of the index, not its
    parity: in a grid whose last axis has an even length, parity follows
    that axis, so the points that follow their twin would be the cheap
    ones on one side and the dear ones on the other."""
    return bool((index * 0x9E3779B1 >> 16) & 1)


def unpack_frozen() -> None:
    """Unpack the frozen package under FROZEN_DIR, replacing any earlier
    copy, and put it on sys.path (the package is imported after the plain
    sweep, see `timed_pass`)."""
    shutil.rmtree(FROZEN_DIR, ignore_errors=True)
    with tarfile.open(FROZEN_ARCHIVE) as tar:
        tar.extractall(FROZEN_DIR, filter="data")
    sys.path.insert(1, str(FROZEN_DIR))


def frozen_points(workload):
    """The frozen package's own point evaluator and its argument tuples for
    the workload's grid, in grid order, built the way its `verify` command
    builds them from the same arguments."""
    cli = importlib.import_module(f"{FROZEN_PACKAGE}.cli")
    verify = importlib.import_module(f"{FROZEN_PACKAGE}.verify")
    ns = cli.build_parser().parse_args(["verify", *workload.args])
    config = verify.SweepConfig(
        alpha1_values=ns.alpha1, alpha2_values=ns.alpha2, rho_values=ns.rho,
        sigma1_values=ns.sigma1, sigma2_values=ns.sigma2,
        tolerance=ns.tolerance, oracle=verify.OracleChoice(ns.oracle),
        mc_samples=ns.mc_samples, master_seed=ns.seed)
    args = [((s.sigma1, s.sigma2, s.alpha1, s.alpha2, s.rho), i,
             config.tolerance, config.oracle.value, config.mc_samples,
             config.master_seed) for i, s in enumerate(config.grid())]
    if len(args) != workload.points:
        raise RuntimeError(f"frozen grid has {len(args)} points, "
                           f"not {workload.points}")
    return verify._evaluate_packed, args


def run_in_child(work):
    """Call ``work()`` in a forked child; return its result, or None if the
    child failed.

    The child starts from the parent's state, in which the package is only
    imported, and exits after one call, so module state such as a cache
    filled by one sweep never carries over to the next: each sweep is as
    cold as a separate `gaussgap verify` invocation.  A full collection
    first gives every child the same garbage-collector state, so a pause
    the program causes falls on the same points in every sweep.  The
    threads the imports start are OpenBLAS workers, which OpenBLAS
    re-creates after fork; the package makes no BLAS calls.
    """
    gc.collect()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(work())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    return pickle.loads(payload)


class Runner:
    """Invokes `gaussgap verify --jobs 1` for one workload, one forked child
    per invocation; set-up launches use the package or its frozen copy."""

    def __init__(self, workload, package: str = "gaussgap"):
        self.workload = workload
        self.package = package
        self.path = SRC if package == "gaussgap" else FROZEN_DIR
        self.output = OUT / f"{workload.name}-{package}.jsonl"
        self.attempted = 0
        self.failed = 0
        self.shas: set[str] = set()

    def argv(self, args, output: Path) -> list[str]:
        return ["verify", "--jobs", "1", "--format", "json", *args,
                "--output", str(output)]

    def invoke(self) -> dict:
        """One whole invocation in this process: exit code, wall seconds
        and the summary line it prints."""
        from gaussgap import cli
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = perf_counter()
            rc = cli.main(self.argv(self.workload.args, self.output))
            wall = perf_counter() - start
        return {"rc": rc, "wall": wall, "stdout": captured.getvalue()}

    def plain_invoke(self) -> dict:
        """`invoke` plus the child's peak resident memory."""
        result = self.invoke()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    def paired_invoke(self, swap: bool) -> dict:
        """`invoke` with one timer around each `verify.evaluate_point` call,
        which also evaluates the same grid point with the frozen package
        (see `frozen_points`) and times that on its own, before or after the
        package's evaluation (see `frozen_goes_first`; ``swap`` swaps the
        two, so over two sweeps, one with it, each side of each point has
        gone first once).  So each of the package's evaluations has the
        frozen copy's right beside it, on the host as it was at that
        moment, and on each side half the points follow their twin, which
        can run a fifth faster on warm caches.
        Runs in a child, which exits afterwards, so the wrapper is never
        removed.

        Adds both sides' per-point latencies and ``own_s``, the invocation's
        wall time less the frozen evaluations."""
        from gaussgap import verify
        n = self.workload.points
        latency = array.array("d", bytes(8 * n))
        frozen = array.array("d", bytes(8 * n))
        real = verify.evaluate_point
        evaluate_frozen, frozen_args = frozen_points(self.workload)

        def timed_frozen(index):
            start = perf_counter()
            evaluate_frozen(frozen_args[index])
            frozen[index] = perf_counter() - start

        def timed(spec, index, *args, **kwargs):
            frozen_first = frozen_goes_first(index) != swap
            if frozen_first:
                timed_frozen(index)
            start = perf_counter()
            try:
                return real(spec, index, *args, **kwargs)
            finally:
                latency[index] = perf_counter() - start
                if not frozen_first:
                    timed_frozen(index)

        verify.evaluate_point = timed
        result = self.invoke()
        result["own_s"] = result["wall"] - math.fsum(frozen)
        result["latency"], result["frozen"] = latency, frozen
        return result

    def traced_invoke(self) -> dict:
        from tracing import Recorder
        with Recorder() as rec:
            result = self.invoke()
        result["layers"] = rec.layer_metrics(self.output.stat().st_size)
        return result

    def sweep(self, work) -> dict | None:
        """Run ``work`` (one of the invoke methods) in a fresh child; adds
        the summary counts, or returns None if the invocation failed."""
        self.attempted += self.workload.points
        result = run_in_child(work)
        if result is None or result["rc"] != 0:
            rc = None if result is None else result["rc"]
            print(f"gaussgap verify exited with {rc}", file=sys.stderr)
            self.failed += self.workload.points
            return None
        self.shas.add(sha256_file(self.output))
        summary = dict(kv.split("=") for kv in result["stdout"].split())
        result["summary"] = {k: int(v) for k, v in summary.items()}
        return result

    def setup_time(self) -> float:
        """One fresh interpreter: `import gaussgap.cli` plus the first point,
        timed from spawn to exit."""
        code = (f"import sys; from {self.package}.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.path), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-c", code,
               *self.argv(self.workload.first_point_args(),
                          OUT / f"{self.workload.name}-{self.package}-setup.jsonl")]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up launch exited {proc.returncode}")
        return elapsed


def latency_ms(latencies, tenths: int) -> tuple[float, float]:
    """Median and tail of per-point latencies, in ms."""
    ordered = sorted(latencies)
    return (1e3 * statistics.median(ordered),
            1e3 * nearest_rank(ordered, tenths)[0])


def timed_pass(runner: Runner, frozen: Runner,
               seconds: float) -> tuple[dict, dict, dict | None]:
    """One plain sweep, then paired sweeps (see `Runner.paired_invoke`)
    while the next one is expected to end within ``seconds`` (at least
    MIN_SWEEPS), with pairs of set-up launches (the package, then the
    frozen copy) spread between them.

    The host is shared, and its speed moves by up to 2x, on both CPUs at
    once, from one sweep to the next and for tens of seconds, which moves
    even the fastest of a run's repeats by a quarter between runs.  So
    every time is taken on both sides at the same host moments, and each
    statistic of the package is scaled by the frozen copy's time on the
    host the benchmark was defined on (reference/frozen-times.json) over
    the same statistic of the frozen copy in this run: the time as it
    would read there.  The frozen copy never changes, so a change to the
    program moves the reported time as it moves the raw one.

    - invocation: per paired sweep, the package's own invocation time
      against the sum of the frozen copy's points; median over sweeps.
    - latencies: on each side, each point's fastest evaluation over the
      sweeps in which the package went first, averaged with its fastest
      over the sweeps in which the frozen copy went first; the median and
      tail of those.  An evaluation that follows its twin runs up to a
      fifth faster, and at the median of a small grid that decides which
      side is faster, so each side gets one of each.
    - set-up: per pair of launches; median over pairs.

    The plain sweep gives peak_rss_mb alone: the paired ones also hold the
    frozen copy.
    """
    wl = runner.workload
    tenths = tail_tenths(wl.points)
    nominal = json.loads(FROZEN_TIMES.read_text())[wl.name]
    pairs = {"invocation_s": [], "setup_s": []}  # (package, frozen copy)
    fastest = {}  # (side, swapped) -> each point's fastest evaluation
    summary = None
    begin = perf_counter()
    plain = runner.sweep(runner.plain_invoke)
    if plain is None:
        return {}, {}, None
    # Imported here, like the package, so that in every child both sides
    # pay the same copy-on-write faults on first touching their modules.
    importlib.import_module(f"{FROZEN_PACKAGE}.cli")
    sweep_s = []
    while True:
        elapsed = perf_counter() - begin
        launches = len(pairs["setup_s"])
        if (launches < SETUP_LAUNCHES
                and elapsed >= launches * seconds / SETUP_LAUNCHES):
            pairs["setup_s"].append((runner.setup_time(), frozen.setup_time()))
            continue
        if (len(sweep_s) >= MIN_SWEEPS
                and elapsed + statistics.median(sweep_s) > seconds):
            break
        swap = len(sweep_s) % 2 == 1
        done = runner.sweep(functools.partial(runner.paired_invoke, swap))
        if done is None:
            break
        sweep_s.append(done["wall"])
        pairs["invocation_s"].append((done["own_s"], math.fsum(done["frozen"])))
        for side in ("latency", "frozen"):
            seen = fastest.get((side, swap), done[side])
            fastest[side, swap] = array.array("d", map(min, seen, done[side]))
        summary = done["summary"]
    while len(pairs["setup_s"]) < SETUP_LAUNCHES:
        pairs["setup_s"].append((runner.setup_time(), frozen.setup_time()))
    context = {"sweeps": len(sweep_s), "sweep_s": sweep_s, "pairs": pairs}
    if len(sweep_s) < 2:
        return {}, context, None
    unscaled = {k: statistics.median(m for m, _ in v) for k, v in pairs.items()}
    reference = {k: statistics.median(f for _, f in v) for k, v in pairs.items()}
    scaled = {k: statistics.median(m * nominal[k] / f for m, f in v)
              for k, v in pairs.items()}
    both_orders = {side: [(a + b) / 2 for a, b in zip(fastest[side, False],
                                                      fastest[side, True])]
                   for side in ("latency", "frozen")}
    for name, mine, ref in zip(("p50_ms", "tail_ms"),
                               latency_ms(both_orders["latency"], tenths),
                               latency_ms(both_orders["frozen"], tenths)):
        unscaled[name], reference[name] = mine, ref
        scaled[name] = mine * nominal[name] / ref
    context.update(
        tail_percentile=tenths / 10,
        tail_points_beyond=nearest_rank(range(wl.points), tenths)[1],
        unscaled=unscaled, frozen=reference, frozen_nominal=nominal)
    metrics = {
        "points_per_s": wl.points / scaled["invocation_s"],
        "point_p50_ms": scaled["p50_ms"],
        "point_tail_ms": scaled["tail_ms"],
        "peak_rss_mb": plain["maxrss_kb"] / 1024.0,
        "setup_s": scaled["setup_s"],
    }
    return metrics, context, summary


def traced_pass(runner: Runner, seconds: float) -> tuple[dict, dict, dict | None]:
    """Pairs of a plain and a traced sweep until the next pair would end
    after ``seconds``; times are medians over the traced sweeps."""
    from tracing import DETERMINISTIC
    plain, traced, layers, summary = [], [], [], None
    begin = perf_counter()
    while True:
        done = runner.sweep(runner.invoke)
        if done is None:
            break
        plain.append(done["wall"])
        done = runner.sweep(runner.traced_invoke)
        if done is None:
            break
        traced.append(done["wall"])
        summary = done["summary"]
        layers.append(done["layers"])
        if perf_counter() - begin + plain[-1] + traced[-1] > seconds:
            break
    metrics, context = {}, {"pairs": len(traced), "plain_s": plain,
                            "traced_s": traced}
    if layers:
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = (statistics.median(values)
                             if isinstance(values[0], float) else values[0])
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        context["deterministic_repeat"] = all(
            m[name] == layers[0][name] for m in layers for name in DETERMINISTIC)
    return metrics, context, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gaussgap" / "__init__.py").is_file():
        print(f"no gaussgap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gaussgap.cli
    if Path(gaussgap.__file__).resolve().parent != SRC / "gaussgap":
        print(f"imported gaussgap from {gaussgap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    runner = Runner(wl)

    problems = []
    try:
        if args.trace:
            metrics, context, summary = traced_pass(runner, args.seconds)
        else:
            unpack_frozen()
            metrics, context, summary = timed_pass(
                runner, Runner(wl, FROZEN_PACKAGE), args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if summary is None:
        problems.append("no sweep completed")
        check = {}
    else:
        axes = (workloads.near_one_values(args.seed)
                if wl.name == "near-one" else None)
        check = check_output(wl, args.seed, runner.output, summary, axes)
        problems.extend(check["problems"])
    if len(runner.shas) > 1:
        problems.append("sweeps of one run wrote different outputs")
    if context.get("deterministic_repeat") is False:
        problems.append("deterministic layer counts differ between sweeps")

    if not args.trace:
        failed_rows = check.get("failed_rows", wl.points)
        metrics["ok_frac"] = 1.0 - failed_rows / wl.points
        context["failed_frac"] = failed_rows / wl.points
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    for name, unit in units.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:.6g} {unit}")
    context.update({
        "workload": wl.name, "seed": args.seed, "points_per_sweep": wl.points,
        "seconds": args.seconds, "trace": args.trace, "summary": summary,
        "machine": machine_info(), "problems": problems,
        **{k: v for k, v in check.items() if k != "problems"},
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
