"""Benchmark workloads: each one is a list of `gaussgap verify` arguments.

The program receives only CLI arguments; every input a workload draws from
its seed is generated here and passed on the command line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

_ORACLE_OPTIONS = ("--rho=0,0.5,0.95", "--sigma1=1", "--sigma2=0.5,2",
                   "--oracle=both", "--mc-samples=200000")
# The oracle grid of scripts/run_default_sweeps.py, emitted as JSON lines.
# Not declared in BENCHMARK.json: a run of it (two 19.5-25 s sweeps plus
# set-up) takes 45-55 s, too long to repeat as often as a declared workload
# is run beside the other three.
_ORACLE_GRID_ARGS = ("--alpha1=-0.9,-0.1,0.5,1,2,3",
                     "--alpha2=-0.9,-0.1,0.5,1,2,3", *_ORACLE_OPTIONS)
# The same grid restricted to its three lowest exponents, whose points are
# the cheapest to check (30-110 ms, against up to 220 ms at alpha = 2):
# a sweep takes 2-3 s, so a run makes four to six paired sweeps.
_ORACLE_SMALL_ARGS = ("--alpha1=-0.9,-0.1,0.5", "--alpha2=-0.9,-0.1,0.5",
                      *_ORACLE_OPTIONS)

# near-one shape: K exponents per axis, M correlations, one sigma per axis.
# 3 x 3 x 6 = 54 points keep a sweep near 4.5 s, most of it the two rows
# nearest |rho| = 1 at the lowest exponents (about 1.2 and 1.8 s), one of
# which exhausts the series' term cap twice; 54 points leave 10 beyond the
# 80th percentile of one sweep.
NEAR_ONE_K = 3
NEAR_ONE_M = 6
# Each exponent and each log(1 - |rho|) is drawn uniformly within this
# share of its cell's width around the cell centre.  Draws spread over
# whole cells put a varying number of rows into the non-converging band
# (4 to 10 of 250 in trials), and each such row costs ~2.8 s, so sweep
# time moved by 13-34 s between seeds.  Narrow jitter keeps every key
# distinct and seed dependent while every seed does the same series work.
NEAR_ONE_JITTER = 0.02
NEAR_ONE_EXPONENTS = (-1.0, 4.5)
NEAR_ONE_LOG_GAP = (math.log(1e-9), math.log(1e-1))
NEAR_ONE_SIGMAS = (0.5, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # `gaussgap verify` arguments except jobs/format/output
    points: int

    def first_point_args(self) -> tuple[str, ...]:
        """The same invocation restricted to its first grid point.

        argparse keeps the last occurrence of an option, so appending the
        first value of each list overrides the workload's lists.
        """
        from gaussgap.cli import build_parser
        ns = build_parser().parse_args(["verify", *self.args])
        return self.args + tuple(
            f"--{opt}={getattr(ns, opt)[0]!r}"
            for opt in ("alpha1", "alpha2", "rho", "sigma1", "sigma2"))


def _jittered_cells(rng: random.Random, lo: float, hi: float,
                    n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + (i + 0.5 + NEAR_ONE_JITTER * (rng.random() - 0.5)) * width
            for i in range(n)]


def near_one_values(seed: int) -> dict[str, list[float]]:
    """The seeded near-one axes: exponents, correlations and scales."""
    rng = random.Random(seed)
    alpha1 = _jittered_cells(rng, *NEAR_ONE_EXPONENTS, NEAR_ONE_K)
    alpha2 = _jittered_cells(rng, *NEAR_ONE_EXPONENTS, NEAR_ONE_K)
    # Farthest from |rho| = 1 first, so the first grid point (the one the
    # set-up launches evaluate) is cheap for every seed.
    gaps = [math.exp(x) for x in
            reversed(_jittered_cells(rng, *NEAR_ONE_LOG_GAP, NEAR_ONE_M))]
    rho = [rng.choice((-1.0, 1.0)) * (1.0 - g) for g in gaps]
    log_lo, log_hi = (math.log(s) for s in NEAR_ONE_SIGMAS)
    sigma1 = [math.exp(rng.uniform(log_lo, log_hi))]
    sigma2 = [math.exp(rng.uniform(log_lo, log_hi))]
    return {"alpha1": alpha1, "alpha2": alpha2, "rho": rho,
            "sigma1": sigma1, "sigma2": sigma2}


def make(name: str, seed: int) -> Workload:
    if name == "default-grid":
        return Workload(name, (), 8100)
    if name == "oracle-grid":
        return Workload(name, _ORACLE_GRID_ARGS, 216)
    if name == "oracle-small":
        return Workload(name, _ORACLE_SMALL_ARGS, 54)
    if name == "near-one":
        axes = near_one_values(seed)
        args = tuple(f"--{opt}=" + ",".join(repr(v) for v in values)
                     for opt, values in axes.items())
        return Workload(name, args, NEAR_ONE_K * NEAR_ONE_K * NEAR_ONE_M)
    raise ValueError(f"unknown workload {name!r}")


# Runnable by name; BENCHMARK.json declares the first three.
NAMES = ("default-grid", "oracle-small", "near-one", "oracle-grid")
