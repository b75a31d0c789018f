"""Output checks for one benchmark run.

Fixed grids are compared with the sha256, the summary counts and the rows
recorded when the benchmark was defined (``reference/``).  near-one draws
new inputs for every seed, so its rows are also checked against an
independent mpmath evaluation of the closed form.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
EXPECTED = REFERENCE / "expected.json"
# Largest relative deviation of a near-one gap or moment from mpmath that
# still counts as correct.  The series' own stopping rule leaves errors
# of about 5e-9 near z = 1, well inside this.
NEAR_ONE_REL_TOL = 1e-7
FAILED_FLAGS = ("error:", "oracle-quad-error:")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def failed_rows(rows: list[dict]) -> int:
    return sum(1 for r in rows
               if any(f.startswith(FAILED_FLAGS) for f in r["flags"]))


def expected_for(workload: str, seed: int) -> dict | None:
    expected = json.loads(EXPECTED.read_text())
    entry = expected.get(workload)
    if entry is None:
        return None
    if "seeds" in entry:
        return entry["seeds"].get(str(seed))
    return entry


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_dev(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    return abs(x - ref) / max(abs(x), abs(ref))


def compare_rows(rows: list[dict], ref_rows: list[dict]) -> tuple[float, list[str]]:
    """Largest relative deviation over numeric fields, and any row whose
    other fields or numeric/non-numeric shape differ."""
    problems = []
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        for key, rv in ref.items():
            v = row.get(key)
            if _is_number(rv) and _is_number(v):
                worst = max(worst, _rel_dev(float(v), float(rv)))
            elif v != rv:
                problems.append(f"row {ref['index']}: {key} = {v!r}, "
                                f"reference {rv!r}")
    return worst, problems[:5]


def near_one_problems(rows: list[dict], axes: dict) -> tuple[float, list[str]]:
    """Check near-one rows against the generated grid and against mpmath."""
    import mpmath
    mpmath.mp.dps = 30
    grid = [(s1, s2, a1, a2, r)
            for a1 in axes["alpha1"] for a2 in axes["alpha2"]
            for r in axes["rho"]
            for s1 in axes["sigma1"] for s2 in axes["sigma2"]]
    problems = []
    if len(rows) != len(grid):
        problems.append(f"{len(rows)} rows for {len(grid)} grid points")
    worst = 0.0
    for i, (row, point) in enumerate(zip(rows, grid)):
        got = (row["sigma1"], row["sigma2"], row["alpha1"], row["alpha2"],
               row["rho"])
        if row["index"] != i or got != point:
            problems.append(f"row {i} is not grid point {point}")
            continue
        flags = row["flags"]
        if any(f.startswith("error:") for f in flags):
            if not all(f.startswith("error:ConvergenceError")
                       for f in flags if f.startswith("error:")):
                problems.append(f"row {i}: unexpected error {flags}")
            continue
        if not row["satisfied"]:
            problems.append(f"row {i}: bound violated")
        s1, s2, a1, a2, r = (mpmath.mpf(x) for x in point)
        prefactor = (mpmath.power(2, (a1 + a2) / 2) * s1 ** a1 * s2 ** a2
                     * mpmath.gamma((a1 + 1) / 2) * mpmath.gamma((a2 + 1) / 2)
                     / mpmath.pi)
        f = mpmath.hyp2f1(-a1 / 2, -a2 / 2, mpmath.mpf(1) / 2, r * r)
        for key, ref in (("gap", prefactor * (f - 1)), ("moment", prefactor * f)):
            dev = _rel_dev(row[key], float(ref))
            worst = max(worst, dev)
            if not dev <= NEAR_ONE_REL_TOL:
                problems.append(f"row {i}: {key} off by {dev:.3g} relative")
    return worst, problems[:5]


def check_output(workload, seed: int, path: Path, summary: dict,
                 axes: dict | None) -> dict:
    """Compare one sweep's JSON lines with the references; ``problems``
    empty means correct."""
    rows = read_rows(path)
    result = {"sha256": sha256_file(path), "sha_match": None,
              "max_rel_dev": None, "max_rel_dev_vs": None, "problems": []}
    problems = result["problems"]
    if summary.get("checked") != workload.points:
        problems.append(f"summary {summary} does not cover "
                        f"{workload.points} points")
    expected = expected_for(workload.name, seed)
    if expected is not None:
        result["sha_match"] = result["sha256"] == expected["sha256"]
        if not result["sha_match"]:
            problems.append("output sha256 differs from the reference")
        if summary != expected["summary"]:
            problems.append(f"summary {summary} differs from the reference "
                            f"{expected['summary']}")
        if "rows" in expected:
            dev, bad = compare_rows(rows, read_rows(REFERENCE / expected["rows"]))
            result["max_rel_dev"], result["max_rel_dev_vs"] = dev, "reference rows"
            problems.extend(bad)
    if axes is not None:
        dev, bad = near_one_problems(rows, axes)
        result["max_rel_dev"], result["max_rel_dev_vs"] = dev, "mpmath"
        problems.extend(bad)
        if summary.get("violations") or summary.get("oracle_mismatches"):
            problems.append(f"summary {summary} reports failed checks")
    if expected is None and axes is None:
        problems.append(f"no reference recorded for {workload.name}")
    result["failed_rows"] = failed_rows(rows)
    return result
