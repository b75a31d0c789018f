#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 benchmarks/make_reference.py

Writes reference/expected.json (sha256 and summary counts per workload,
per seed for near-one), the gzipped rows of the fixed grids, and the
package source itself (see `write_frozen`).  The frozen invocation times in
expected.json are measured separately, by `python3 benchmarks/spread.py`
on the frozen copy; they only fix the scale of the reported times.
"""

from __future__ import annotations

import gzip
import io
import json
import shutil
import sys
import tarfile

import workloads
from checks import EXPECTED, REFERENCE, sha256_file
from run import FROZEN_ARCHIVE, FROZEN_PACKAGE, OUT, SRC, Runner

NEAR_ONE_SEEDS = (1, 2)


def write_frozen() -> None:
    """Archive the package source as `FROZEN_PACKAGE`, byte for byte, with
    fixed metadata so the archive depends only on the source."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.PAX_FORMAT) as tar:
        for path in sorted((SRC / "gaussgap").glob("*.py")):
            data = path.read_bytes()
            info = tarfile.TarInfo(f"{FROZEN_PACKAGE}/{path.name}")
            info.size, info.mode = len(data), 0o644
            tar.addfile(info, io.BytesIO(data))
    with gzip.GzipFile(FROZEN_ARCHIVE, "wb", mtime=0) as dst:
        dst.write(buf.getvalue())


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gaussgap.cli  # noqa: F401  (imported once, before the forks)
    OUT.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    write_frozen()
    expected = {}
    for name in ("default-grid", "oracle-small", "oracle-grid"):
        runner = Runner(workloads.make(name, 0))
        summary = runner.sweep(runner.invoke)["summary"]
        rows = f"{name}.jsonl.gz"
        with open(runner.output, "rb") as src, \
                gzip.GzipFile(REFERENCE / rows, "wb", mtime=0) as dst:
            shutil.copyfileobj(src, dst)
        expected[name] = {"sha256": sha256_file(runner.output),
                          "summary": summary, "rows": rows}
        print(name, expected[name], flush=True)
    seeds = {}
    for seed in NEAR_ONE_SEEDS:
        runner = Runner(workloads.make("near-one", seed))
        summary = runner.sweep(runner.invoke)["summary"]
        seeds[str(seed)] = {"sha256": sha256_file(runner.output),
                            "summary": summary}
        print("near-one", seed, seeds[str(seed)], flush=True)
    expected["near-one"] = {"seeds": seeds}
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
