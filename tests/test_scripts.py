"""The scripts under scripts/, run in process on small inputs."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _curve(path):
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


def test_gap_bound_curves(tmp_path, capsys):
    script = _load("gap_bound_curves")
    assert script.run(["--out-dir", str(tmp_path), "--rho-count", "20"]) == 0
    assert capsys.readouterr().out.count("wrote ") == len(script.PAIRS)

    # the equality witness: gap and lower bound coincide for every rho
    witness = _curve(tmp_path / "curve_a1_2.0_a2_2.0.csv")
    assert len(witness) == 20
    for row in witness:
        g, lower = float(row["gap"]), float(row["bound_lower"])
        assert abs(g - lower) <= 1e-13 * abs(lower)
        assert row["bound_upper"] == ""

    envelope = _curve(tmp_path / "curve_a1_m0.5_a2_3.0.csv")
    assert len(envelope) == 20
    for row in envelope:
        g = float(row["gap"])
        assert float(row["bound_lower"]) <= g <= float(row["bound_upper"])
