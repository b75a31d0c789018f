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


_SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import math  # code with a comment


class Thing:
    """A class docstring."""

    size = 1


def f(x):
    """A function
    docstring."""
    text = """a string
    that is code"""
    "a string statement after the first is code"
    return math.sqrt(x) + len(text)
'''


def test_src_lines_counts_code_lines(capsys):
    script = _load("src_lines")
    # code: import, class, size, def, the two lines of text, the string
    # statement, return
    assert script.count_lines(_SOURCE) == (20, 8)
    assert script.count_lines("") == (0, 0)

    assert script.run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    *modules, total = (line.split() for line in lines)
    assert [m[0] for m in modules] == sorted(
        p.name for p in script.PACKAGE.glob("*.py"))
    assert total[0] == "total"
    assert [int(v) for v in total[1:]] == [
        sum(int(m[i]) for m in modules) for i in (1, 2)]
    assert all(int(m[1]) >= int(m[2]) > 0 for m in modules)
