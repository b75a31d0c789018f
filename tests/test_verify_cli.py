"""Tests for the sweep machinery, report serialization, and the CLI."""

import json
import math
import subprocess
import sys

import pytest

from gaussgap import cli, moments, special
from gaussgap.types import MomentSpec
from gaussgap.verify import (CSV_COLUMNS, OracleChoice, SweepConfig,
                             evaluate_point, row_to_csv_fields, row_to_dict,
                             run_sweep)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_tiny_grid_counts(self):
        config = SweepConfig(alpha1_values=(1.0,), alpha2_values=(1.0, -0.5),
                             rho_values=(0.0, 0.5), sigma1_values=(1.0,),
                             sigma2_values=(1.0,))
        rows, summary = run_sweep(config, jobs=1)
        assert summary["checked"] == len(rows) == 4
        assert summary["violations"] == 0
        assert summary["satisfied"] == 4

    def test_vacuous_rows_flagged_not_failed(self):
        config = SweepConfig(alpha1_values=(-0.9,), alpha2_values=(0.05,),
                             rho_values=(0.5,), sigma1_values=(1.0,),
                             sigma2_values=(1.0,))
        rows, summary = run_sweep(config, jobs=1)
        assert summary["vacuous_lower"] == 1
        assert summary["violations"] == 0
        assert rows[0].satisfied

    def test_rows_in_grid_order_under_parallelism(self):
        config = SweepConfig(alpha1_values=(0.5, 1.0, 2.0),
                             alpha2_values=(0.5, 1.0),
                             rho_values=(0.0, 0.25, 0.5),
                             sigma1_values=(1.0, 2.0), sigma2_values=(1.0,))
        serial, _ = run_sweep(config, jobs=1)
        parallel, _ = run_sweep(config, jobs=3)
        assert [r.index for r in parallel] == list(range(len(serial)))
        assert serial == parallel

    def test_cached_sweep_matches_cold_points(self):
        # three scales and both signs of each |rho| share every series key
        config = SweepConfig(alpha1_values=(-0.5, 1.0, 2.5),
                             alpha2_values=(-0.9, 1.5),
                             rho_values=(0.0, 0.5, -0.5, 0.95, -0.95),
                             sigma1_values=(0.5, 2.0),
                             sigma2_values=(1.0, 2.0))
        rows, _ = run_sweep(config, jobs=1)
        info = moments.correlation_factor.cache_info()
        assert info.hits > info.misses > 0
        cold = []
        for i, spec in enumerate(config.grid()):
            moments.correlation_factor.cache_clear()
            cold.append(evaluate_point(spec, i, config.tolerance,
                                       OracleChoice.NONE, 0, 0))
        assert rows == cold

    def test_oracle_columns(self):
        config = SweepConfig(alpha1_values=(1.0,), alpha2_values=(1.0,),
                             rho_values=(0.5,), sigma1_values=(1.0,),
                             sigma2_values=(1.0,), oracle=OracleChoice.BOTH,
                             mc_samples=50_000)
        rows, summary = run_sweep(config, jobs=1)
        row = rows[0]
        assert row.oracle_quad_value is not None
        assert row.oracle_mc_value is not None
        assert row.oracle_quad_dev <= max(1e-6 * row.moment,
                                          3 * row.oracle_quad_error)
        assert summary["oracle_mismatches"] == 0

    def test_mc_refusal_flagged(self):
        config = SweepConfig(alpha1_values=(-0.9,), alpha2_values=(1.0,),
                             rho_values=(0.5,), sigma1_values=(1.0,),
                             sigma2_values=(1.0,),
                             oracle=OracleChoice.MONTE_CARLO)
        rows, _ = run_sweep(config, jobs=1)
        assert any(f.startswith("oracle-mc-refused") for f in rows[0].flags)
        assert rows[0].oracle_mc_value is None


class TestSerialization:
    def test_json_row_has_all_fields(self):
        row = evaluate_point(MomentSpec(1, 1, 1, 1, 0.5), 3, 1e-9,
                             OracleChoice.NONE, 0, 0)
        d = row_to_dict(row)
        assert set(d) == set(CSV_COLUMNS)
        assert d["oracle_quad_value"] is None  # explicit null, not omitted
        json.dumps(d)  # must be serializable as-is

    def test_infinities_serialize_as_strings(self):
        row = evaluate_point(MomentSpec(1, 1, -0.9, 0.05, 0.5), 0, 1e-9,
                             OracleChoice.NONE, 0, 0)
        d = row_to_dict(row)
        assert d["bound_lower"] == "-inf"
        text = json.dumps(d)
        assert "Infinity" not in text

    def test_csv_fields_align_with_header(self):
        row = evaluate_point(MomentSpec(1, 1, -0.5, 2, 0.5), 1, 1e-9,
                             OracleChoice.NONE, 0, 0)
        fields = row_to_csv_fields(row)
        assert len(fields) == len(CSV_COLUMNS)


class TestCliMoment:
    def test_series_value(self, capsys):
        code, out, _ = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "0", "--sigma1", "1", "--sigma2", "1",
                                "--method", "series"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "0.6366197724"
        record = json.loads(out.splitlines()[1])
        assert record["method"] == "series"

    def test_quadrature_agrees(self, capsys):
        code, out, _ = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "0", "--method", "quadrature"], capsys)
        assert code == 0
        value = json.loads(out.splitlines()[1])["value"]
        assert abs(value - 2 / math.pi) < 1e-6

    def test_mc_method(self, capsys):
        code, out, _ = run_cli(["moment", "--alpha1", "2", "--alpha2", "2",
                                "--rho", "0.6", "--method", "mc",
                                "--mc-samples", "200000", "--seed", "7"], capsys)
        assert code == 0
        record = json.loads(out.splitlines()[1])
        assert abs(record["value"] - 1.72) < 6 * record["error_estimate"]

    def test_invalid_degenerate_scales(self, capsys):
        code, _, err = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "1", "--sigma1", "1", "--sigma2", "2"],
                               capsys)
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "DomainError"

    def test_invalid_alpha(self, capsys):
        code, _, err = run_cli(["moment", "--alpha1", "-1.5", "--alpha2", "1",
                                "--rho", "0"], capsys)
        assert code == 2

    def test_convergence_failure_exit(self, capsys):
        code, _, err = run_cli(["moment", "--alpha1", "-0.3", "--alpha2",
                                "-0.2", "--rho", "0.999999999"], capsys)
        assert code == 3
        assert json.loads(err.splitlines()[-1])["error"] == "ConvergenceError"

    def test_degenerate_series_route(self, capsys):
        code, out, _ = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "1"], capsys)
        assert code == 0
        assert abs(json.loads(out.splitlines()[1])["value"] - 1.0) < 1e-12


class TestCliGap:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(["gap", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "0.5"], capsys)
        assert code == 0
        record = json.loads(out.splitlines()[-1])
        assert record["satisfied"] is True
        assert record["regime"] == "same-sign"
        assert abs(record["gap"] - 0.08137578972087737) < 1e-12

    def test_overflow_exits_three_without_traceback(self, capsys):
        code, out, err = run_cli(["gap", "--alpha1", "200", "--alpha2", "200",
                                  "--rho", "0.5"], capsys)
        assert code == 3
        record = json.loads(out.splitlines()[-1])
        assert record["regime"] == "error"
        assert record["flags"][0].startswith("error:DomainError:")
        assert "Traceback" not in err

    def test_vacuous_flagged(self, capsys):
        code, out, _ = run_cli(["gap", "--alpha1", "-0.5", "--alpha2", "1",
                                "--rho", "0.5"], capsys)
        assert code == 0
        record = json.loads(out.splitlines()[-1])
        assert record["bound_lower"] == "-inf"
        assert "vacuous-lower" in record["flags"]


class TestCliVerify:
    def test_small_sweep_json(self, tmp_path, capsys):
        out_file = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(["verify", "--alpha1", "1,2", "--alpha2", "1",
                                "--rho", "0,0.5", "--sigma1", "1",
                                "--sigma2", "1", "--jobs", "1",
                                "--output", str(out_file)], capsys)
        assert code == 0
        assert "violations=0" in out
        lines = out_file.read_text().splitlines()
        assert len(lines) == 4
        assert all(set(json.loads(l)) == set(CSV_COLUMNS) for l in lines)

    def test_csv_format(self, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_cli(["verify", "--alpha1", "-0.9", "--alpha2", "0.05",
                              "--rho", "0.5", "--sigma1", "1", "--sigma2", "1",
                              "--jobs", "1", "--format", "csv",
                              "--output", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert "-inf" in lines[1]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["verify", "--alpha1", "0.5,1,2", "--alpha2", "1,3",
                "--rho", "0,0.5,0.95", "--sigma1", "1", "--sigma2", "0.5,2",
                "--oracle", "mc", "--mc-samples", "2000", "--seed", "99"]
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(args + ["--jobs", "1", "--output", str(f1)], capsys)[0] == 0
        assert run_cli(args + ["--jobs", "2", "--output", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_default_grid_all_satisfied(self, capsys):
        code, out, _ = run_cli(["verify", "--jobs", "2",
                                "--output", "/dev/null"], capsys)
        assert code == 0
        assert "checked=8100" in out
        assert "violations=0" in out

    def test_every_row_errored_exits_three(self, capsys):
        code, _, err = run_cli(["verify", "--alpha1", "200", "--alpha2", "200",
                                "--rho", "0,0.5", "--sigma1", "1",
                                "--sigma2", "1", "--jobs", "1"], capsys)
        assert code == 3
        assert "checked=2 " in err and "errored=2 " in err

    def test_partly_errored_exits_zero(self, capsys):
        code, _, err = run_cli(["verify", "--alpha1", "1,200", "--alpha2",
                                "200", "--rho", "0.5", "--sigma1", "1",
                                "--sigma2", "1", "--jobs", "1"], capsys)
        assert code == 0
        assert "checked=2 " in err and "errored=1 " in err

    def test_bad_float_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--alpha1", "1,zebra"])
        assert exc.value.code == 2


class TestCliCurve:
    def test_equality_witness_curve(self, capsys):
        code, out, _ = run_cli(["curve", "--alpha1", "2", "--alpha2", "2",
                                "--rho-count", "9"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,gap,bound_lower,bound_upper"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        for line in lines[1:]:
            rho, g, lo, hi = line.split(",")
            assert math.isclose(float(g), float(lo), rel_tol=1e-12,
                                abs_tol=1e-15)
            assert hi == ""

    def test_opposite_sign_curve(self, capsys):
        code, out, _ = run_cli(["curve", "--alpha1", "-0.5", "--alpha2", "3",
                                "--rho-count", "5"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for rho, g, lo, hi in rows[1:]:
            assert float(lo) <= float(g) <= float(hi) + 1e-12


class TestCliSelftest:
    def test_passes_cleanly(self, capsys):
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        assert out.count(" ok") == 5

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["selftest", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {entry["suite"] for entry in payload} == {
            "euler-transform", "gauss-summation", "derivative",
            "gap-dual-path", "bound-consistency"}
        assert all(entry["failed"] == 0 for entry in payload)

    def test_injected_fault_detected(self, capsys, monkeypatch):
        # negative control: a tiny multiplicative fault in one identity
        # path must flip the exit code
        original = special.euler_transform
        monkeypatch.setattr(
            "gaussgap.special.euler_transform",
            lambda a, b, c, z: original(a, b, c, z) * (1.0 + 1e-6))
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_injected_sign_flip_in_bounds(self, capsys, monkeypatch):
        from gaussgap import bounds as bounds_mod
        original = bounds_mod.pair_bound_int_one
        monkeypatch.setattr(
            "gaussgap.bounds.pair_bound_int_one",
            lambda m, s1, s2, rho: -original(m, s1, s2, rho))
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussgap", "moment", "--alpha1", "1",
             "--alpha2", "1", "--rho", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "0.6366197724"
