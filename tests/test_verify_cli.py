"""Tests for the sweep machinery, report serialization, and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussgap
from gaussgap import cli, moments, special, verify
from gaussgap.errors import ConvergenceError
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

    def test_cached_sweep_matches_cold_points(self, clear_caches):
        # three scales and both signs of each |rho| share every series key
        config = SweepConfig(alpha1_values=(-0.5, 1.0, 2.5),
                             alpha2_values=(-0.9, 1.5),
                             rho_values=(0.0, 0.5, -0.5, 0.95, -0.95),
                             sigma1_values=(0.5, 2.0),
                             sigma2_values=(1.0, 2.0))
        rows, _ = run_sweep(config, jobs=1)
        for cache in (moments.correlation_factor, moments.prefactor):
            info = cache.cache_info()
            assert info.hits > info.misses > 0
        cold = []
        for i, spec in enumerate(config.grid()):
            clear_caches()
            cold.append(evaluate_point(spec, i, config.tolerance,
                                       OracleChoice.NONE, 0, 0))
        assert rows == cold

    def test_pool_oserror_falls_back_with_one_notice(self, monkeypatch,
                                                     capsys):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
        config = SweepConfig(alpha1_values=(-0.5, 2.0), alpha2_values=(1.0,),
                             rho_values=(0.0, 0.5), sigma1_values=(1.0,),
                             sigma2_values=(1.0, 2.0))
        rows, summary = run_sweep(config, jobs=2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no process pool (no semaphores)" in err
        assert "8 points serially" in err
        serial = run_sweep(config, jobs=1)
        assert (rows, summary) == serial
        assert capsys.readouterr().err == ""

    def test_worker_fork_oserror_falls_back(self, monkeypatch, capsys):
        # the pool forks its workers inside pool.map, after it was created
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        config = SweepConfig(alpha1_values=(-0.5, 2.0), alpha2_values=(1.0,),
                             rho_values=(0.5,), sigma1_values=(1.0,),
                             sigma2_values=(1.0,))
        rows, summary = run_sweep(config, jobs=2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "Resource temporarily unavailable" in err
        monkeypatch.undo()
        assert (rows, summary) == run_sweep(config, jobs=1)

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


def _reference_jsonable(value):
    """Reference mapping for serialization: applied to every field, float
    or not, with no assumption about which columns can be non-finite."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def _reference_dict(row):
    spec = row.spec
    raw = {
        "index": row.index,
        "sigma1": spec.sigma1, "sigma2": spec.sigma2,
        "alpha1": spec.alpha1, "alpha2": spec.alpha2, "rho": spec.rho,
        "regime": row.regime, "case_tag": row.case_tag,
        "moment": row.moment, "gap": row.gap,
        "bound_lower": row.bound_lower, "bound_upper": row.bound_upper,
        "finite_lower": row.finite_lower,
        "satisfied": row.satisfied, "slack": row.slack,
        "oracle_quad_value": row.oracle_quad_value,
        "oracle_quad_error": row.oracle_quad_error,
        "oracle_quad_dev": row.oracle_quad_dev,
        "oracle_mc_value": row.oracle_mc_value,
        "oracle_mc_error": row.oracle_mc_error,
        "oracle_mc_dev": row.oracle_mc_dev,
        "flags": list(row.flags),
    }
    return {k: _reference_jsonable(v) for k, v in raw.items()}


def _reference_line(row, fmt):
    d = _reference_dict(row)
    if fmt == "json":
        return json.dumps(d, separators=(",", ":"))
    d["flags"] = ";".join(row.flags)
    fields = []
    for col in CSV_COLUMNS:
        v = d[col]
        if v is None:
            fields.append("")
        elif isinstance(v, bool):
            fields.append("true" if v else "false")
        else:
            fields.append(str(v))
    return ",".join(fields)


class TestWarmSweepBytes:
    # Every branch the caches sit on: same-sign main (1.5, 0.5) and mixed
    # magnitude (3, 0.5); envelopes with a finite lower end (-0.9, 2) and
    # a vacuous one (-0.9, 0.5), each also swapped ((3, -0.5), (1.5,
    # -0.5)); rho = 0; |rho| = 1 with a +inf moment (-0.9, -0.5) and with
    # mismatched scales; and rows whose series raise ConvergenceError.
    ARGS = ["--alpha1=-0.9,1.5,3", "--alpha2=-0.5,0.5,2",
            "--rho", "0,0.5,-0.5,0.95,1", "--sigma1", "0.5,2",
            "--sigma2", "2"]
    CONFIG = SweepConfig(alpha1_values=(-0.9, 1.5, 3.0),
                         alpha2_values=(-0.5, 0.5, 2.0),
                         rho_values=(0.0, 0.5, -0.5, 0.95, 1.0),
                         sigma1_values=(0.5, 2.0), sigma2_values=(2.0,))

    @staticmethod
    def _fail_at_095(monkeypatch):
        """Series for alpha1 = 1.5 at rho^2 = 0.95^2 raise ConvergenceError."""
        for name in ("hyp2f1", "hyp2f1_minus_one"):
            summed = getattr(special, name)

            def patched(a, b, c, z, summed=summed):
                if a == -0.75 and z == 0.95 * 0.95:
                    raise ConvergenceError(f"patched at z = {z}")
                return summed(a, b, c, z)

            monkeypatch.setattr(special, name, patched)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_warm_sweep_writes_cold_bytes(self, fmt, tmp_path, monkeypatch,
                                          capsys, clear_caches):
        self._fail_at_095(monkeypatch)
        out_file = tmp_path / f"rows.{fmt}"
        code, _, _ = run_cli(["verify", *self.ARGS, "--jobs", "1",
                              "--format", fmt, "--output", str(out_file)],
                             capsys)
        assert code == 0
        assert moments.prefactor.cache_info().hits > 0

        cold = []
        for i, spec in enumerate(self.CONFIG.grid()):
            clear_caches()
            cold.append(evaluate_point(spec, i, 1e-9, OracleChoice.NONE,
                                       0, 0))
        lines = [_reference_line(row, fmt) for row in cold]
        if fmt == "csv":
            lines.insert(0, ",".join(CSV_COLUMNS))
        assert out_file.read_bytes() == "".join(
            line + "\n" for line in lines).encode()

        tags = {row.case_tag for row in cold}
        assert {"SameSignMain", "MixedMagnitude"} <= tags
        flags = [set(row.flags) for row in cold]
        assert any({"swapped", "vacuous-lower"} <= f for f in flags)
        assert any("swapped" in f and "vacuous-lower" not in f
                   and row.regime == "opposite-sign"
                   for f, row in zip(flags, cold))
        assert any(row.finite_lower and row.bound_upper is not None
                   and "swapped" not in f for f, row in zip(flags, cold))
        assert any(row.spec.rho == 0.0 and row.regime == "same-sign"
                   for row in cold)
        assert any(row.moment == math.inf for row in cold)
        assert any(any(x.startswith("error:ConvergenceError:") for x in f)
                   for f in flags)
        assert any(any(x.startswith("error:DomainError:") for x in f)
                   for f in flags)


class TestSerialization:
    def test_row_to_dict_is_the_per_field_mapping(self):
        rows = [evaluate_point(spec, i, 1e-9, OracleChoice.NONE, 0, 0)
                for i, spec in enumerate(TestWarmSweepBytes.CONFIG.grid())]
        base = rows[0]
        specials = (math.nan, math.inf, -math.inf, 0.0, -0.0, None)
        for k, value in enumerate(specials):
            rows.append(dataclasses.replace(
                base, moment=value, gap=specials[k - 1],
                bound_lower=specials[k - 2], bound_upper=value,
                slack=specials[k - 3], oracle_quad_value=value,
                oracle_quad_error=specials[k - 1],
                oracle_quad_dev=specials[k - 2], oracle_mc_value=value,
                oracle_mc_error=specials[k - 4],
                oracle_mc_dev=specials[k - 5], flags=("a", "b")))
        for row in rows:
            got, want = row_to_dict(row), _reference_dict(row)
            assert list(got.items()) == list(want.items())
            assert cli._json_line(got) == _reference_line(row, "json")
            assert ",".join(row_to_csv_fields(row)) == \
                _reference_line(row, "csv")
        assert {"nan", "+inf", "-inf"} <= {
            v for row in rows for v in row_to_dict(row).values()
            if isinstance(v, str)}

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
        # the child imports the package under test, installed or not
        env = dict(os.environ)
        src = str(Path(gaussgap.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "gaussgap", "moment", "--alpha1", "1",
             "--alpha2", "1", "--rho", "0"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "0.6366197724"
