"""Tests for the sweep machinery, report serialization, and the CLI."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussgap
from gaussgap import bounds, cli, moments, oracles, special, verify
from gaussgap.errors import ConvergenceError, DomainError
from gaussgap.types import MomentSpec
from gaussgap.verify import (CSV_COLUMNS, OracleChoice, ReportRow,
                             RowWriter, SweepConfig, evaluate_point,
                             row_cores, row_to_dict, run_sweep)

import reference_routes

REPO = Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_point(spec, index=0, config=SweepConfig()):
    """The row of ``spec`` as a one-point sweep at ``index``."""
    return evaluate_point(spec, index, config, row_cores([spec]))


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

    def test_rows_in_grid_order_under_parallelism(self, monkeypatch):
        # three workers whatever the host's core count
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        config = SweepConfig(alpha1_values=(0.5, 1.0, 2.0),
                             alpha2_values=(0.5, 1.0),
                             rho_values=(0.0, 0.25, 0.5),
                             sigma1_values=(1.0, 2.0), sigma2_values=(1.0,))
        serial, _ = run_sweep(config, jobs=1)
        parallel, _ = run_sweep(config, jobs=3)
        assert [r.index for r in parallel] == list(range(len(serial)))
        assert serial == parallel

    def test_cached_sweep_matches_cold_points(self):
        # three scales and both signs of each |rho| share every series key;
        # each cold point is a one-point sweep at its own index
        config = SweepConfig(alpha1_values=(-0.5, 1.0, 2.5),
                             alpha2_values=(-0.9, 1.5),
                             rho_values=(0.0, 0.5, -0.5, 0.95, -0.95),
                             sigma1_values=(0.5, 2.0),
                             sigma2_values=(1.0, 2.0))
        rows, _ = run_sweep(config, jobs=1)
        cold = [one_point(spec, i) for i, spec in enumerate(config.grid())]
        assert rows == cold

    def test_config_reaches_every_point(self):
        # Monte Carlo, which is not refused above -1/2: a cold point given
        # the sweep's config draws the sweep's samples from the seed of
        # the config's master seed and the point's own index
        config = SweepConfig(alpha1_values=(-0.1, 1.0, 2.5),
                             alpha2_values=(0.5, 1.5),
                             rho_values=(0.0, 0.5, -0.5, 0.95, -0.95),
                             sigma1_values=(0.5, 2.0),
                             sigma2_values=(1.0, 2.0),
                             oracle=OracleChoice.MONTE_CARLO,
                             mc_samples=1000, master_seed=99)
        rows, _ = run_sweep(config, jobs=1)
        cold = [one_point(spec, i, config)
                for i, spec in enumerate(config.grid())]
        assert rows == cold
        for i, (spec, row) in enumerate(zip(config.grid(), rows)):
            drawn = oracles.mc_product_moment(
                spec, oracles.McConfig(1000, oracles.derive_seed(99, i)))
            assert row.oracle_mc_value == drawn.value

    def test_pool_oserror_falls_back_with_one_notice(self, monkeypatch,
                                                     capsys):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
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

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (100_000, 4, 4), (3, 8, 3), (64, 64, 8), (4, 1, None),
        (4, None, None)])
    def test_pool_never_exceeds_points_or_cpus(self, jobs, cpus, workers,
                                               monkeypatch):
        # the pool forks all its workers at once; record, never start one
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = SweepConfig(alpha1_values=(-0.5, 2.0), alpha2_values=(1.0,),
                             rho_values=(0.0, 0.5), sigma1_values=(1.0,),
                             sigma2_values=(1.0, 2.0))
        rows, _ = run_sweep(config, jobs)
        assert started == ([] if workers is None else [workers])
        assert rows == run_sweep(config, 1)[0]

    def test_worker_fork_oserror_falls_back(self, monkeypatch, capsys):
        # the pool forks its workers inside pool.map, after it was created
        def no_fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
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

    @given(st.lists(st.tuples(st.booleans(), st.lists(st.sampled_from(
        ("error:DomainError:x", "error:ConvergenceError:y", "vacuous-lower",
         "oracle-quad-mismatch", "oracle-mc-outside-4se", "swapped",
         "oracle-mc-refused:DomainError")), max_size=4)), max_size=12))
    def test_summary_counts(self, drawn):
        rows = [ReportRow(i, *[None] * 12, satisfied, 0.0, *[None] * 6,
                          tuple(flags))
                for i, (satisfied, flags) in enumerate(drawn)]
        # the definitions, one pass each
        assert verify.summarize(rows) == {
            "checked": len(rows),
            "satisfied": sum(r.satisfied for r in rows),
            "violations": sum(1 for r in rows
                              if not r.satisfied and not r.errored),
            "vacuous_lower": sum(r.vacuous for r in rows),
            "errored": sum(r.errored for r in rows),
            "oracle_mismatches": sum(
                1 for r in rows
                if "oracle-quad-mismatch" in r.flags
                or "oracle-mc-outside-4se" in r.flags),
        }


def _written(rows, fmt, columns=CSV_COLUMNS):
    """What a ``RowWriter`` writes for ``rows``, one call a row."""
    stream = io.StringIO()
    writer = RowWriter(stream, fmt, columns)
    for row in rows:
        writer.write_rows([row])
    return stream.getvalue()


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
    raw = {
        "index": row.index,
        "sigma1": row.sigma1, "sigma2": row.sigma2,
        "alpha1": row.alpha1, "alpha2": row.alpha2, "rho": row.rho,
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
    # mismatched scales; rows whose prefactor overflows (exponent 400); and
    # rows whose series raise ConvergenceError.
    ARGS = ["--alpha1=-0.9,1.5,3,400", "--alpha2=-0.5,0.5,2,400",
            "--rho", "0,0.5,-0.5,0.95,1", "--sigma1", "0.5,2",
            "--sigma2", "2"]
    CONFIG = SweepConfig(alpha1_values=(-0.9, 1.5, 3.0, 400.0),
                         alpha2_values=(-0.5, 0.5, 2.0, 400.0),
                         rho_values=(0.0, 0.5, -0.5, 0.95, 1.0),
                         sigma1_values=(0.5, 2.0), sigma2_values=(2.0,))

    @staticmethod
    def _fail_at_095(monkeypatch):
        """Series for alpha1 = 1.5 at rho^2 = 0.95^2 end in
        ConvergenceError."""
        _failing_series(monkeypatch, lambda nums, dens, z, skip_first:
                        nums[0] == -0.75 and z == 0.95 * 0.95
                        and f"patched at z = {z}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_warm_sweep_writes_cold_bytes(self, fmt, tmp_path, monkeypatch,
                                          capsys):
        self._fail_at_095(monkeypatch)
        out_file = tmp_path / f"rows.{fmt}"
        code, _, _ = run_cli(["verify", *self.ARGS, "--jobs", "1",
                              "--format", fmt, "--output", str(out_file)],
                             capsys)
        assert code == 0

        cold = [one_point(spec, i)
                for i, spec in enumerate(self.CONFIG.grid())]
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
        assert any(row.rho == 0.0 and row.regime == "same-sign"
                   for row in cold)
        assert any(row.moment == math.inf for row in cold)
        assert any(any(x.startswith("error:ConvergenceError:") for x in f)
                   for f in flags)
        assert any(any(x.startswith("error:DomainError:") for x in f)
                   for f in flags)


# Exponents in (-1, 6], with 0 and the branch points 2 and 0.5, and some
# whose P overflows at unit scales (or a bound end, at scale 1e-3);
# correlations 0, tiny (squares that round to 0), 0.5 and 1, both signs.
_EXPONENTS = st.one_of(
    st.floats(-1.0, 6.0, exclude_min=True),
    st.sampled_from((0.0, -0.5, 0.5, 2.0, 3.0)),
    st.sampled_from((300.0, 400.5, 901.5)))
_SMALL_GRIDS = st.builds(
    lambda a1, a2, rho, s1, s2: SweepConfig(
        alpha1_values=tuple(a1), alpha2_values=tuple(a2),
        rho_values=tuple(rho), sigma1_values=tuple(s1),
        sigma2_values=tuple(s2)),
    st.lists(_EXPONENTS, min_size=1, max_size=3),
    st.lists(_EXPONENTS, min_size=1, max_size=3),
    st.lists(st.sampled_from((0.0, -0.0, 1e-162, -1e-162, 0.5, -0.5, 1.0,
                              -1.0)), min_size=1, max_size=4),
    st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=1, max_size=2),
    st.lists(st.sampled_from((1e-3, 1.0)), min_size=1, max_size=2))


class TestRowCore:
    """A chunk composes each row's core once per (sigma1, sigma2, alpha1,
    alpha2, |rho|), and every row is still the row of the reference
    composition of one point (``reference_routes.point_row``)."""

    # Both zeros; the smallest subnormal and both signs of 1.5e-162, whose
    # squares are both 0 while a1 a2 rho rho of the default grid's 4.5 is
    # not; both signs of 0.5 and 1.  alpha = 200 overflows P, alpha = 0 is
    # trivial.
    ARGS = ["--alpha1=0,1.5,4.5,200", "--alpha2=-0.5,3,4.5,200",
            "--rho=0,-0.0,5e-324,1.5e-162,-1.5e-162,0.5,-0.5,1,-1",
            "--sigma1=0.5,2", "--sigma2=1"]
    CONFIG = SweepConfig(alpha1_values=(0.0, 1.5, 4.5, 200.0),
                         alpha2_values=(-0.5, 3.0, 4.5, 200.0),
                         rho_values=(0.0, -0.0, 5e-324, 1.5e-162, -1.5e-162,
                                     0.5, -0.5, 1.0, -1.0),
                         sigma1_values=(0.5, 2.0), sigma2_values=(1.0,))

    def test_rows_are_the_point_calls(self, monkeypatch):
        # one bound test per core, through verify's own bounds
        composed = []

        def counting(*args):
            composed.append(args)
            return bounds.check_gap(*args)

        monkeypatch.setattr(verify, "bounds_mod", SimpleNamespace(
            **{**vars(bounds), "check_gap": counting}))
        grid = self.CONFIG.grid()
        rows, _ = run_sweep(self.CONFIG, jobs=1)
        # repr, so that -0.0 and nan count
        assert [repr(r) for r in rows] == [
            repr(reference_routes.point_row(spec, i))
            for i, spec in enumerate(grid)]
        # -0.0 shares the core of 0.0 and -rho that of rho
        assert len(composed) == len(grid) * 5 // 9
        # the tiny correlations keep their own bound ends
        tiny = {r.rho: r.bound_lower for r in rows
                if (r.sigma1, r.alpha1, r.alpha2) == (0.5, 4.5, 4.5)}
        assert tiny[5e-324] == 0.0 < tiny[1.5e-162] == tiny[-1.5e-162]
        regimes = {r.regime for r in rows}
        assert regimes == {"trivial", "same-sign", "opposite-sign", "error"}
        assert any(r.gap == 0.0 and r.regime == "error" for r in rows)
        assert any(math.isnan(r.gap) for r in rows)

    def test_core_values_are_python_types(self):
        allowed = (float, bool, str, type(None), tuple)
        for core in row_cores(self.CONFIG.grid()).values():
            for value in core:
                assert type(value) in allowed, (value, core)
            for flag in core[-1]:
                assert type(flag) is str

    def test_moment_fails_after_a_finite_value(self, monkeypatch):
        # P * F is finite but P times F's truncation bound overflows: the
        # moment fails on its error estimate, after its value, while the
        # gap P * (F - 1) and its verdict stand
        monkeypatch.setattr(moments, "series_factors", lambda keys: [
            special.SeriesResult(1.0, 3, 1e308, False)] * len(keys))
        spec = MomentSpec(math.sqrt(10.0), 1.0, 2.0, 2.0, 0.5)
        assert moments.product_of_marginals(spec) == pytest.approx(10.0)
        with pytest.raises(DomainError) as info:
            moments.product_moment(spec)
        assert str(info.value) == "P * 1e+308 overflows float64"
        (row,), _ = run_sweep(SweepConfig(
            alpha1_values=(2.0,), alpha2_values=(2.0,), rho_values=(0.5,),
            sigma1_values=(spec.sigma1,), sigma2_values=(1.0,)), jobs=1)
        assert row.moment is None
        assert row.flags == ("error:DomainError:P * 1e+308 overflows float64",)
        report = bounds.check_point(spec)
        assert (row.gap, row.regime, row.satisfied, row.slack) == (
            report.gap, "same-sign", True, report.slack)
        assert row.gap == pytest.approx(10.0)
        assert repr(row) == repr(reference_routes.point_row(spec, 0))

    @settings(max_examples=40, deadline=None)
    @given(_SMALL_GRIDS, st.integers(1, 5))
    # errors of P, of P * F, of a bound end and of a certified cap, beside
    # trivial and swapped rows; then vacuous-lower and gap-infinite ones
    @example(SweepConfig(alpha1_values=(0.0, -0.1, 3.0, 300.0, 300.5),
                         alpha2_values=(-0.5, -0.1, 3.0, 611.5),
                         rho_values=(0.0, 0.5, -0.99999999, 1.0),
                         sigma1_values=(1.0,), sigma2_values=(1e-3, 1.0)),
             7)
    @example(SweepConfig(alpha1_values=(-0.9, 0.5), alpha2_values=(-0.5, 0.25),
                         rho_values=(0.0, 0.5, -1.0), sigma1_values=(0.5,),
                         sigma2_values=(1e-3, 1.0)), 2)
    def test_sweep_whole_and_in_chunks_is_the_reference_row(self, config,
                                                            size):
        grid = config.grid()
        want = [repr(reference_routes.point_row(spec, i))
                for i, spec in enumerate(grid)]
        rows, _ = run_sweep(config, jobs=1, grid=grid)
        assert [repr(r) for r in rows] == want
        # the same grid split into chunks of ``size`` points
        split = [row for start in range(0, len(grid), size)
                 for row in verify._evaluate_chunk(grid[start:start + size],
                                                   start, config)]
        assert [repr(r) for r in split] == want

    @pytest.mark.parametrize("oracle", ["none", "mc"])
    def test_same_bytes_across_jobs(self, oracle, tmp_path, capsys):
        written = []
        for jobs in ("1", "2"):
            out_file = tmp_path / f"rows-{jobs}.jsonl"
            code, _, _ = run_cli(["verify", *self.ARGS, "--oracle", oracle,
                                  "--mc-samples", "1000", "--jobs", jobs,
                                  "--output", str(out_file)], capsys)
            assert code == 0
            written.append(out_file.read_bytes())
        assert written[0] == written[1]
        if oracle == "mc":
            assert b'"oracle_mc_value":null' in written[0]
            assert b'"oracle_mc_value":0' in written[0]


class TestSerialization:
    def test_row_to_dict_is_the_per_field_mapping(self):
        rows = [one_point(spec, i) for i, spec
                in enumerate(TestWarmSweepBytes.CONFIG.grid())]
        base = rows[0]
        specials = (math.nan, math.inf, -math.inf, 0.0, -0.0, None)
        for k, value in enumerate(specials):
            rows.append(base._replace(
                moment=value, gap=specials[k - 1],
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
        assert _written(rows, "json") == "".join(
            _reference_line(row, "json") + "\n" for row in rows)
        assert _written(rows, "csv").splitlines()[1:] == [
            _reference_line(row, "csv") for row in rows]
        assert {"nan", "+inf", "-inf"} <= {
            v for row in rows for v in row_to_dict(row).values()
            if isinstance(v, str)}

    def test_json_row_has_all_fields(self):
        row = one_point(MomentSpec(1, 1, 1, 1, 0.5), 3)
        d = row_to_dict(row)
        assert set(d) == set(CSV_COLUMNS)
        assert d["oracle_quad_value"] is None  # explicit null, not omitted
        json.dumps(d)  # must be serializable as-is

    def test_infinities_serialize_as_strings(self):
        row = one_point(MomentSpec(1, 1, -0.9, 0.05, 0.5))
        d = row_to_dict(row)
        assert d["bound_lower"] == "-inf"
        text = json.dumps(d)
        assert "Infinity" not in text

    def test_csv_fields_align_with_header(self):
        row = one_point(MomentSpec(1, 1, -0.5, 2, 0.5), 1)
        header, fields = csv.reader(io.StringIO(_written([row], "csv")))
        assert header == list(CSV_COLUMNS)
        assert len(fields) == len(CSV_COLUMNS)


# Values whose text is easy to confuse: equal numbers of three types,
# both zeros, the smallest subnormal and the non-finite floats.
_TRICKY = (True, 1, 1.0, False, 0, 0.0, -0.0, 5e-324, -5e-324, math.nan,
           math.inf, -math.inf, None, 0.1, "x")
# No NUL, which csv.reader refuses; the JSON example below has one.
_TEXT = st.text(st.characters(exclude_characters="\x00",
                              exclude_categories=("Cs",)), max_size=12)
_VALUE = st.one_of(st.sampled_from(_TRICKY), st.none(), st.booleans(),
                   st.integers(-2 ** 70, 2 ** 70), st.floats(), _TEXT)
_FLAGS = st.lists(st.one_of(
    st.sampled_from(('say "hi"', "back\\slash", "tab\tend", "a,b",
                     "l\u00e4uft", "line\nbreak", "cr\rlf", "\u2603", "\x1f",
                     "swapped")),
    _TEXT), max_size=3).map(tuple)
_ROWS = st.lists(st.builds(ReportRow, *[_VALUE] * (len(CSV_COLUMNS) - 1),
                           _FLAGS),
                 min_size=1, max_size=6)


def _csv_reference_cell(value) -> str:
    value = verify._jsonable(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


def _csv_cell_by_rule(value) -> str:
    """A CSV cell by the general rule of ``verify._csv_text``, which its
    int and float path must match: the reference cell, quoted where it
    holds a comma, a quote or a line break."""
    text = _csv_reference_cell(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Values that are equal keys with different texts, and an unhashable one.
_MIXED = (True, 1, 1.0, 0.0, -0.0, math.nan, ["u", "v"])


@st.composite
def _batches(draw):
    """Rows, one column of which holds only ``_MIXED`` values, grouped into
    the calls of one writer: a row alone for ``write``, a list for
    ``write_rows``."""
    name = draw(st.sampled_from(CSV_COLUMNS))
    row = st.builds(ReportRow, *[_VALUE] * (len(CSV_COLUMNS) - 1), _FLAGS)
    row = st.tuples(row, st.sampled_from(_MIXED)).map(
        lambda pair: pair[0]._replace(**{name: pair[1]}))
    return draw(st.lists(st.one_of(row, st.lists(row, max_size=7)),
                         min_size=1, max_size=6))


class TestRowWriter:
    ENCODER = json.JSONEncoder(separators=(",", ":"))

    @given(_ROWS)
    @example([ReportRow(*_TRICKY[:14], -0.0, *_TRICKY[9:15],
                        ('q"\\', "\x00\x07", "\u00e9t\u00e9"))])
    @example([ReportRow(*[0.0] * 21, (0.0,)),
              ReportRow(*[-0.0] * 21, (-0.0,))])
    def test_json_is_the_encoder_of_row_to_dict(self, rows):
        # one writer for all rows, so a value's stored text is reused
        assert _written(rows, "json") == "".join(
            self.ENCODER.encode(row_to_dict(row)) + "\n" for row in rows)

    @given(_ROWS)
    def test_csv_reads_back_as_the_cells(self, rows):
        text = _written(rows, "csv")
        header, *cells = csv.reader(io.StringIO(text))
        assert header == list(CSV_COLUMNS)
        assert cells == [[_csv_reference_cell(v) for v in row]
                         for row in rows]

    @given(st.one_of(_VALUE, _FLAGS, st.sampled_from(
        ('a,b', 'say "hi"', "line\nbreak", "cr\rlf", "1,5", "-0.0"))))
    @example(-0.0)
    @example(-math.inf)
    @example(-5e-324)
    @example(2.2250738585072014e-308)
    def test_csv_cell_keeps_the_rule(self, value):
        assert verify._csv_text(value) == _csv_cell_by_rule(value)

    @given(_batches(), st.sampled_from(["json", "csv"]),
           st.lists(st.sampled_from(CSV_COLUMNS), min_size=1, unique=True))
    def test_chunks_and_calls_keep_the_bytes(self, batches, fmt, columns):
        # chunks of 3 rows: a value's text stored from one chunk or call is
        # served in later ones only for a value of its own type
        stream = io.StringIO()
        with mock.patch.object(verify, "WRITE_CHUNK", 3):
            writer = RowWriter(stream, fmt, tuple(columns))
            for batch in batches:
                writer.write_rows(batch if isinstance(batch, list)
                                  else [batch])
        rows = [row for batch in batches
                for row in (batch if isinstance(batch, list) else [batch])]
        if fmt == "json":
            assert stream.getvalue() == "".join(
                self.ENCODER.encode(row_to_dict(row)) + "\n" for row in rows)
            return
        header, *cells = csv.reader(io.StringIO(stream.getvalue()))
        assert header == columns
        # a line of one empty cell reads back as no cell
        assert [line or [""] for line in cells] == [
            [_csv_reference_cell(getattr(row, col)) for col in columns]
            for row in rows]

    def test_chosen_columns(self):
        row = one_point(MomentSpec(1, 1, -0.5, 2, 0.5), 1)
        text = _written([row, row], "csv", ("gap", "rho", "flags"))
        assert text.splitlines() == ["gap,rho,flags"] + [
            f"{row.gap!r},0.5,"] * 2

    def test_comma_in_a_flag_is_quoted(self, tmp_path, capsys):
        # the only row errors with "closed-form bound for exponents
        # (-0.9, 300.0) overflows ..."
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_cli(["verify", "--alpha1=-0.9", "--alpha2", "300",
                              "--rho", "0.3", "--sigma1", "1", "--sigma2", "1",
                              "--jobs", "1", "--format", "csv",
                              "--output", str(out_file)], capsys)
        assert code == 2
        header, row = csv.reader(io.StringIO(out_file.read_text()))
        assert len(header) == len(row) == len(CSV_COLUMNS)
        flags = row[CSV_COLUMNS.index("flags")]
        assert flags.startswith("error:DomainError:closed-form bound for "
                                "exponents (-0.9, 300.0) overflows")
        assert out_file.read_text().endswith(f'"{flags}"\n')


def test_failed_key_sums_once_before_any_row(monkeypatch):
    # near rho = 1 the sum needs far more than 5,000 terms
    monkeypatch.setattr(special, "MAX_TERMS", 5_000)
    batches = []
    summed = special._sum_pfq

    def counting(series):
        batches.append(series)
        return summed(series)

    monkeypatch.setattr(special, "_sum_pfq", counting)
    specs = [MomentSpec(s1, 1, -0.3, -0.2, 0.999) for s1 in (0.5, 2.0)]
    cores = row_cores(specs)
    # one sum per key, in one batch, before any row
    z = 0.999 * 0.999
    assert batches == [[((0.15, 0.1), (0.5,), z, True),
                        ((0.15, 0.1), (0.5,), z, False)]]
    rows = [evaluate_point(spec, i, SweepConfig(), cores)
            for i, spec in enumerate(specs)]
    assert len(batches) == 1
    for row in rows:
        assert [f.split(":")[1] for f in row.flags] == [
            "ConvergenceError"] * 2


def test_failed_scale_rows_report_their_errors():
    # the row at rho = 0 reads the bound factors though P failed, and they
    # fail on their own
    specs = [MomentSpec(1, 1, 200, 200, 0.5), MomentSpec(1, 1, 200, 200, 0.0)]
    cores = row_cores(specs)
    rows = [evaluate_point(spec, 0, SweepConfig(), cores) for spec in specs]
    p, factors = [pytest.raises(DomainError, fn, specs[0]).value
                  for fn in (moments.product_of_marginals,
                             bounds.bound_factors)]
    assert str(factors) != str(p)
    assert rows[0].flags == (f"error:DomainError:{p}",) * 2
    assert rows[1].flags == (f"error:DomainError:{factors}",
                             f"error:DomainError:{p}")


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

    def test_degenerate_unequal_scales(self, capsys):
        # X2 = 2 X1, so E[|X1| |X2|] = 2 E[X1^2] = 2
        code, out, _ = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "1", "--sigma1", "1", "--sigma2", "2"],
                               capsys)
        assert code == 0
        assert out.splitlines()[0] == "2"
        assert json.loads(out.splitlines()[1]) == {
            "value": 2.0, "method": "series", "error_estimate": 0.0}

    def test_invalid_alpha(self, capsys):
        code, _, err = run_cli(["moment", "--alpha1", "-1.5", "--alpha2", "1",
                                "--rho", "0"], capsys)
        assert code == 2

    def test_convergence_failure_exit(self, capsys, monkeypatch):
        emitted = []
        emit = cli._emit_error
        monkeypatch.setattr(cli, "_emit_error",
                            lambda exc: emitted.append(exc) or emit(exc))
        code, _, err = run_cli(["moment", "--alpha1", "-0.3", "--alpha2",
                                "-0.2", "--rho", "0.999999999"], capsys)
        assert code == 3
        assert json.loads(err.splitlines()[-1])["error"] == "ConvergenceError"
        # the series was certified to reach its cap, not summed to it
        assert [exc.partial_value for exc in emitted] == [None]

    def test_degenerate_series_route(self, capsys):
        code, out, _ = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "1"], capsys)
        assert code == 0
        assert abs(json.loads(out.splitlines()[1])["value"] - 1.0) < 1e-12

    def test_oversized_mc_count_exits_two(self, capsys):
        code, out, err = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                  "--rho", "0.5", "--method", "mc",
                                  f"--mc-samples={2 ** 62}", "--seed", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("method", ["series", "quadrature", "mc"])
    def test_out_of_range_seed_exits_two(self, capsys, method, seed):
        code, out, err = run_cli(["moment", "--alpha1", "1", "--alpha2", "1",
                                  "--rho", "0.5", "--method", method,
                                  f"--seed={seed}"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestCliGap:
    @pytest.mark.parametrize("point, flag", [
        (["--alpha1=1", "--alpha2=1", "--rho=0.5"], None),
        (["--alpha1=3", "--alpha2=-0.5", "--rho=0.75"], "swapped"),
        (["--alpha1=200", "--alpha2=200", "--rho=0.5"], "error:DomainError:")])
    def test_json_line_is_the_verify_row(self, point, flag, tmp_path,
                                         capsys):
        # a same-sign point, a swapped opposite-sign one and one whose
        # every column errors
        point += ["--sigma1=0.5", "--sigma2=2"]
        gap_code, out, _ = run_cli(["gap", *point], capsys)
        out_file = tmp_path / "row.jsonl"
        verify_code, _, _ = run_cli(["verify", *point, "--jobs=1",
                                     "--output", str(out_file)], capsys)
        line = out_file.read_text()
        assert out.splitlines(keepends=True)[-1] == line
        assert gap_code == verify_code
        flags = json.loads(line)["flags"]
        if flag is None:
            assert flags == []
        else:
            assert flags and all(f.startswith(flag) for f in flags)

    def test_tiny_correlation_gap_is_the_leading_term(self, capsys):
        # z = rho^2 = 1.44e-310 is subnormal, and z a1/2 rounds below the
        # least precise size, while z a1 a2 / 2 = 2.88e-308 is normal: the
        # first term of F - 1 is taken as (a b / c) z.  The next term
        # underflows, so the gap is P z a1 a2 / 2.
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_cli(["gap", "--alpha1", "20", "--alpha2", "20",
                                "--rho", "1.2e-155", "--sigma1", "1",
                                "--sigma2", "1"], capsys)
        assert code == 0
        got = json.loads(out.splitlines()[-1])["gap"]
        with mpmath.workdps(40):
            rho = mpmath.mpf(1.2e-155)
            p = mpmath.mpf(2) ** 20 * mpmath.gamma(10.5) ** 2 / mpmath.pi
            want = p * rho ** 2 * 20 * 20 / 2
            assert float(abs((got - want) / want)) < 1e-13

    def test_report_fields(self, capsys):
        code, out, _ = run_cli(["gap", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "0.5"], capsys)
        assert code == 0
        record = json.loads(out.splitlines()[-1])
        assert record["satisfied"] is True
        assert record["regime"] == "same-sign"
        assert abs(record["gap"] - 0.08137578972087737) < 1e-12

    def test_overflow_exits_two_without_traceback(self, capsys):
        # the same exit code as `moment` at the same point
        code, out, err = run_cli(["gap", "--alpha1", "200", "--alpha2", "200",
                                  "--rho", "0.5"], capsys)
        assert code == 2
        record = json.loads(out.splitlines()[-1])
        assert record["regime"] == "error"
        assert record["flags"][0].startswith("error:DomainError:")
        assert "Traceback" not in err

    def test_overflowing_bound_end_exits_two(self, capsys):
        # the gap (-2.31e307) is finite, the envelope coefficient is not:
        # an error, not a violation
        code, out, _ = run_cli(["gap", "--alpha1=-0.5", "--alpha2", "200",
                                "--sigma2", "4", "--rho", "0.5"], capsys)
        assert code == 2
        record = json.loads(out.splitlines()[-1])
        assert record["regime"] == "error"
        assert record["gap"] == pytest.approx(-2.3096023886318295e307)
        assert record["flags"][0].startswith("error:DomainError:")

    def test_convergence_error_exits_three(self, capsys, monkeypatch):
        _failing_series(monkeypatch, lambda nums, dens, z, skip_first:
                        skip_first and "patched")
        code, out, _ = run_cli(["gap", "--alpha1", "1", "--alpha2", "1",
                                "--rho", "0.5"], capsys)
        assert code == 3
        record = json.loads(out.splitlines()[-1])
        assert record["flags"][0] == "error:ConvergenceError:patched"

    @pytest.mark.parametrize("rho", ["1", "-1"])
    def test_degenerate_overflow_exits_two(self, rho, capsys):
        # the Gamma ratio of F(.; 1) overflows before the prefactor does
        code, out, err = run_cli(["gap", "--alpha1", "2000.5", "--alpha2",
                                  "2000.5", f"--rho={rho}"], capsys)
        assert code == 2
        record = json.loads(out.splitlines()[-1])
        assert record["regime"] == "error"
        assert all(f.startswith("error:DomainError:")
                   for f in record["flags"])
        assert "Traceback" not in err

    @pytest.mark.parametrize("rho", ["0.9", "1"])
    def test_series_overflow_exits_two(self, rho, capsys):
        code, out, err = run_cli(["gap", "--alpha1", "1501", "--alpha2",
                                  "1501", "--sigma1", "1e-3", "--sigma2",
                                  "1e-3", "--rho", rho], capsys)
        assert code == 2
        record = json.loads(out.splitlines()[-1])
        assert all(f.startswith("error:DomainError:")
                   for f in record["flags"])
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

    def test_default_grid_matches_committed_reference(self, tmp_path, capsys):
        # the benchmark's default-grid reference: sha256 and summary counts
        expected = json.loads(
            (REPO / "benchmarks" / "reference" / "expected.json").read_text()
        )["default-grid"]
        out_file = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(["verify", "--jobs", "1",
                                "--output", str(out_file)], capsys)
        assert code == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == expected["sha256"]
        counts = dict(field.split("=") for field in out.split())
        assert {k: int(v) for k, v in counts.items()} == expected["summary"]

    def test_default_grid_pool_matches_committed_reference(
            self, tmp_path, capsys, monkeypatch):
        # two workers whatever the host's core count; each chunk of the
        # grid has row cores of its own
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        expected = json.loads(
            (REPO / "benchmarks" / "reference" / "expected.json").read_text()
        )["default-grid"]
        out_file = tmp_path / "rows.jsonl"
        code, _, err = run_cli(["verify", "--jobs", "2",
                                "--output", str(out_file)], capsys)
        assert code == 0
        assert err == ""  # no fallback notice: the pool ran
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == expected["sha256"]

    def test_partly_errored_exits_zero(self, capsys):
        code, _, err = run_cli(["verify", "--alpha1", "1,200", "--alpha2",
                                "200", "--rho", "0.5", "--sigma1", "1",
                                "--sigma2", "1", "--jobs", "1"], capsys)
        assert code == 0
        assert "checked=2 " in err and "errored=1 " in err

    @pytest.mark.parametrize("jobs", ["-3", "-1", "two"])
    def test_bad_jobs_exits_two(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_float_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--alpha1", "1,zebra"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("arg", ["--rho=0,,0.5", "--rho=0.5,"])
    def test_empty_token_in_list_exits_two(self, arg):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", arg, "--jobs", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("oracle,samples", [("mc", "999"), ("both", "0")])
    def test_too_few_mc_samples_exits_two(self, oracle, samples, capsys):
        code, out, err = run_cli(["verify", "--alpha1", "1", "--alpha2", "1",
                                  "--rho", "0.5", "--oracle", oracle,
                                  "--mc-samples", samples, "--jobs", "1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "DomainError"
        # without Monte Carlo the sample count is not read
        SweepConfig(oracle=OracleChoice.QUADRATURE, mc_samples=0)

    @pytest.mark.parametrize("samples", [1e4, 1000.0, True])
    def test_non_integral_mc_samples_refused(self, samples):
        with pytest.raises(DomainError, match="mc_samples must be an integer"):
            SweepConfig(oracle=OracleChoice.MONTE_CARLO, mc_samples=samples)

    def test_oversized_mc_count_flags_the_row(self):
        config = SweepConfig(oracle=OracleChoice.MONTE_CARLO,
                             mc_samples=2 ** 62)
        rows, summary = run_sweep(config, 1, [MomentSpec(1, 1, 1, 1, 0.5)])
        assert rows[0].flags == ("oracle-mc-refused:DomainError",)
        assert rows[0].oracle_mc_value is None
        assert summary["errored"] == 0

    @pytest.mark.parametrize("arg", ["--rho=", "--alpha1=-3"])
    def test_empty_or_out_of_range_list_exits_two(self, arg, capsys):
        code, out, err = run_cli(["verify", arg, "--jobs", "1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1])["error"] == "DomainError"

    @pytest.mark.parametrize("command", ["gap", "verify"])
    def test_no_tolerance_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert "--tolerance" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--alpha1", "1", "--alpha2", "1", "--rho",
                      "0.5", "--tolerance", "1e-9"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha1=1", "--alpha2=1", "--rho=0.5", "--jobs=1"],
    ["curve", "--alpha1=1", "--alpha2=1", "--rho-count=3"]])
def test_unopenable_output_exits_two(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    code, out, err = run_cli([*argv, "--output", str(missing / "x")], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--jobs=1"],
    ["curve", "--alpha1=1", "--alpha2=1", "--rho-count=3"]])
def test_unopenable_output_exits_before_the_sweep(argv, monkeypatch, capsys):
    calls = []
    evaluate = verify.evaluate_point
    monkeypatch.setattr(verify, "evaluate_point",
                        lambda *args: calls.append(args) or evaluate(*args))
    code, _, err = run_cli([*argv, "--output", "/nonexistent/x.jsonl"],
                           capsys)
    assert code == 2
    assert json.loads(err)["error"] == "DomainError"
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha1=-3", "--jobs=1"],
    ["verify", "--rho=1.5", "--jobs=1"],
    ["verify", "--seed=-1", "--jobs=1"],
    ["verify", "--seed=18446744073709551616", "--jobs=1"],
    ["curve", "--alpha1=1", "--alpha2=1", "--rho-count=1"],
    ["curve", "--alpha1=1", "--alpha2=1", "--sigma1=0"]])
def test_invalid_arguments_create_no_output(argv, tmp_path, capsys):
    out_file = tmp_path / "x"
    code, _, err = run_cli([*argv, "--output", str(out_file)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "DomainError"
    assert not out_file.exists()


def _failing_series(monkeypatch, message):
    """Rows of the ``special._sum_pfq`` batches for which
    ``message(nums, dens, z, skip_first)`` gives a message end in a
    ConvergenceError with it."""
    summed = special._sum_pfq

    def patched(series):
        return [ConvergenceError(text) if (text := message(*row)) else result
                for row, result in zip(series, summed(series))]

    monkeypatch.setattr(special, "_sum_pfq", patched)


def _series_fail_from(monkeypatch, z_min):
    """Both series end in ConvergenceError at z >= z_min."""
    _failing_series(monkeypatch, lambda nums, dens, z, skip_first:
                    z >= z_min and f"patched at z = {z}")


class TestExitCodes:
    """`gap`, `curve` and `verify` share one exit rule, `cli._exit_code`."""

    ARGV = {"gap": ["gap", "--rho=0.5"],
            "curve": ["curve", "--rho-count=3"],
            "verify": ["verify", "--rho=0,0.5", "--sigma1=1", "--sigma2=1",
                       "--jobs=1"]}

    def _run(self, command, alpha, capsys):
        code, _, err = run_cli([*self.ARGV[command], f"--alpha1={alpha}",
                                f"--alpha2={alpha}"], capsys)
        return code, err

    @pytest.mark.parametrize("command", ["gap", "curve", "verify"])
    def test_every_row_domain_error_exits_two(self, command, capsys):
        code, err = self._run(command, 200, capsys)
        assert code == 2
        if command == "verify":
            assert "checked=2 " in err and "errored=2 " in err

    @pytest.mark.parametrize("command", ["gap", "curve", "verify"])
    def test_every_row_convergence_error_exits_three(self, command, capsys,
                                                     monkeypatch):
        _series_fail_from(monkeypatch, 0.0)
        assert self._run(command, 1, capsys)[0] == 3

    @pytest.mark.parametrize("command", ["curve", "verify"])
    def test_some_rows_errored_exits_zero(self, command, capsys,
                                          monkeypatch):
        # rho = 0 sums at z = 0; every other correlation fails
        _series_fail_from(monkeypatch, 0.1)
        assert self._run(command, 1, capsys)[0] == 0

    @pytest.mark.parametrize("command", ["gap", "curve", "verify"])
    def test_violation_exits_one(self, command, capsys, monkeypatch):
        # every row's gap is P * (F - 1) composed by moments.scaled
        monkeypatch.setattr(moments, "scaled", lambda p, factor: -1.0)
        assert self._run(command, 1, capsys)[0] == 1


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

    @pytest.mark.parametrize("alphas", [(2, 2), (-0.5, 3), (-0.9, 0.05),
                                        (200, 200)])
    def test_rows_are_verify_columns(self, alphas, capsys):
        spec_args = [f"--alpha1={alphas[0]}", f"--alpha2={alphas[1]}",
                     "--sigma1=0.5", "--sigma2=2"]
        _, curve_out, _ = run_cli(["curve", *spec_args, "--rho-count=5"],
                                  capsys)
        rhos = ",".join(repr(0.99 * i / 4) for i in range(5))
        _, verify_out, _ = run_cli(["verify", *spec_args, f"--rho={rhos}",
                                    "--jobs=1", "--format=csv"], capsys)
        # flags, the only column that may hold a comma, is the last one
        header, *rows = [line.split(",") for line in verify_out.splitlines()]
        columns = ["rho", "gap", "bound_lower", "bound_upper"]
        picks = [header.index(col) for col in columns]
        assert curve_out.splitlines() == [",".join(columns)] + [
            ",".join(row[i] for i in picks) for row in rows]


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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_exits_two(self, seed, capsys):
        code, out, err = run_cli(["selftest", f"--seed={seed}"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

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
