"""The domain contract: on the whole documented domain, every entry point
returns a value or raises a ``GaussGapError``, and leaks no other
exception and no numpy warning; ``gaussgap gap`` exits 0 to 3.

Scales lie in [1e-3, 1e3], exponents in (-1, 400] with 0 and 2 drawn
often, and correlations in [-0.99, 0.99] with 0 and +-1 drawn often.
Exponents in the hundreds overflow the prefactor and the Monte Carlo
samples, which must surface as ``DomainError``.  Exponents in (1e3, 1e4)
at |rho| = 1 can overflow F(.; 1) before the prefactor: the Gamma ratio,
or for even integers the Chu-Vandermonde product.  That must surface as
``DomainError`` too, and the moment and the gap, finite there since
a1 + a2 > -1, must never come back as inf.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import gaussgap
from gaussgap import bounds, cli, moments, oracles, verify
from gaussgap.errors import DomainError, GaussGapError
from gaussgap.types import MomentSpec

SIGMAS = st.floats(1e-3, 1e3)
ALPHAS = st.one_of(st.floats(-1.0, 400.0, exclude_min=True),
                   st.sampled_from((0.0, 2.0)))
RHOS = st.one_of(st.floats(-0.99, 0.99), st.sampled_from((0.0, 1.0, -1.0)))


@st.composite
def specs(draw):
    return MomentSpec(draw(SIGMAS), draw(SIGMAS), draw(ALPHAS), draw(ALPHAS),
                      draw(RHOS))


@st.composite
def large_degenerate_specs(draw):
    alphas = st.one_of(
        st.floats(1e3, 1e4, exclude_min=True, exclude_max=True),
        st.integers(500, 4999).map(lambda k: 2.0 * k),
        st.sampled_from((1000.0, 2000.0)))
    return MomentSpec(draw(SIGMAS), draw(SIGMAS), draw(alphas), draw(alphas),
                      draw(st.sampled_from((1.0, -1.0))))


def one_point_row(spec):
    """``verify.evaluate_point`` on ``spec`` as a one-point sweep."""
    return verify.evaluate_point(spec, 0, verify.SweepConfig(),
                                 verify.row_cores([spec]))


def returns_or_raises_library_error(call, spec):
    """Call ``call(spec)`` with every warning an error and return its value;
    a ``GaussGapError`` counts as a documented outcome and gives None,
    anything else fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(spec)
        except GaussGapError:
            return None


@given(specs())
def test_gap(spec):
    returns_or_raises_library_error(moments.gap, spec)


@given(specs())
def test_product_moment(spec):
    returns_or_raises_library_error(moments.product_moment, spec)


@given(specs())
def test_check_point(spec):
    returns_or_raises_library_error(bounds.check_point, spec)


@given(specs())
def test_evaluate_point(spec):
    returns_or_raises_library_error(one_point_row, spec)


@given(specs())
def test_mc_product_moment(spec):
    assume(min(spec.alpha1, spec.alpha2) > -0.5)
    returns_or_raises_library_error(
        lambda s: oracles.mc_product_moment(s, oracles.McConfig(1000, 1)),
        spec)


@pytest.mark.parametrize("call", [
    moments.gap, bounds.check_point, one_point_row],
    ids=["gap", "check_point", "evaluate_point"])
@given(large_degenerate_specs())
def test_large_degenerate_exponents(call, spec):
    returns_or_raises_library_error(call, spec)


@pytest.mark.parametrize("call", [
    moments.gap, lambda s: moments.product_moment(s).value],
    ids=["gap", "product_moment"])
@given(large_degenerate_specs())
# (1000.5)_500 / (0.5)_500, about 3e414, while P underflows to 0
@example(MomentSpec(1e-3, 1e-3, 2000.0, 1000.0, 1.0))
def test_large_degenerate_values_are_finite(call, spec):
    value = returns_or_raises_library_error(call, spec)
    assert value is None or math.isfinite(value)


@given(st.one_of(specs(), large_degenerate_specs()))
def test_cli_gap_exit_code(spec):
    argv = ["gap"] + [f"--{name}={getattr(spec, name)!r}" for name in
                      ("sigma1", "sigma2", "alpha1", "alpha2", "rho")]
    with (warnings.catch_warnings(),
          contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        warnings.simplefilter("error")
        assert cli.main(argv) in {0, 1, 2, 3}


# log Gamma((alpha + 1) / 2) overflows float64 for alpha above about 5e305
HUGE = MomentSpec(1, 1, 1e308, 1, 0.5)
LGAMMA_FLAG = "error:DomainError:lgamma(5e+307) overflows float64"


@pytest.mark.parametrize("call", [moments.gap, moments.product_moment,
                                  moments.product_of_marginals,
                                  bounds.bound_factors,
                                  lambda s: moments.abs_moment_1d(1.0, 1e308)],
                         ids=["gap", "product_moment", "product_of_marginals",
                              "bound_factors", "abs_moment_1d"])
def test_huge_exponent_raises_domain_error(call):
    with pytest.raises(DomainError, match="lgamma.*overflows float64"):
        call(HUGE)


@pytest.mark.parametrize("call", [bounds.check_point,
                                  one_point_row],
                         ids=["check_point", "evaluate_point"])
def test_huge_exponent_is_an_error_row(call):
    report = call(HUGE)
    assert report.regime == "error"
    assert report.flags[0].startswith(LGAMMA_FLAG)


def _run_gap(*args, timeout=120):
    """``python -m gaussgap gap`` in a child that imports the package under
    test, installed or not; killed after ``timeout`` seconds."""
    env = dict(os.environ)
    src = str(Path(gaussgap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gaussgap", "gap",
                           "--sigma1", "1", "--sigma2", "1", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_cli_gap_huge_exponent_exits_two():
    proc = _run_gap("--alpha1", "1e308", "--alpha2", "1", "--rho", "0.5")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert LGAMMA_FLAG in proc.stdout


def test_failed_prefactor_skips_the_bound_factors(monkeypatch):
    # G(1) of this envelope is a Chu-Vandermonde product of 1e9 factors,
    # minutes of work that the row, which reports P's overflow, never reads
    calls = []
    monkeypatch.setattr(bounds, "bound_factors",
                        lambda spec: calls.append(spec))
    spec = MomentSpec(1, 1, 2e9, -0.5, 0.5)
    row = one_point_row(spec)
    assert calls == []
    assert [f.split(":")[1] for f in row.flags] == ["DomainError"] * 2
    assert row.flags[0] == bounds.check_point(spec).flags[0]


def test_cli_gap_failed_prefactor_exits_promptly():
    # interpreter start-up included; the Chu-Vandermonde product would
    # run for minutes
    start = time.perf_counter()
    proc = _run_gap("--alpha1", "2e9", "--alpha2=-0.5", "--rho", "0.5")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 60


def test_cli_gap_failed_envelope_scale_exits_promptly():
    # at rho = 0 the row reads the bound factors though P failed; their
    # scale overflows as P does, before G(1)'s Chu-Vandermonde product of
    # 1e9 factors could start
    start = time.perf_counter()
    proc = _run_gap("--alpha1", "2e9", "--alpha2=-0.5", "--rho", "0",
                    timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    flag = "error:DomainError:value exp(2.04164e+10) overflows float64; "
    assert flag in proc.stdout
    assert time.perf_counter() - start < 30
