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
import warnings

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gaussgap import bounds, cli, moments, oracles, verify
from gaussgap.errors import GaussGapError
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
    returns_or_raises_library_error(lambda s: verify.evaluate_point(s, 0),
                                    spec)


@given(specs())
def test_mc_product_moment(spec):
    assume(min(spec.alpha1, spec.alpha2) > -0.5)
    returns_or_raises_library_error(
        lambda s: oracles.mc_product_moment(s, oracles.McConfig(1000, 1)),
        spec)


@pytest.mark.parametrize("call", [
    moments.gap, bounds.check_point, lambda s: verify.evaluate_point(s, 0)],
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
