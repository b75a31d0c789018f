"""The domain contract: on the whole documented domain, every entry point
returns a value or raises a ``GaussGapError``, and leaks no other
exception and no numpy warning.

Scales lie in [1e-3, 1e3] (equal at |rho| = 1, which forces them),
exponents in (-1, 400] with 0 and 2 drawn often, and correlations in
[-0.99, 0.99] with 0 and +-1 drawn often.  Exponents in the hundreds
overflow the prefactor and the Monte Carlo samples, which must surface
as ``DomainError``.
"""

import warnings

from hypothesis import assume, given
from hypothesis import strategies as st

from gaussgap import bounds, moments, oracles, verify
from gaussgap.errors import GaussGapError
from gaussgap.types import MomentSpec

SIGMAS = st.floats(1e-3, 1e3)
ALPHAS = st.one_of(st.floats(-1.0, 400.0, exclude_min=True),
                   st.sampled_from((0.0, 2.0)))
RHOS = st.one_of(st.floats(-0.99, 0.99), st.sampled_from((0.0, 1.0, -1.0)))


@st.composite
def specs(draw):
    rho = draw(RHOS)
    sigma1 = draw(SIGMAS)
    sigma2 = sigma1 if abs(rho) == 1.0 else draw(SIGMAS)
    return MomentSpec(sigma1, sigma2, draw(ALPHAS), draw(ALPHAS), rho)


def returns_or_raises_library_error(call, spec):
    """Call ``call(spec)`` with every warning an error; a ``GaussGapError``
    counts as a documented outcome, anything else fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(spec)
        except GaussGapError:
            pass


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
    returns_or_raises_library_error(
        lambda s: verify.evaluate_point(s, 0, bounds.DEFAULT_TOLERANCE,
                                        verify.OracleChoice.NONE, 0, 0),
        spec)


@given(specs())
def test_mc_product_moment(spec):
    assume(min(spec.alpha1, spec.alpha2) > -0.5)
    returns_or_raises_library_error(
        lambda s: oracles.mc_product_moment(s, oracles.McConfig(1000, 1)),
        spec)
