"""Exception hierarchy shared by all gaussgap modules, and ``outcome``,
which keeps an error as a value."""


class GaussGapError(Exception):
    """Base class for all library errors."""


class DomainError(GaussGapError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ConvergenceError(GaussGapError, RuntimeError):
    """A series hit the term cap before meeting its stopping criterion, or
    provably would: then nothing was summed and ``partial_value`` is None."""

    def __init__(self, message, partial_value=None, terms_used=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.terms_used = terms_used


class SeriesDivergenceError(GaussGapError, ArithmeticError):
    """A hypergeometric series evaluated at z = 1 diverges.

    Callers that implement vacuous bounds translate this into an
    infinite-bound sentinel instead of propagating.
    """


class AccuracyError(GaussGapError, RuntimeError):
    """Quadrature could not meet its error target.

    Carries the best estimate and the achieved error bound so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, estimate=None, achieved_error=None):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


class InfiniteVarianceError(GaussGapError, ValueError):
    """Monte Carlo estimator refused: the integrand has infinite variance.

    Use the quadrature oracle for exponents at or below -1/2.
    """


def outcome(fn, *args):
    """``fn(*args)``, or the ``GaussGapError`` it raised, stripped of its
    traceback so that a kept error keeps no frame of the call alive."""
    try:
        return fn(*args)
    except GaussGapError as exc:
        return exc.with_traceback(None)
