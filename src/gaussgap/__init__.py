"""Bivariate Gaussian absolute product moments, gap bounds, and verification."""

from .bounds import (BoundCase, BoundReport, GapEnvelope, GapLowerBound,
                     check_point, gap_envelope, gap_lower_bound,
                     pair_bound_int_int, pair_bound_int_one, pair_bound_small)
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     GaussGapError, InfiniteVarianceError,
                     SeriesDivergenceError)
from .moments import (abs_moment_1d, gap, gap_via_3f2, product_moment,
                      product_moment_rho_one, product_of_marginals)
from .oracles import (McConfig, OracleEstimate, derive_seed,
                      mc_product_moment, quad_abs_moment_1d,
                      quad_product_moment, sample_bivariate)
from .special import (SeriesResult, double_factorial, euler_transform,
                      hyp2f1, hyp2f1_at_one, hyp2f1_derivative, hyp3f2,
                      hyp_integral_rep)
from .types import MomentSpec

__version__ = "0.1.0"
