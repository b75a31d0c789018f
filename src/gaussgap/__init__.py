"""Bivariate Gaussian absolute product moments, gap bounds, and verification."""

from .bounds import (BoundReport, GapBound, check_point, gap_bound,
                     pair_bound_int_int, pair_bound_int_one, pair_bound_small)
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     GaussGapError, InfiniteVarianceError,
                     SeriesDivergenceError)
from .moments import (abs_moment_1d, gap, gap_via_3f2, product_moment,
                      product_of_marginals)
from .oracles import (McConfig, derive_seed, mc_product_moment,
                      quad_product_moment, sample_bivariate)
from .special import (SeriesResult, double_factorial, euler_transform,
                      hyp2f1, hyp2f1_at_one, hyp2f1_derivative, hyp3f2)
from .types import Estimate, MomentSpec

__version__ = "0.1.0"
