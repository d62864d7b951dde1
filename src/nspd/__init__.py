"""Non-stationary first-order primal-dual solvers with rate certificates.

The package solves composite problems min_x f(x) + g(Kx) and their
constrained variants with two dynamic-parameter primal-dual methods (one for
the merely convex case with a 1/k guarantee, one for the strongly convex
case with a 1/k^2 guarantee), plus baseline solvers and a benchmark harness
that checks the worst-case bound constants against solver traces.
"""

from . import baselines, bench, linop, metrics, pd_general, pd_strong, prox
from .errors import (CertificateUnavailableError, ConfigurationError,
                     DimensionMismatchError, DivergenceError, InnerSolverError,
                     OracleFailureError, UnsupportedMetricError)
from .linop import LinearMap, estimate_norm
from .problems import (CompositeProblem, EqConstrainedProblem, MatrixGame,
                       SemiStrongProblem, neg_identity)
from .prox import ProxFunction, conjugate_prox

__version__ = "0.1.0"
