"""Problem containers consumed by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .linop import LinearMap
from .prox import ProxFunction, simplex_indicator, simplex_support

__all__ = [
    "CompositeProblem",
    "EqConstrainedProblem",
    "SemiStrongProblem",
    "MatrixGame",
    "neg_identity",
]


@dataclass(frozen=True)
class CompositeProblem:
    """min_x f(x) + g(Kx) with f: R^p, g: R^n, K: n x p."""

    f: ProxFunction
    g: ProxFunction
    K: LinearMap

    def __post_init__(self):
        if self.f.dim != self.K.cols:
            raise ConfigurationError(
                f"f has dim {self.f.dim} but K has {self.K.cols} columns")
        if self.g.dim != self.K.rows:
            raise ConfigurationError(
                f"g has dim {self.g.dim} but K has {self.K.rows} rows")

    @property
    def p(self):
        return self.K.cols

    @property
    def n(self):
        return self.K.rows

    def primal_value(self, x) -> float:
        return self.f.value(x) + self.g.value(self.K.apply(x))


@dataclass(frozen=True)
class EqConstrainedProblem:
    """min_x f(x) + psi(x) subject to Kx = b, with smooth psi."""

    f: ProxFunction
    psi: ProxFunction
    K: LinearMap
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.psi.gradient is None:
            raise ConfigurationError("psi must provide a gradient")
        if self.psi.smooth_lipschitz is None:
            raise ConfigurationError("psi must provide smooth_lipschitz")
        if self.f.dim != self.K.cols or self.psi.dim != self.K.cols:
            raise ConfigurationError("f, psi and K disagree on the primal dimension")
        if self.b.shape != (self.K.rows,):
            raise ConfigurationError("b must have one entry per row of K")

    def objective(self, x) -> float:
        return self.f.value(x) + self.psi.value(x)

    def feasibility(self, x) -> float:
        return float(np.linalg.norm(self.K.apply(x) - self.b))


@dataclass(frozen=True)
class SemiStrongProblem:
    """min_{x,w} f(x) + psi(w) subject to Kx + Bw = b, f strongly convex.

    The w-subproblem takes one prox of psi when B is the tagged
    :func:`neg_identity`; for any other B it runs the accelerated
    proximal-gradient loop :func:`nspd.prox.apg` to ``nspd.prox.APG_TOL``
    on the gradient-mapping norm, for at most ``nspd.prox.APG_MAX_STEPS``
    steps.
    """

    f: ProxFunction
    psi: ProxFunction
    K: LinearMap
    B: LinearMap
    b: np.ndarray
    nu0: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.f.mu <= 0:
            raise ConfigurationError("f must be strongly convex (mu > 0)")
        if self.K.rows != self.B.rows or self.b.shape != (self.K.rows,):
            raise ConfigurationError("K, B and b disagree on the constraint dimension")
        if self.psi.dim != self.B.cols:
            raise ConfigurationError("psi and B disagree on the w dimension")

    def resolved_nu0(self) -> float:
        if self.nu0 is not None:
            return float(self.nu0)
        # -Identity is injective: the quadratic coupling already makes the
        # w-subproblem strongly convex, no proximal regularization needed.
        return 0.0 if self.B.kind == "neg_identity" else 1.0

    def objective(self, x, w) -> float:
        return self.f.value(x) + self.psi.value(w)

    def feasibility(self, x, w) -> float:
        return float(np.linalg.norm(self.K.apply(x) + self.B.apply(w) - self.b))


def neg_identity(n: int) -> LinearMap:
    """The map w -> -w, tagged so the semi-strong w-step takes its closed
    form."""
    return LinearMap(n, n, lambda x: -x, lambda y: -y, norm_estimate=1.0,
                     kind="neg_identity")


@dataclass(frozen=True)
class MatrixGame:
    """min over the p-simplex of max over the n-simplex of <Kx, y>."""

    K: LinearMap

    @property
    def n(self):
        return self.K.rows

    @property
    def p(self):
        return self.K.cols

    def to_composite(self) -> CompositeProblem:
        """Composite form: f the simplex indicator, g the simplex support
        function, whose conjugate prox is the simplex projection."""
        return CompositeProblem(simplex_indicator(self.p),
                                simplex_support(self.n), self.K)

    def primal_value(self, x) -> float:
        return float(np.max(self.K.apply(x)))

    def dual_value(self, y) -> float:
        return -float(np.min(self.K.adjoint_apply(y)))
