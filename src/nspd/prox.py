"""Proximal mappings for the objective terms used by the solvers.

Every function is wrapped in a :class:`ProxFunction` carrying its value,
its scaled proximal mapping ``prox(v, step)``, and optional constants
(strong-convexity modulus, Lipschitz constant of the function, gradient for
smooth terms, closed-form conjugate value and conjugate prox).
:func:`conjugate_prox` uses the closed-form conjugate prox where a function
has one (a clip or a projection, cheaper than the detour through the primal
prox) and otherwise derives it from the primal prox through the Moreau
decomposition; the tests cross-check every closed form against that
derivation.  :func:`apg` is the accelerated proximal-gradient inner loop
that ADMM's x-step and the semi-strong w-step share; its stopping policy is
the module constants ``APG_TOL`` and ``APG_MAX_STEPS``, read at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import InnerSolverError, check_option

__all__ = [
    "ProxFunction",
    "conjugate_prox",
    "apg",
    "l1_norm",
    "l1_shifted",
    "elastic_net",
    "point_indicator",
    "simplex_indicator",
    "simplex_support",
    "squared_l2",
    "zero",
    "project_simplex",
]

FEAS_TOL = 1e-9  # indicator membership tolerance for value()
APG_TOL = 1e-10  # apg's gradient-mapping norm at which it stops
APG_MAX_STEPS = 1000  # apg's step cap, past which it raises


@dataclass(frozen=True)
class ProxFunction:
    """A convex function together with its proximal mapping.

    ``prox(v, step)`` returns ``argmin_u { value(u) + ||u - v||^2 / (2 step) }``.
    ``mu`` is a strong-convexity modulus (0 if merely convex), ``lipschitz``
    a Lipschitz constant of the function itself (used in bound constants),
    ``smooth_lipschitz`` a gradient Lipschitz constant for smooth terms.
    ``conj_prox(v, rho)``, when set, returns ``prox_{rho h*}(v)`` in closed
    form for :func:`conjugate_prox`; it must agree with ``prox`` through the
    Moreau decomposition, so a replaced ``prox`` must compute the same map.
    Each constructor sets ``kind``, which names the function, and the
    read-only ``params``; ``scalar_params`` (the scalar entries, as
    ``report.json`` lists them) and ``shift`` (``params["b"]``, the anchor
    of a shifted function) are read from them.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    mu: float = 0.0
    lipschitz: Optional[float] = None
    smooth_lipschitz: Optional[float] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    conj_prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    kind: str = ""
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def scalar_params(self) -> dict:
        return {k: v for k, v in self.params.items() if np.isscalar(v)}

    @property
    def shift(self) -> Optional[np.ndarray]:
        return self.params.get("b")


def conjugate_prox(h: ProxFunction, v: np.ndarray, rho: float) -> np.ndarray:
    """Proximal mapping of the conjugate: prox_{rho h*}(v).

    ``h.conj_prox`` when set; otherwise the Moreau decomposition rearranged,
    prox_{rho h*}(v) = v - rho prox_{h/rho}(v/rho), exact for every
    ProxFunction with a correct primal prox.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    v = np.asarray(v, dtype=float)
    if h.conj_prox is not None:
        return h.conj_prox(v, rho)
    return v - rho * h.prox(v / rho, 1.0 / rho)


def apg(prox, grad, L, x0, what):
    """min_x h(x) + s(x) by accelerated proximal gradient from ``x0``.

    ``prox(v, step)`` is the prox of h, ``grad`` the gradient of the smooth
    s and ``L`` its Lipschitz constant.  Returns the first iterate whose
    gradient-mapping norm ``L ||x - prox(x - grad(x)/L, 1/L)||`` is at most
    ``APG_TOL``, checked before each of at most ``APG_MAX_STEPS`` steps and
    once after the last; otherwise raises :class:`InnerSolverError` naming
    ``what``.
    """

    def mapping_norm(x):
        return float(np.linalg.norm((x - prox(x - grad(x) / L, 1.0 / L)) * L))

    x = np.array(x0, dtype=float)
    z = x.copy()
    t = 1.0
    for _ in range(APG_MAX_STEPS):
        if mapping_norm(x) <= APG_TOL:
            return x
        x_next = prox(z - grad(z) / L, 1.0 / L)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    res = mapping_norm(x)
    if res <= APG_TOL:
        return x
    raise InnerSolverError(f"{what} APG did not converge", res)


def _soft(v, t):
    # sign(v) max(|v| - t, 0) up to the sign of zeros, in two fewer passes
    return v - np.minimum(np.maximum(v, -t), t)


# -- concrete functions ----------------------------------------------------

def l1_norm(dim: int, lam: float) -> ProxFunction:
    """f(x) = lam * ||x||_1 with componentwise soft-thresholding prox."""
    check_option("lam", lam)

    def value(x):
        return lam * float(np.abs(x).sum())

    def prox(v, step):
        return _soft(np.asarray(v, dtype=float), step * lam)

    def conj(s):
        # indicator of the l-inf ball of radius lam
        if np.abs(s).max() <= lam * (1 + FEAS_TOL) + FEAS_TOL:
            return 0.0
        return np.inf

    def conj_prox(v, rho):
        return np.minimum(np.maximum(v, -lam), lam)  # projection on the ball

    return ProxFunction(dim, value, prox, conjugate_value=conj,
                        conj_prox=conj_prox, kind="l1", params={"lam": lam})


def l1_shifted(b: np.ndarray) -> ProxFunction:
    """g(r) = ||r - b||_1; Lipschitz constant sqrt(n) in the Euclidean norm."""
    b = np.asarray(b, dtype=float)
    n = b.size

    def value(r):
        return float(np.abs(r - b).sum())

    def prox(v, step):
        return b + _soft(np.asarray(v, dtype=float) - b, step)

    def conj(y):
        if np.abs(y).max() <= 1 + FEAS_TOL:
            # ndarray.dot, not @: the same BLAS ddot without the matmul
            # gufunc's dispatch, ~0.4 us less per call at n = 200
            return float(b.dot(y))
        return np.inf

    def conj_prox(v, rho):
        return np.minimum(np.maximum(v - rho * b, -1.0), 1.0)

    return ProxFunction(n, value, prox, lipschitz=float(np.sqrt(n)),
                        conjugate_value=conj, conj_prox=conj_prox,
                        kind="l1_shifted", params={"b": b})


def elastic_net(dim: int, lam: float, mu: float) -> ProxFunction:
    """f(x) = lam ||x||_1 + (mu/2) ||x||^2, strongly convex with modulus mu."""
    check_option("lam", lam)
    check_option("mu", mu)

    def value(x):
        return lam * float(np.abs(x).sum()) + 0.5 * mu * float(x.dot(x))

    def prox(v, step):
        return _soft(np.asarray(v, dtype=float), step * lam) / (1.0 + step * mu)

    def conj(s):
        t = np.maximum(np.abs(s) - lam, 0.0)
        return float(t.dot(t)) / (2.0 * mu)

    return ProxFunction(dim, value, prox, mu=mu, conjugate_value=conj,
                        kind="elastic", params={"lam": lam, "mu": mu})


def point_indicator(b: np.ndarray) -> ProxFunction:
    """g = indicator of the single point b; g*(y) = <b, y>."""
    b = np.asarray(b, dtype=float)

    def value(r):
        return 0.0 if np.linalg.norm(r - b) <= FEAS_TOL * (1 + np.linalg.norm(b)) else np.inf

    def prox(v, step):
        return b.copy()

    def conj(y):
        return float(b.dot(y))

    def conj_prox(v, rho):
        return v - rho * b

    return ProxFunction(b.size, value, prox, lipschitz=0.0,
                        conjugate_value=conj, conj_prox=conj_prox,
                        kind="point_indicator", params={"b": b})


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard simplex (sort-and-threshold).
    With no positive candidate (max(v) past ~1e16 rounded the 1 away, or v
    is not finite) it projects v - max(v), the same point, or gives NaNs."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cand = u - css / idx
    rho = np.nonzero(cand > 0)[0]
    if not rho.size:  # u[0] is NaN when v holds one
        return (project_simplex(v - u[0]) if np.isfinite(u[0])
                else np.full_like(v, np.nan))
    theta = css[rho[-1]] / (rho[-1] + 1.0)
    return np.maximum(v - theta, 0.0)


def _on_simplex(x, tol=FEAS_TOL):
    return abs(float(np.sum(x)) - 1.0) <= tol and float(np.min(x)) >= -tol


def simplex_indicator(dim: int) -> ProxFunction:
    """Indicator of the standard simplex; prox is the Euclidean projection."""

    def value(x):
        return 0.0 if _on_simplex(x) else np.inf

    def prox(v, step):
        return project_simplex(v)  # projection is step-independent

    def conj(s):
        return float(np.max(s))

    return ProxFunction(dim, value, prox, conjugate_value=conj,
                        kind="simplex_indicator")


def simplex_support(dim: int) -> ProxFunction:
    """g(r) = max_i r_i, the support function of the standard simplex.

    Its conjugate is the simplex indicator, so conjugate_prox of this
    function is the simplex projection, for every rho.
    """

    def value(r):
        return float(np.max(r))

    def prox(v, step):
        v = np.asarray(v, dtype=float)
        return v - step * project_simplex(v / step)

    def conj(y):
        return 0.0 if _on_simplex(y) else np.inf

    def conj_prox(v, rho):
        return project_simplex(v)

    return ProxFunction(dim, value, prox, lipschitz=1.0,
                        conjugate_value=conj, conj_prox=conj_prox,
                        kind="simplex_support")


def squared_l2(dim: int, weight: float = 1.0) -> ProxFunction:
    """psi(x) = (weight/2) ||x||^2: smooth and strongly convex."""
    check_option("weight", weight)

    def value(x):
        return 0.5 * weight * float(x.dot(x))

    def prox(v, step):
        return np.asarray(v, dtype=float) / (1.0 + step * weight)

    def gradient(x):
        return weight * np.asarray(x, dtype=float)

    def conj(s):
        return float(s.dot(s)) / (2.0 * weight)

    return ProxFunction(dim, value, prox, mu=weight, smooth_lipschitz=weight,
                        gradient=gradient, conjugate_value=conj,
                        kind="squared_l2", params={"w": weight})


def zero(dim: int) -> ProxFunction:
    """The zero function; prox is the identity."""

    def value(x):
        return 0.0

    def prox(v, step):
        return np.asarray(v, dtype=float).copy()

    def gradient(x):
        return np.zeros(dim)

    def conj(s):
        return 0.0 if np.max(np.abs(s)) <= FEAS_TOL else np.inf

    return ProxFunction(dim, value, prox, lipschitz=0.0, smooth_lipschitz=0.0,
                        gradient=gradient, conjugate_value=conj, kind="zero")
