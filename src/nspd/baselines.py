"""Comparison solvers: fixed-step primal-dual splitting (plain and strongly
convex variants), ADMM on the split reformulation, and accelerated gradient
on a smoothed max-function for matrix games.

All baselines report through the same trace recorders as the main solvers,
so metric definitions are identical across methods.  The primal-dual and
ADMM baselines maintain both ergodic (uniform average) and last-iterate
outputs; which one is recorded is chosen by ``output_mode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .driver import run
from .errors import ConfigurationError, check_finite, check_option
from .problems import CompositeProblem, MatrixGame
from .prox import apg, conjugate_prox, project_simplex

__all__ = [
    "BaselineConfig",
    "CPState",
    "cp_step",
    "cp_scvx_step",
    "ADMMState",
    "admm_step",
    "solve_cp",
    "solve_cp_scvx",
    "solve_admm",
    "smoothing_iterations",
    "smoothing_mu",
    "smoothing_solve",
]


@dataclass
class BaselineConfig:
    """Options shared by the baseline solvers.

    rho and beta, when given, must be positive numbers; the fixed-step
    primal-dual methods require rho * beta * ||K||^2 <= 1, and ADMM, which
    has no beta, refuses one.
    """

    rho: float = 1.0
    beta: Optional[float] = None  # default: 1/(rho ||K||^2)
    output_mode: str = "ergodic"  # "ergodic" | "last_iterate"
    max_iters: int = 1000
    trace_every: int | str = 1

    def __post_init__(self):
        check_option("rho", self.rho)
        if self.beta is not None:
            check_option("beta", self.beta)
        if self.output_mode not in ("ergodic", "last_iterate"):
            raise ConfigurationError(
                f"output_mode must be 'ergodic' or 'last_iterate', "
                f"got {self.output_mode!r}")

    def resolved_beta(self, norm_K: float) -> float:
        beta = self.beta if self.beta is not None else 1.0 / (self.rho * norm_K ** 2)
        if self.rho * beta * norm_K ** 2 > 1.0 + 1e-12:
            raise ConfigurationError(
                f"rho*beta*||K||^2 = {self.rho * beta * norm_K ** 2:.6g} exceeds 1")
        return beta


# -- fixed-step primal-dual, plain (theta = 1) and strongly convex -----------

@dataclass
class CPState:
    k: int
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    x_erg: np.ndarray
    y_erg: np.ndarray
    rho: float
    beta: float


def init_cp_state(problem, x0, y0, rho, beta) -> CPState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    return CPState(k=0, x=x0.copy(), x_bar=x0.copy(),
                   y=y0.copy(), x_erg=x0.copy(), y_erg=y0.copy(),
                   rho=rho, beta=beta)


def _cp_update(state: CPState, problem: CompositeProblem, theta) -> CPState:
    """Fixed-step primal-dual update extrapolating with ``theta``, after
    which beta <- theta beta and rho <- rho/theta, so beta rho is invariant."""
    f, g, K = problem.f, problem.g, problem.K
    y_new = conjugate_prox(g, state.y + state.rho * K.apply(state.x_bar), state.rho)
    x_new = f.prox(state.x - state.beta * K.adjoint_apply(y_new), state.beta)
    x_bar_new = (1.0 + theta) * x_new - theta * state.x
    check_finite(state.k, x=x_new, y=y_new)

    k1 = state.k + 1
    state.x_erg = state.x_erg + (x_new - state.x_erg) / k1
    state.y_erg = state.y_erg + (y_new - state.y_erg) / k1
    state.x = x_new
    state.x_bar = x_bar_new
    state.y = y_new
    state.beta = theta * state.beta
    state.rho = state.rho / theta
    state.k = k1
    return state


def cp_step(state: CPState, problem: CompositeProblem) -> CPState:
    """Fixed-step primal-dual update with extrapolation parameter 1."""
    return _cp_update(state, problem, 1.0)


def cp_scvx_step(state: CPState, problem: CompositeProblem, mu_f: float) -> CPState:
    """Strongly convex variant: the update of :func:`_cp_update` with
    theta_k = 1/sqrt(1 + 2 mu_f beta_k)."""
    return _cp_update(state, problem, 1.0 / np.sqrt(1.0 + 2.0 * mu_f * state.beta))


# -- ADMM on the split reformulation -----------------------------------------

@dataclass
class ADMMState:
    k: int
    x: np.ndarray
    r: np.ndarray
    u: np.ndarray  # scaled multiplier, y = rho u
    x_erg: np.ndarray
    y_erg: np.ndarray


def init_admm_state(problem, x0, y0, rho) -> ADMMState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    return ADMMState(k=0, x=x0.copy(), r=problem.K.apply(x0), u=y0 / rho,
                     x_erg=x0.copy(), y_erg=y0.copy())


def admm_step(state: ADMMState, problem: CompositeProblem,
              cfg: BaselineConfig) -> ADMMState:
    """One scaled ADMM sweep on min f(x) + g(r) s.t. Kx - r = 0."""
    f, g, K = problem.f, problem.g, problem.K
    rho = cfg.rho
    target = state.r - state.u
    L = rho * K.norm ** 2
    if L == 0.0:
        # no coupling: the subproblem is min f alone
        x_new = f.prox(state.x, 1e12)
    else:
        # min_x f(x) + (rho/2) ||Kx - target||^2, warm-started at x_k
        x_new = apg(f.prox,
                    lambda x: rho * K.adjoint_apply(K.apply(x) - target),
                    L, state.x, "ADMM x-subproblem")
    Kx = K.apply(x_new)
    r_new = g.prox(Kx + state.u, 1.0 / rho)
    u_new = state.u + Kx - r_new
    check_finite(state.k, x=x_new, r=r_new, u=u_new)

    k1 = state.k + 1
    state.x_erg = state.x_erg + (x_new - state.x_erg) / k1
    state.y_erg = state.y_erg + (rho * u_new - state.y_erg) / k1
    state.x = x_new
    state.r = r_new
    state.u = u_new
    state.k = k1
    return state


# -- drivers ------------------------------------------------------------------

def _run(advance, state, cfg, recorder, last_y):
    """Run a baseline; the recorder sees the ergodic averages or the last
    iterate with ``last_y(state)`` as its dual point."""
    if cfg.output_mode == "ergodic":
        output = lambda s: (s.x_erg, s.y_erg, {})
    else:
        output = lambda s: (s.x, last_y(s), {})
    return run(advance, state, cfg.max_iters, cfg.trace_every, recorder,
               output)


def solve_cp(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> CPState:
    beta = cfg.resolved_beta(problem.K.norm)
    state = init_cp_state(problem, x0, y0, cfg.rho, beta)
    return _run(lambda s: cp_step(s, problem), state, cfg, recorder,
                lambda s: s.y)


def solve_cp_scvx(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> CPState:
    """The strongly convex variant with mu_f = ``problem.f.mu``."""
    mu_f = problem.f.mu
    if mu_f <= 0:
        raise ConfigurationError("the strongly convex variant needs f.mu > 0")
    beta = cfg.resolved_beta(problem.K.norm)
    state = init_cp_state(problem, x0, y0, cfg.rho, beta)
    return _run(lambda s: cp_scvx_step(s, problem, mu_f), state, cfg,
                recorder, lambda s: s.y)


def solve_admm(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> ADMMState:
    """ADMM with penalty ``cfg.rho``; it takes no step beta, so a config
    that sets one is refused."""
    if cfg.beta is not None:
        raise ConfigurationError(f"ADMM takes no beta, got {cfg.beta!r}")
    state = init_admm_state(problem, x0, y0, cfg.rho)
    return _run(lambda s: admm_step(s, problem, cfg), state, cfg, recorder,
                lambda s: cfg.rho * s.u)


# -- smoothed max-function baseline for matrix games --------------------------

def smoothing_iterations(epsilon: float, n: int, p: int, norm_K: float) -> int:
    """Iteration count guaranteeing accuracy epsilon: the analysis prescribes
    (4 ||K|| / epsilon) sqrt((1 - 1/n)(1 - 1/p)) iterations, rounded up."""
    return int(math.ceil((4.0 * norm_K / epsilon)
                         * math.sqrt((1.0 - 1.0 / n) * (1.0 - 1.0 / p))))


def smoothing_mu(epsilon: float, n: int) -> float:
    """Smoothness parameter mu = epsilon / (2 (1 - 1/n))."""
    return epsilon / (2.0 * (1.0 - 1.0 / n))


@dataclass
class _SmoothState:
    k: int
    x: np.ndarray
    z: np.ndarray
    t: float
    y_acc: np.ndarray  # sum of (i+1) y_mu(z_i)
    w_acc: float       # sum of (i+1)


def smoothing_solve(game: MatrixGame, epsilon: float, mu_scale: float = 1.0,
                    recorder=None):
    """Accelerated projected gradient on the smoothed game objective, run
    for the :func:`smoothing_iterations` its accuracy ``epsilon`` needs.

    The max over the n-simplex is smoothed with the squared Euclidean
    distance to its center y_c, F_mu(x) = max_y { <Kx, y> - (mu/2)
    ||y - y_c||^2 }, whose gradient is K^T y_mu(x) with y_mu(x) the simplex
    projection of y_c + Kx/mu.  The step is mu/||K||^2.  The dual point
    reported for the gap is the weighted average of the y_mu evaluations
    with weights proportional to i+1.
    """
    check_option("epsilon", epsilon)
    K = game.K
    n, p = game.n, game.p
    mu = mu_scale * smoothing_mu(epsilon, n)
    k_max = smoothing_iterations(epsilon, n, p, K.norm)
    L = K.norm ** 2 / mu
    y_c = np.full(n, 1.0 / n)

    def y_mu(x):
        return project_simplex(y_c + K.apply(x) / mu)

    def advance(s):
        ymu = y_mu(s.z)
        w = s.k + 1.0
        s.y_acc += w * ymu
        s.w_acc += w
        x_next = project_simplex(s.z - K.adjoint_apply(ymu) / L)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s.t * s.t))
        s.z = x_next + ((s.t - 1.0) / t_next) * (x_next - s.x)
        s.x, s.t = x_next, t_next
        check_finite(s.k, x=s.x)
        s.k += 1
        return s

    x = np.full(p, 1.0 / p)
    state = run(advance, _SmoothState(0, x, x.copy(), 1.0, np.zeros(n), 0.0),
                k_max, "log", recorder,
                lambda s: (s.x, s.y_acc / s.w_acc, {}))
    return state.x, state.y_acc / max(state.w_acc, 1.0), k_max, mu
