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
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InnerSolverError, check_finite
from .problems import CompositeProblem, MatrixGame
from .prox import conjugate_prox, project_simplex

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

    The fixed-step primal-dual methods require rho * beta * ||K||^2 <= 1.
    """

    rho: float = 1.0
    beta: Optional[float] = None  # default: 1/(rho ||K||^2)
    mu_f: float = 0.0             # strongly convex variant only
    inner_tol: float = 1e-10
    inner_max: int = 1000
    output_mode: str = "ergodic"  # "ergodic" | "last_iterate"
    max_iters: int = 1000
    trace_every: int | str = 1

    def resolved_beta(self, norm_K: float) -> float:
        beta = self.beta if self.beta is not None else 1.0 / (self.rho * norm_K ** 2)
        if self.rho * beta * norm_K ** 2 > 1.0 + 1e-12:
            raise ConfigurationError(
                f"rho*beta*||K||^2 = {self.rho * beta * norm_K ** 2:.6g} exceeds 1")
        return beta


# -- fixed-step primal-dual (extrapolation theta = 1) ------------------------

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


def cp_step(state: CPState, problem: CompositeProblem) -> CPState:
    """Fixed-step primal-dual update with extrapolation parameter 1."""
    f, g, K = problem.f, problem.g, problem.K
    y_new = conjugate_prox(g, state.y + state.rho * K.apply(state.x_bar), state.rho)
    x_new = f.prox(state.x - state.beta * K.adjoint_apply(y_new), state.beta)
    x_bar_new = 2.0 * x_new - state.x
    check_finite(state.k, x=x_new, y=y_new)

    k1 = state.k + 1
    state.x_erg = state.x_erg + (x_new - state.x_erg) / k1
    state.y_erg = state.y_erg + (y_new - state.y_erg) / k1
    state.x = x_new
    state.x_bar = x_bar_new
    state.y = y_new
    state.k = k1
    return state


def cp_scvx_step(state: CPState, problem: CompositeProblem, mu_f: float) -> CPState:
    """Strongly convex variant: theta_k = 1/sqrt(1 + 2 mu_f beta_k),
    beta_{k+1} = theta_k beta_k, rho_{k+1} = rho_k/theta_k, extrapolation
    with theta_k.  The product beta_k rho_k is invariant."""
    f, g, K = problem.f, problem.g, problem.K
    y_new = conjugate_prox(g, state.y + state.rho * K.apply(state.x_bar), state.rho)
    x_new = f.prox(state.x - state.beta * K.adjoint_apply(y_new), state.beta)
    theta = 1.0 / np.sqrt(1.0 + 2.0 * mu_f * state.beta)
    x_bar_new = x_new + theta * (x_new - state.x)
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


# -- ADMM on the split reformulation -----------------------------------------

@dataclass
class ADMMState:
    k: int
    x: np.ndarray
    r: np.ndarray
    u: np.ndarray  # scaled multiplier, y = rho u
    x_erg: np.ndarray
    r_erg: np.ndarray
    y_erg: np.ndarray


def init_admm_state(problem, x0, y0, rho) -> ADMMState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    r0 = problem.K.apply(x0)
    return ADMMState(k=0, x=x0.copy(), r=r0, u=y0 / rho, x_erg=x0.copy(),
                     r_erg=r0.copy(), y_erg=y0.copy())


def _apg_x_update(problem, rho, target, x_start, tol, max_inner):
    """min_x f(x) + (rho/2) ||Kx - target||^2 by accelerated proximal
    gradient with warm start; stops on the gradient-mapping norm."""
    f, K = problem.f, problem.K
    L = rho * K.norm ** 2
    if L == 0.0:
        # no coupling: the subproblem is min f alone
        return f.prox(x_start, 1e12)

    def grad(x):
        return rho * K.adjoint_apply(K.apply(x) - target)

    def mapping_norm(x):
        return float(np.linalg.norm((x - f.prox(x - grad(x) / L, 1.0 / L)) * L))

    x = x_start.copy()
    z = x.copy()
    t = 1.0
    for _ in range(max_inner):
        if mapping_norm(x) <= tol:
            return x
        x_next = f.prox(z - grad(z) / L, 1.0 / L)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    res = mapping_norm(x)
    if res <= tol:
        return x
    raise InnerSolverError("ADMM x-subproblem APG did not converge", res)


def admm_step(state: ADMMState, problem: CompositeProblem,
              cfg: BaselineConfig) -> ADMMState:
    """One scaled ADMM sweep on min f(x) + g(r) s.t. Kx - r = 0."""
    f, g, K = problem.f, problem.g, problem.K
    rho = cfg.rho
    target = state.r - state.u
    if K.kind == "identity":
        # resolvent in closed form when K is the identity
        x_new = f.prox(target, 1.0 / rho)
    else:
        x_new = _apg_x_update(problem, rho, target, state.x,
                              cfg.inner_tol, cfg.inner_max)
    Kx = K.apply(x_new)
    r_new = g.prox(Kx + state.u, 1.0 / rho)
    u_new = state.u + Kx - r_new
    check_finite(state.k, x=x_new, r=r_new, u=u_new)

    k1 = state.k + 1
    state.x_erg = state.x_erg + (x_new - state.x_erg) / k1
    state.r_erg = state.r_erg + (r_new - state.r_erg) / k1
    state.y_erg = state.y_erg + (rho * u_new - state.y_erg) / k1
    state.x = x_new
    state.r = r_new
    state.u = u_new
    state.k = k1
    return state


# -- drivers ------------------------------------------------------------------

def _run(step_fn, state, cfg, recorder):
    from .pd_general import _record_ks, _should_record

    log_ks = _record_ks(cfg.max_iters, cfg.trace_every)
    t0 = time.perf_counter()
    for _ in range(cfg.max_iters):
        state = step_fn(state)
        if recorder is not None and _should_record(state.k, cfg.max_iters,
                                                   cfg.trace_every, log_ks):
            if cfg.output_mode == "ergodic":
                recorder(state.k, state.x_erg, state.y_erg,
                         time.perf_counter() - t0)
            else:
                recorder(state.k, state.x, getattr(state, "y", None),
                         time.perf_counter() - t0)
    return state


def solve_cp(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> CPState:
    beta = cfg.resolved_beta(problem.K.norm)
    state = init_cp_state(problem, x0, y0, cfg.rho, beta)
    return _run(lambda s: cp_step(s, problem), state, cfg, recorder)


def solve_cp_scvx(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> CPState:
    if cfg.mu_f <= 0:
        raise ConfigurationError("the strongly convex variant needs mu_f > 0")
    beta = cfg.resolved_beta(problem.K.norm)
    state = init_cp_state(problem, x0, y0, cfg.rho, beta)
    return _run(lambda s: cp_scvx_step(s, problem, cfg.mu_f), state, cfg, recorder)


def solve_admm(problem, x0, y0, cfg: BaselineConfig, recorder=None) -> ADMMState:
    from .pd_general import _record_ks, _should_record

    state = init_admm_state(problem, x0, y0, cfg.rho)
    log_ks = _record_ks(cfg.max_iters, cfg.trace_every)
    t0 = time.perf_counter()
    for _ in range(cfg.max_iters):
        state = admm_step(state, problem, cfg)
        if recorder is not None and _should_record(state.k, cfg.max_iters,
                                                   cfg.trace_every, log_ks):
            if cfg.output_mode == "ergodic":
                recorder(state.k, state.x_erg, state.y_erg,
                         time.perf_counter() - t0)
            else:
                recorder(state.k, state.x, cfg.rho * state.u,
                         time.perf_counter() - t0)
    return state


# -- smoothed max-function baseline for matrix games --------------------------

def smoothing_iterations(epsilon: float, n: int, p: int, norm_K: float) -> int:
    """Iteration count guaranteeing accuracy epsilon: the analysis prescribes
    (4 ||K|| / epsilon) sqrt((1 - 1/n)(1 - 1/p)) iterations, rounded up."""
    return int(math.ceil((4.0 * norm_K / epsilon)
                         * math.sqrt((1.0 - 1.0 / n) * (1.0 - 1.0 / p))))


def smoothing_mu(epsilon: float, n: int) -> float:
    """Smoothness parameter mu = epsilon / (2 (1 - 1/n))."""
    return epsilon / (2.0 * (1.0 - 1.0 / n))


def smoothing_solve(game: MatrixGame, epsilon: float, mu_scale: float = 1.0,
                    recorder=None, max_iters: Optional[int] = None):
    """Accelerated projected gradient on the smoothed game objective.

    The max over the n-simplex is smoothed with the squared Euclidean
    distance to its center y_c, F_mu(x) = max_y { <Kx, y> - (mu/2)
    ||y - y_c||^2 }, whose gradient is K^T y_mu(x) with y_mu(x) the simplex
    projection of y_c + Kx/mu.  The step is mu/||K||^2.  The dual point
    reported for the gap is the weighted average of the y_mu evaluations
    with weights proportional to i+1.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    K = game.K
    n, p = game.n, game.p
    mu = mu_scale * smoothing_mu(epsilon, n)
    k_max = smoothing_iterations(epsilon, n, p, K.norm) if max_iters is None \
        else max_iters
    L = K.norm ** 2 / mu
    y_c = np.full(n, 1.0 / n)

    def y_mu(x):
        return project_simplex(y_c + K.apply(x) / mu)

    x = np.full(p, 1.0 / p)
    z = x.copy()
    t = 1.0
    y_acc = np.zeros(n)
    w_acc = 0.0
    t0 = time.perf_counter()
    from .pd_general import _record_ks, _should_record
    log_ks = _record_ks(k_max, "log")
    for i in range(k_max):
        ymu = y_mu(z)
        w = i + 1.0
        y_acc += w * ymu
        w_acc += w
        x_next = project_simplex(z - K.adjoint_apply(ymu) / L)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        check_finite(i, x=x)
        if recorder is not None and _should_record(i + 1, k_max, "log", log_ks):
            recorder(i + 1, x, y_acc / w_acc, time.perf_counter() - t0)
    return x, y_acc / max(w_acc, 1.0), k_max, mu
