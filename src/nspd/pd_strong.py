"""Non-stationary primal-dual method for strongly convex composite problems.

With f mu_f-strongly convex the penalty grows quadratically, rho_k =
rho0/tau_k^2, and the primal update keeps two prox evaluations of f per
iteration: one driving the extrapolation sequence x_tilde and one producing
the output iterate x, which is what makes the guarantee hold on the last
iterate.  Two step-size regimes are supported:

* Case 1: tau given by the recursion tau_{k+1} = tau_k (sqrt(tau_k^2+4) -
  tau_k)/2 from tau_0 = 1, with rho0 <= Gamma mu_f / (2 ||K||^2).
* Case 2: tau_k = c/(k+c) with c > 2, with rho0 <= c(c-1) Gamma mu_f /
  ((2c-1) ||K||^2).

Here gamma in (1/2, 1) and Gamma = 2 - 1/gamma in (0, 1).

The split form (:func:`split_step`) keeps the residual r explicit; the
merged form eliminates it through the Moreau decomposition.  The dual
correction coefficients eta_k/rho_k and eta_k (1-tau_k)/rho_{k-1} are the
ones produced by that elimination, so both forms generate identical iterates
(the tests assert this).

:func:`semistrong_step` extends the method to min f(x) + psi(w) subject to
Kx + Bw = b where only f is strongly convex; the w-subproblem is solved
exactly (closed form for B = -I, inner accelerated proximal gradient
otherwise) rather than linearized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .driver import run
from .errors import ConfigurationError, InnerSolverError, check_finite
from .pd_general import _dual_correction
from .problems import CompositeProblem, SemiStrongProblem
from .prox import conjugate_prox

__all__ = [
    "StrongSchedule",
    "StrongOptions",
    "PDStrongState",
    "RawStrongState",
    "SemiStrongState",
    "init_state",
    "step",
    "init_split_state",
    "split_step",
    "init_semistrong_state",
    "semistrong_step",
    "solve",
    "solve_semistrong",
]


class StrongSchedule:
    """Parameter sequences for the strongly convex method.

    Case 1 maintains tau by its recursion (the closed form does not exist);
    Case 2 uses tau_k = c/(k+c).  Either way rho_k beta_k ||K||^2 = Gamma and
    eta_k = (1-gamma) rho_k < rho_k.
    """

    def __init__(self, case: int, gamma: float, mu_f: float, norm_K: float,
                 rho0: Optional[float] = None, c: float = 4.0,
                 enforce_rho0_bound: bool = True):
        if case not in (1, 2):
            raise ConfigurationError("case must be 1 or 2")
        if not 0.5 < gamma < 1:
            raise ConfigurationError("gamma must lie in (1/2, 1)")
        if mu_f <= 0:
            raise ConfigurationError("mu_f must be positive")
        if norm_K <= 0:
            raise ConfigurationError("norm_K must be positive")
        if case == 2 and c <= 2:
            raise ConfigurationError("Case 2 requires c > 2")
        self.case = case
        self.gamma = float(gamma)
        self.Gamma = 2.0 - 1.0 / self.gamma
        self.mu_f = float(mu_f)
        self.norm_K = float(norm_K)
        self.c = float(c)
        bound = self.rho0_bound()
        self.rho0 = bound if rho0 is None else float(rho0)
        if self.rho0 <= 0:
            raise ConfigurationError("rho0 must be positive")
        if enforce_rho0_bound and self.rho0 > bound * (1 + 1e-12):
            ineq = ("rho0 <= Gamma*mu_f/(2*norm_K^2)" if case == 1 else
                    "rho0 <= c*(c-1)*Gamma*mu_f/((2*c-1)*norm_K^2)")
            raise ConfigurationError(
                f"rho0 = {self.rho0:.6g} violates {ineq} = {bound:.6g}")
        self._taus = [1.0]  # Case 1 recursion cache

    def rho0_bound(self) -> float:
        if self.case == 1:
            return self.Gamma * self.mu_f / (2.0 * self.norm_K ** 2)
        return (self.c * (self.c - 1.0) * self.Gamma * self.mu_f
                / ((2.0 * self.c - 1.0) * self.norm_K ** 2))

    def tau(self, k: int) -> float:
        if k < 0:
            return 1.0  # pinned start
        if self.case == 2:
            return self.c / (k + self.c)
        while len(self._taus) <= k:
            t = self._taus[-1]
            self._taus.append(0.5 * t * (np.sqrt(t * t + 4.0) - t))
        return self._taus[k]

    def at(self, k: int):
        """Return (tau_k, rho_k, beta_k, eta_k)."""
        tau = self.tau(k)
        rho = self.rho0 / tau ** 2
        beta = self.Gamma / (rho * self.norm_K ** 2)
        eta = (1.0 - self.gamma) * rho
        return tau, rho, beta, eta


@dataclass
class StrongOptions:
    case: int = 1
    gamma: float = 0.75
    rho0: Optional[float] = None  # None picks the largest admissible value
    c: float = 4.0
    max_iters: int = 1000
    trace_every: Union[int, str] = 1
    nu0: Optional[float] = None
    inner_tol: float = 1e-10
    inner_max: int = 500
    averaging_x: bool = False  # replace the second prox by plain averaging
    enforce_rho0_bound: bool = True


# -- merged form -------------------------------------------------------------

@dataclass
class PDStrongState:
    """Iterates of the merged form; ``u`` (the previous step's term of the
    three-point dual correction) and ``Kt_ybar`` are as in
    :class:`nspd.pd_general.PDState`."""

    k: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    K_x: np.ndarray
    K_xhat: np.ndarray
    u: np.ndarray
    Kt_ybar: Optional[np.ndarray] = None


def init_state(problem: CompositeProblem, x0, y0) -> PDStrongState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    Kx0 = problem.K.apply(x0)
    return PDStrongState(k=0, x=x0.copy(), x_tilde=x0.copy(),
                         x_hat=x0.copy(), y=y0.copy(), y_tilde=y0.copy(),
                         y_bar=y0.copy(), K_x=Kx0, K_xhat=Kx0.copy(),
                         u=np.zeros_like(Kx0))


def step(state: PDStrongState, problem: CompositeProblem,
         sched: StrongSchedule, averaging_x: bool = False) -> PDStrongState:
    """One iteration of the merged strongly convex update."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    tau_next = sched.tau(k + 1)
    f, g, K = problem.f, problem.g, problem.K

    y_new = conjugate_prox(g, state.y_tilde + rho * state.K_xhat, rho)
    Kt_y = K.adjoint_apply(y_new)

    s_tilde = beta / tau
    x_tilde_new = f.prox(state.x_tilde - s_tilde * Kt_y, s_tilde)
    if averaging_x:
        x_new = (1.0 - tau) * state.x + tau * x_tilde_new
    else:
        s_x = 1.0 / (rho * sched.norm_K ** 2)
        x_new = f.prox(state.x_hat - s_x * Kt_y, s_x)
    x_hat_new = (1.0 - tau_next) * x_new + tau_next * x_tilde_new

    K_x_new = K.apply(x_new)
    K_xhat_new = (1.0 - tau_next) * K_x_new + tau_next * K.apply(x_tilde_new)

    y_tilde_new, u_new = _dual_correction(state, y_new, K_x_new, tau, rho,
                                          eta)
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, y=y_new, y_tilde=y_tilde_new)

    if state.Kt_ybar is not None:
        state.Kt_ybar = (1.0 - tau) * state.Kt_ybar + tau * Kt_y

    state.x = x_new
    state.x_tilde = x_tilde_new
    state.x_hat = x_hat_new
    state.y_tilde = y_tilde_new
    state.y = y_new
    state.y_bar = y_bar_new
    state.K_x = K_x_new
    state.K_xhat = K_xhat_new
    state.u = u_new
    state.k = k + 1
    return state


# -- split form --------------------------------------------------------------

@dataclass
class RawStrongState:
    k: int
    x: np.ndarray
    x_tilde: np.ndarray
    r: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    y: np.ndarray


def init_split_state(problem: CompositeProblem, x0, y0) -> RawStrongState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    return RawStrongState(k=0, x=x0.copy(), x_tilde=x0.copy(),
                          r=problem.K.apply(x0), y_tilde=y0.copy(),
                          y_bar=y0.copy(), y=y0.copy())


def split_step(state: RawStrongState, problem: CompositeProblem,
               sched: StrongSchedule) -> RawStrongState:
    """One iteration of the split scheme with explicit residual."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    f, g, K = problem.f, problem.g, problem.K

    x_hat = (1.0 - tau) * state.x + tau * state.x_tilde
    K_xhat = K.apply(x_hat)
    r_new = g.prox(state.y_tilde / rho + K_xhat, 1.0 / rho)
    grad = K.adjoint_apply(state.y_tilde + rho * (K_xhat - r_new))

    s_tilde = beta / tau
    x_tilde_new = f.prox(state.x_tilde - s_tilde * grad, s_tilde)
    s_x = 1.0 / (rho * sched.norm_K ** 2)
    x_new = f.prox(x_hat - s_x * grad, s_x)

    y_new = state.y_tilde + rho * (K_xhat - r_new)
    y_tilde_new = state.y_tilde + eta * (K.apply(x_new) - r_new
                                         - (1.0 - tau) * (K.apply(state.x) - state.r))
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, y=y_new, y_tilde=y_tilde_new)

    state.x = x_new
    state.x_tilde = x_tilde_new
    state.r = r_new
    state.y_tilde = y_tilde_new
    state.y_bar = y_bar_new
    state.y = y_new
    state.k = k + 1
    return state


# -- semi-strongly convex constrained scheme ---------------------------------

@dataclass
class SemiStrongState:
    """Iterates of the semi-strongly convex scheme; ``resid`` is the
    constraint residual K x_k + B w_k - b."""

    k: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray
    w: np.ndarray
    w_hat: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    resid: np.ndarray


def init_semistrong_state(problem: SemiStrongProblem, x0, w0, y0) -> SemiStrongState:
    x0 = np.asarray(x0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    resid0 = problem.K.apply(x0) + problem.B.apply(w0) - problem.b
    return SemiStrongState(k=0, x=x0.copy(), x_tilde=x0.copy(),
                           x_hat=x0.copy(), w=w0.copy(), w_hat=w0.copy(),
                           y=y0.copy(), y_tilde=y0.copy(), y_bar=y0.copy(),
                           resid=resid0)


def _solve_w_subproblem(problem: SemiStrongProblem, rho, nu0, K_xhat, w_hat,
                        y_tilde, w_start, tol, max_inner):
    """Minimize psi(w) + <B^T y~, w> + (rho/2)||K x^ + Bw - b||^2
    + (nu0/2)||w - w^||^2, exactly for B = -I, else by inner APG."""
    psi, B, b = problem.psi, problem.B, problem.b
    if problem.w_solver.kind == "closed_form":
        # B = -I: the quadratic collapses to (rho+nu0)/2 ||w - m||^2 - <y~, w>
        m = (rho * (K_xhat - b) + nu0 * w_hat) / (rho + nu0)
        return psi.prox(m + y_tilde / (rho + nu0), 1.0 / (rho + nu0))

    Bt_y = B.adjoint_apply(y_tilde)
    L = rho * B.norm ** 2 + nu0

    def grad(w):
        return (Bt_y + rho * B.adjoint_apply(K_xhat + B.apply(w) - b)
                + nu0 * (w - w_hat))

    w = w_start.copy()
    z = w.copy()
    t = 1.0
    res = np.inf
    for _ in range(max_inner):
        w_next = psi.prox(z - grad(z) / L, 1.0 / L)
        res = float(np.linalg.norm((w - psi.prox(w - grad(w) / L, 1.0 / L)) * L))
        if res <= tol:
            return w
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
    res = float(np.linalg.norm((w - psi.prox(w - grad(w) / L, 1.0 / L)) * L))
    if res <= tol:
        return w
    raise InnerSolverError("w-subproblem APG did not converge", res)


def semistrong_step(state: SemiStrongState, problem: SemiStrongProblem,
                    sched: StrongSchedule, opts: StrongOptions) -> SemiStrongState:
    """One iteration of the semi-strongly convex constrained scheme."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    tau_next = sched.tau(k + 1)
    f, psi, K, B, b = problem.f, problem.psi, problem.K, problem.B, problem.b
    nu0 = problem.resolved_nu0() if opts.nu0 is None else opts.nu0

    K_xhat = K.apply(state.x_hat)
    w_new = _solve_w_subproblem(problem, rho, nu0, K_xhat, state.w_hat,
                                state.y_tilde, state.w,
                                opts.inner_tol, opts.inner_max)
    y_new = state.y_tilde + rho * (K_xhat + B.apply(w_new) - b)
    Kt_y = K.adjoint_apply(y_new)

    s_tilde = beta / tau
    x_tilde_new = f.prox(state.x_tilde - s_tilde * Kt_y, s_tilde)
    s_x = 1.0 / (rho * sched.norm_K ** 2)
    x_new = f.prox(state.x_hat - s_x * Kt_y, s_x)
    x_hat_new = (1.0 - tau_next) * x_new + tau_next * x_tilde_new

    momentum = tau_next * (1.0 - tau) / tau
    w_hat_new = w_new + momentum * (w_new - state.w)

    resid_new = K.apply(x_new) + B.apply(w_new) - b
    y_tilde_new = state.y_tilde + eta * (resid_new - (1.0 - tau) * state.resid)
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, w=w_new, y=y_new, y_tilde=y_tilde_new)

    state.x = x_new
    state.x_tilde = x_tilde_new
    state.x_hat = x_hat_new
    state.w = w_new
    state.w_hat = w_hat_new
    state.y = y_new
    state.y_tilde = y_tilde_new
    state.y_bar = y_bar_new
    state.resid = resid_new
    state.k = k + 1
    return state


# -- drivers -----------------------------------------------------------------

def _make_schedule(problem_mu, norm_K, opts: StrongOptions) -> StrongSchedule:
    if problem_mu <= 0:
        raise ConfigurationError("the strongly convex method needs f.mu > 0")
    return StrongSchedule(case=opts.case, gamma=opts.gamma, mu_f=problem_mu,
                          norm_K=norm_K, rho0=opts.rho0, c=opts.c,
                          enforce_rho0_bound=opts.enforce_rho0_bound)


def solve(problem: CompositeProblem, x0, y0, opts: StrongOptions, recorder=None):
    """Run the merged strongly convex update for opts.max_iters iterations;
    the recorder gets ``Kx=K x`` and ``Kty=K^T y`` with x and y_bar."""
    sched = _make_schedule(problem.f.mu, problem.K.norm, opts)
    state = init_state(problem, x0, y0)
    if recorder is not None:
        state.Kt_ybar = np.zeros(problem.p)  # see pd_general.PDState
    state = run(lambda s: step(s, problem, sched, averaging_x=opts.averaging_x),
                state, opts.max_iters, opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"Kx": s.K_x, "Kty": s.Kt_ybar}))
    return state, sched


def solve_semistrong(problem: SemiStrongProblem, x0, w0, y0,
                     opts: StrongOptions, recorder=None):
    """Run the semi-strongly convex constrained scheme; the recorder gets
    ``w`` and the constraint residual ``resid = K x + B w - b``."""
    sched = _make_schedule(problem.f.mu, problem.K.norm, opts)
    state = init_semistrong_state(problem, x0, w0, y0)
    state = run(lambda s: semistrong_step(s, problem, sched, opts), state,
                opts.max_iters, opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"w": s.w, "resid": s.resid}))
    return state, sched
